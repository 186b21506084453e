#include "advice/fip06.hpp"

#include "advice/tree_advice_common.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.hpp"
#include "test_util.hpp"

namespace rise::advice {
namespace {

using sim::Knowledge;

sim::Instance advised_instance(const graph::Graph& g, std::uint64_t seed = 1) {
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST,
                                  seed);
  apply_oracle(inst, *fip06_oracle());
  return inst;
}

TEST(Fip06, WakesAllOnCatalog) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), fip06_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(Fip06, WakesAllFromArbitrarySources) {
  Rng rng(2);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.2, rng);
    const auto result =
        test::run_async_unit(inst, schedule, fip06_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(Fip06, MessagesAtMostTwoPerTreeEdge) {
  // Corollary 1: O(n) messages — at most 2(n-1).
  Rng rng(3);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.5, rng);
    const auto result =
        test::run_async_unit(inst, schedule, fip06_kernel());
    EXPECT_LE(result.metrics.messages, 2ull * (g.num_nodes() - 1)) << name;
  }
}

TEST(Fip06, TimeBoundedByTreeDiameter) {
  // O(D) time: at most 2 * BFS depth <= 2D hops under unit delays.
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(g.num_nodes() / 2),
                             fip06_kernel());
    ASSERT_TRUE(result.all_awake()) << name;
    const auto d = graph::diameter(g);
    EXPECT_LE(result.wakeup_span(), 2ull * d + 1) << name;
  }
}

TEST(Fip06, AdviceAverageIsLogarithmic) {
  Rng rng(4);
  // Dense graph: deg ~ n but tree degrees are small.
  const graph::NodeId n = 200;
  const auto g = graph::connected_gnp(n, 0.3, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  const auto stats = apply_oracle(inst, *fip06_oracle());
  const double logn = std::log2(static_cast<double>(n));
  EXPECT_LT(stats.avg_bits, 8.0 * logn);
  // Corollary 1: max advice O(n) bits.
  EXPECT_LE(stats.max_bits, static_cast<std::size_t>(n) + 1);
}

TEST(Fip06, StarHubUsesBitmapEncoding) {
  // The hub of a star has n-1 tree children; the bitmap caps its advice at
  // deg + 1 bits instead of deg * log n.
  const graph::NodeId n = 128;
  const auto g = graph::star(n);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  const auto stats = apply_oracle(inst, *fip06_oracle());
  EXPECT_LE(stats.max_bits, static_cast<std::size_t>(n));
}

TEST(Fip06, PortSetEncodingRoundTrip) {
  for (std::uint32_t degree : {1u, 2u, 7u, 100u}) {
    std::vector<sim::Port> ports;
    for (std::uint32_t p = 0; p < degree; p += 3) ports.push_back(p);
    BitWriter w;
    encode_port_set(w, ports, degree);
    const BitString bits = w.take();
    BitReader r(bits);
    EXPECT_EQ(decode_port_set(r, degree), ports) << "degree " << degree;
  }
}

TEST(Fip06, CongestSafe) {
  // All messages are O(1) bits.
  const auto g = graph::star(300);
  const auto inst = advised_instance(g);
  EXPECT_NO_THROW(
      test::run_async_unit(inst, sim::wake_single(5), fip06_kernel()));
}

TEST(Fip06, RobustUnderAdversarialDelays) {
  Rng rng(5);
  const auto g = graph::connected_gnp(70, 0.07, rng);
  const auto inst = advised_instance(g);
  const auto delays = sim::random_delay(9, 31337);
  const auto result = sim::run_async(inst, *delays, sim::wake_set({3, 60}), 2,
                                     fip06_kernel());
  EXPECT_TRUE(result.all_awake());
}

}  // namespace
}  // namespace rise::advice
