#include "advice/child_encoding.hpp"

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
  apply_oracle(inst, *child_encoding_oracle());
  return inst;
}

TEST(ChildEncoding, WakesAllOnCatalog) {
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.2, rng);
    const auto result =
        test::run_async_unit(inst, schedule, child_encoding_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(ChildEncoding, MaxAdviceIsLogarithmic) {
  // Theorem 5(B): O(log n) bits per node — even on a star whose hub has
  // n-1 children.
  for (graph::NodeId n : {64u, 256u, 1024u}) {
    const auto g = graph::star(n);
    auto inst =
        test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
    const auto stats = apply_oracle(inst, *child_encoding_oracle());
    const double bound = 8.0 * std::log2(static_cast<double>(n)) + 8;
    EXPECT_LT(static_cast<double>(stats.max_bits), bound) << "n=" << n;
  }
}

TEST(ChildEncoding, MessagesLinear) {
  // Theorem 5(B): O(n) messages — at most 3 per node.
  Rng rng(2);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.4, rng);
    const auto result =
        test::run_async_unit(inst, schedule, child_encoding_kernel());
    EXPECT_LE(result.metrics.messages, 3ull * g.num_nodes()) << name;
  }
}

TEST(ChildEncoding, TimeBoundedByDiameterTimesLog) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto result = test::run_async_unit(inst, sim::wake_single(0),
                                             child_encoding_kernel());
    ASSERT_TRUE(result.all_awake()) << name;
    const double d = std::max(1u, graph::diameter(g));
    const double logn =
        std::max(1.0, std::log2(static_cast<double>(g.num_nodes())));
    EXPECT_LE(static_cast<double>(result.wakeup_span()),
              2.0 * (d + 1) * (2 * logn + 2))
        << name;
  }
}

TEST(ChildEncoding, StarHubDisseminationIsLogDepth) {
  // Waking the hub of a star: all n-1 children wake within
  // ~2*log2(n) rounds via the binary sibling tree.
  const graph::NodeId n = 257;
  const auto g = graph::star(n);
  const auto inst = advised_instance(g);
  const auto result = test::run_async_unit(inst, sim::wake_single(0),
                                           child_encoding_kernel());
  ASSERT_TRUE(result.all_awake());
  EXPECT_LE(result.wakeup_span(), 2ull * 9 + 2);  // 2*ceil(log2 256)+slack
  // Messages: 2 per child (wake + next).
  EXPECT_LE(result.metrics.messages, 2ull * (n - 1) + 2);
}

TEST(ChildEncoding, AdviceDecodesToTreeStructure) {
  Rng rng(3);
  const auto g = graph::connected_gnp(60, 0.08, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  apply_oracle(inst, *child_encoding_oracle(0));
  const auto tree = graph::bfs_tree(g, 0);
  for (graph::NodeId u = 0; u < 60; ++u) {
    const auto a = decode_cen_advice(inst.advice(u));
    EXPECT_EQ(a.has_parent, tree.parent[u] != graph::kInvalidNode);
    if (a.has_parent) {
      EXPECT_EQ(inst.port_to_neighbor(u, a.parent), tree.parent[u]);
    }
    EXPECT_EQ(a.has_first_child, !tree.children[u].empty());
    if (a.has_first_child) {
      const graph::NodeId fc = inst.port_to_neighbor(u, a.first_child);
      EXPECT_EQ(tree.parent[fc], u);
    }
  }
}

TEST(ChildEncoding, UpwardWakePropagatesToRoot) {
  // Waking a deep leaf must wake the root through kCenWakeParent chain.
  const auto g = graph::path(30);
  const auto inst = advised_instance(g);
  const auto result = test::run_async_unit(inst, sim::wake_single(29),
                                           child_encoding_kernel());
  EXPECT_TRUE(result.all_awake());
  EXPECT_LE(result.wakeup_span(), 40u);
}

TEST(ChildEncoding, CongestSafe) {
  const auto g = graph::star(500);
  const auto inst = advised_instance(g);
  EXPECT_NO_THROW(test::run_async_unit(inst, sim::wake_single(123),
                                       child_encoding_kernel()));
}

TEST(ChildEncoding, RobustUnderAdversarialDelays) {
  Rng rng(4);
  const auto g = graph::connected_gnp(80, 0.06, rng);
  const auto inst = advised_instance(g);
  const auto delays = sim::random_delay(6, 5150);
  const auto result = sim::run_async(inst, *delays, sim::wake_set({10, 70}),
                                     3, child_encoding_kernel());
  EXPECT_TRUE(result.all_awake());
}

}  // namespace
}  // namespace rise::advice
