#include "advice/sqrt_threshold.hpp"

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
  apply_oracle(inst, *sqrt_threshold_oracle());
  return inst;
}

TEST(SqrtThreshold, WakesAllOnCatalog) {
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.25, rng);
    const auto result =
        test::run_async_unit(inst, schedule, sqrt_threshold_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(SqrtThreshold, TimeBoundedByDiameter) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto result = test::run_async_unit(inst, sim::wake_single(0),
                                             sqrt_threshold_kernel());
    ASSERT_TRUE(result.all_awake()) << name;
    EXPECT_LE(result.wakeup_span(), 2ull * graph::diameter(g) + 1) << name;
  }
}

TEST(SqrtThreshold, MessageBoundN32) {
  // Theorem 5(A): O(n^{3/2}) messages.
  Rng rng(2);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = advised_instance(g);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.5, rng);
    const auto result =
        test::run_async_unit(inst, schedule, sqrt_threshold_kernel());
    const double n = g.num_nodes();
    EXPECT_LE(static_cast<double>(result.metrics.messages),
              3.0 * std::pow(n, 1.5) + 2 * n)
        << name;
  }
}

TEST(SqrtThreshold, MaxAdviceSqrtNLogN) {
  Rng rng(3);
  const graph::NodeId n = 400;
  const auto g = graph::connected_gnp(n, 0.05, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  const auto stats = apply_oracle(inst, *sqrt_threshold_oracle());
  const double bound = 3.0 * std::sqrt(static_cast<double>(n)) *
                       std::log2(static_cast<double>(n));
  EXPECT_LT(static_cast<double>(stats.max_bits), bound);
  EXPECT_LT(stats.avg_bits, 4.0 * std::log2(static_cast<double>(n)));
}

TEST(SqrtThreshold, StarHubGetsOneBit) {
  // The hub has ~n tree children > sqrt(n): its advice is the single
  // "broadcast" bit.
  const auto g = graph::star(100);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  apply_oracle(inst, *sqrt_threshold_oracle());
  EXPECT_EQ(inst.advice(0).size(), 1u);
  EXPECT_TRUE(inst.advice(0).get(0));
  // And waking a leaf still wakes everyone through the hub broadcast.
  const auto result = test::run_async_unit(inst, sim::wake_single(17),
                                           sqrt_threshold_kernel());
  EXPECT_TRUE(result.all_awake());
}

TEST(SqrtThreshold, HighDegreeNodeCountIsSqrtBounded) {
  // There can be at most ~sqrt(n) high-degree tree nodes; verify via
  // advice sizes (high nodes have 1-bit advice but broadcast deg messages).
  Rng rng(4);
  const graph::NodeId n = 256;
  const auto g = graph::connected_gnp(n, 0.1, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  apply_oracle(inst, *sqrt_threshold_oracle());
  std::size_t high = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    if (inst.advice(u).size() == 1 && inst.advice(u).get(0)) ++high;
  }
  EXPECT_LE(high, 2u * static_cast<std::size_t>(std::sqrt(n)) + 1);
}

}  // namespace
}  // namespace rise::advice
