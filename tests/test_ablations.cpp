// The ablation variants must stay *correct* (they still solve wake-up) while
// exhibiting exactly the complexity degradation the design analysis
// predicts.
#include <gtest/gtest.h>

#include "advice/child_encoding.hpp"
#include "algo/ranked_dfs.hpp"
#include "test_util.hpp"

namespace rise {
namespace {

using sim::Knowledge;

TEST(NoDiscardDfs, StillWakesEveryone) {
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.3, rng);
    const auto result = test::run_async_unit(
        inst, schedule, algo::ranked_dfs_no_discard_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(NoDiscardDfs, MessagesBlowUpWithAwakeSetSize) {
  Rng rng(2);
  const graph::NodeId n = 150;
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto schedule = sim::wake_random_subset(n, 0.5, rng);
  const auto with = test::run_async_unit(inst, schedule,
                                         algo::ranked_dfs_kernel(), 3);
  const auto without = test::run_async_unit(
      inst, schedule, algo::ranked_dfs_no_discard_kernel(), 3);
  // Every surviving token does a full Theta(n) DFS without discarding.
  EXPECT_GT(without.metrics.messages, 4 * with.metrics.messages);
  EXPECT_GT(without.metrics.messages,
            schedule.wakes.size() * static_cast<std::uint64_t>(n) / 2);
}

TEST(CenChain, StillWakesEveryone) {
  Rng rng(3);
  for (const auto& [name, g] : test::graph_catalog()) {
    auto inst =
        test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
    advice::apply_oracle(inst, *advice::child_encoding_oracle(0, 1));
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.2, rng);
    const auto result = test::run_async_unit(
        inst, schedule, advice::child_encoding_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(CenChain, ChainAdviceHasNoSecondSibling) {
  const auto g = graph::star(64);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::child_encoding_oracle(0, 1));
  for (graph::NodeId u = 1; u < 64; ++u) {
    const auto a = advice::decode_cen_advice(inst.advice(u));
    EXPECT_FALSE(a.has_next_b) << u;
  }
}

TEST(CenChain, LatencyDegradesToDegree) {
  const graph::NodeId n = 129;
  const auto g = graph::star(n);
  auto chain = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  auto binary = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(chain, *advice::child_encoding_oracle(0, 1));
  advice::apply_oracle(binary, *advice::child_encoding_oracle(0, 2));
  const auto chain_run = test::run_async_unit(
      chain, sim::wake_single(0), advice::child_encoding_kernel());
  const auto binary_run = test::run_async_unit(
      binary, sim::wake_single(0), advice::child_encoding_kernel());
  ASSERT_TRUE(chain_run.all_awake());
  ASSERT_TRUE(binary_run.all_awake());
  // Linked list: 2 time units per child. Binary heap: ~2 log2(n).
  EXPECT_GE(chain_run.wakeup_span(), 2ull * (n - 1) - 2);
  EXPECT_LE(binary_run.wakeup_span(), 20u);
  // Same message bill either way.
  EXPECT_EQ(chain_run.metrics.messages, binary_run.metrics.messages);
}

}  // namespace
}  // namespace rise
