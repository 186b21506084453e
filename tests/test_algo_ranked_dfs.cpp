#include "algo/ranked_dfs.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

TEST(RankedDfs, WakesAllFromSingleSource) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), ranked_dfs_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(RankedDfs, WakesAllFromManySources) {
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.3, rng);
    const auto result =
        test::run_async_unit(inst, schedule, ranked_dfs_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(RankedDfs, SurvivesStaggeredAdversary) {
  // The Sec. 3.1.1 stress: the adversary repeatedly wakes fresh batches
  // trying to dethrone the current maximum-rank token.
  Rng rng(2);
  const auto g = graph::connected_gnp(120, 0.05, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto schedule = sim::staggered_doubling(120, 30, 2.0, rng);
    const auto result =
        test::run_async_unit(inst, schedule, ranked_dfs_kernel(), seed);
    EXPECT_TRUE(result.all_awake());
  }
}

TEST(RankedDfs, MessageComplexityNearNLogN) {
  // Claim: O(n log n) messages w.h.p. even when everyone starts a token.
  Rng rng(3);
  const auto g = graph::connected_gnp(150, 0.08, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto result = test::run_async_unit(inst, sim::wake_all(150),
                                           ranked_dfs_kernel(), 11);
  EXPECT_TRUE(result.all_awake());
  const double n = 150;
  const double bound = 16.0 * n * std::log(n);
  EXPECT_LT(static_cast<double>(result.metrics.messages), bound);
}

TEST(RankedDfs, SingleSourceSendsAtMost2NMessages) {
  // One token, DFS tree traversal: <= 2(n-1) forwards (Claim 1).
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), ranked_dfs_kernel());
    EXPECT_LE(result.metrics.messages,
              2ull * (g.num_nodes() - 1))
        << name;
  }
}

TEST(RankedDfs, PerNodeTokenForwardsAreLogarithmic) {
  // Claim 4: each node forwards O(log n) distinct tokens w.h.p.
  Rng rng(4);
  const auto g = graph::connected_gnp(200, 0.04, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  RankedDfsProbe probe;
  probe.tokens_forwarded.assign(200, 0);
  const auto result = test::run_async_unit(
      inst, sim::wake_all(200), ranked_dfs_kernel(&probe), 21);
  EXPECT_TRUE(result.all_awake());
  const double bound = 12.0 * std::log(200.0);
  for (std::uint32_t count : probe.tokens_forwarded) {
    EXPECT_LT(count, bound);
  }
}

TEST(RankedDfs, MessageWokenNodesDontStartTokens) {
  // With a single adversary-woken node, exactly one token exists; the total
  // number of distinct tokens forwarded equals the nodes on its path.
  const auto g = graph::path(20);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  RankedDfsProbe probe;
  probe.tokens_forwarded.assign(20, 0);
  test::run_async_unit(inst, sim::wake_single(0),
                       ranked_dfs_kernel(&probe), 5);
  for (std::uint32_t count : probe.tokens_forwarded) {
    EXPECT_LE(count, 1u);
  }
}

TEST(RankedDfs, RobustUnderRandomDelays) {
  Rng rng(5);
  const auto g = graph::connected_gnp(60, 0.1, rng);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = sim::random_delay(5, 777);
  const auto schedule = sim::staggered_doubling(60, 11, 1.7, rng);
  const auto result = sim::run_async(inst, *delays, schedule, 3,
                                     ranked_dfs_kernel());
  EXPECT_TRUE(result.all_awake());
}

TEST(RankedDfs, LasVegasAcrossSeeds) {
  // Las Vegas: always correct, whatever the coin flips.
  Rng rng(6);
  const auto g = graph::lollipop(15, 15);
  const auto inst = test::make_instance(g, Knowledge::KT1);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = test::run_async_unit(
        inst, sim::wake_set({0, 5, 29}), ranked_dfs_kernel(), seed);
    EXPECT_TRUE(result.all_awake()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rise::algo
