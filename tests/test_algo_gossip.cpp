#include "algo/gossip.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

TEST(PushGossip, SpreadsOnCompleteGraphQuickly) {
  const graph::NodeId n = 64;
  const auto g = graph::complete(n);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto result =
      sim::run_sync(inst, sim::wake_single(0), 5, push_gossip_kernel(200));
  EXPECT_TRUE(result.all_awake());
  // Push on K_n completes in O(log n) rounds w.h.p.; 60 is generous.
  EXPECT_LE(result.wakeup_span(), 60u);
}

TEST(PushGossip, RespectsRoundBudget) {
  const auto g = graph::complete(16);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto result =
      sim::run_sync(inst, sim::wake_single(0), 5, push_gossip_kernel(3));
  // Each awake node sends at most 3 pushes.
  for (std::uint32_t sent : result.metrics.sent_per_node) {
    EXPECT_LE(sent, 3u);
  }
}

TEST(PushGossip, Footnote3PendantIsSlow) {
  // Footnote 3: on K_{n-1} + pendant, push-only gossip needs Omega(n)
  // expected rounds to reach the pendant (only node 0 can push to it, with
  // probability 1/(n-1) per round).
  const graph::NodeId n = 48;
  const auto g = graph::complete_plus_pendant(n);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  double total_time = 0;
  int reached = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = sim::run_sync(inst, sim::wake_single(1), seed,
                                      push_gossip_kernel(4000));
    if (result.wake_time[n - 1] != sim::kNever) {
      ++reached;
      total_time += static_cast<double>(result.wake_time[n - 1]);
    }
  }
  ASSERT_GT(reached, 5);
  const double avg = total_time / reached;
  // Expected ~ (n-1) rounds once node 0 is informed; far beyond the
  // O(log n) bound that holds for the clique part.
  EXPECT_GT(avg, static_cast<double>(n) / 3.0);
}

TEST(PushGossip, CliquePartIsExponentiallyFasterThanPendant) {
  const graph::NodeId n = 48;
  const auto g = graph::complete_plus_pendant(n);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  double clique_done = 0, pendant_done = 0;
  int trials = 0;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const auto result = sim::run_sync(inst, sim::wake_single(1), seed,
                                      push_gossip_kernel(4000));
    if (!result.all_awake()) continue;
    ++trials;
    sim::Time clique_max = 0;
    for (graph::NodeId u = 0; u + 1 < n; ++u) {
      clique_max = std::max(clique_max, result.wake_time[u]);
    }
    clique_done += static_cast<double>(clique_max);
    pendant_done += static_cast<double>(result.wake_time[n - 1]);
  }
  ASSERT_GT(trials, 5);
  EXPECT_LT(clique_done / trials, pendant_done / trials / 2.0);
}

}  // namespace
}  // namespace rise::algo
