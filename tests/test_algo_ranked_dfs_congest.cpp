#include "algo/ranked_dfs_congest.hpp"

#include <gtest/gtest.h>

#include "algo/ranked_dfs.hpp"
#include "graph/algorithms.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::algo {
namespace {

using sim::Knowledge;

TEST(RankedDfsCongest, WakesAllOnCatalog) {
  Rng rng(1);
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst =
        test::make_instance(g, Knowledge::KT1, sim::Bandwidth::CONGEST);
    const auto schedule = sim::wake_random_subset(g.num_nodes(), 0.3, rng);
    const auto result = test::run_async_unit(inst, schedule,
                                             ranked_dfs_congest_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(RankedDfsCongest, MessagesFitCongestBudget) {
  // The whole point of the variant: every message is O(log n) bits and the
  // CONGEST engine enforcement never fires.
  Rng rng(2);
  const auto g = graph::connected_gnp(100, 0.1, rng);
  const auto inst =
      test::make_instance(g, Knowledge::KT1, sim::Bandwidth::CONGEST);
  EXPECT_NO_THROW(test::run_async_unit(inst, sim::wake_all(100),
                                       ranked_dfs_congest_kernel()));
}

TEST(RankedDfsCongest, LocalVariantWouldViolateCongest) {
  // Contrast: the LOCAL token (full visited list) violates the budget.
  Rng rng(3);
  const auto g = graph::connected_gnp(100, 0.1, rng);
  const auto inst =
      test::make_instance(g, Knowledge::KT1, sim::Bandwidth::CONGEST);
  EXPECT_THROW(
      test::run_async_unit(inst, sim::wake_single(0), ranked_dfs_kernel()),
      CheckError);
}

TEST(RankedDfsCongest, SingleTokenCostsAtMostTwoM) {
  // Echo DFS: <= 2 messages per edge plus returns — Theta(m), not Theta(n).
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst =
        test::make_instance(g, Knowledge::KT1, sim::Bandwidth::CONGEST);
    const auto result = test::run_async_unit(inst, sim::wake_single(0),
                                             ranked_dfs_congest_kernel());
    ASSERT_TRUE(result.all_awake()) << name;
    EXPECT_LE(result.metrics.messages, 4 * g.num_edges()) << name;
  }
}

TEST(RankedDfsCongest, PaysThetaMWhereLocalPaysThetaN) {
  // The LOCAL/CONGEST message gap that explains why Theorem 3 is a LOCAL
  // result: on dense graphs the congest variant costs ~m while the LOCAL
  // token costs ~2n.
  Rng rng(4);
  const graph::NodeId n = 120;
  const auto g = graph::connected_gnp(n, 0.4, rng);
  const auto congest_inst =
      test::make_instance(g, Knowledge::KT1, sim::Bandwidth::CONGEST);
  const auto local_inst = test::make_instance(g, Knowledge::KT1);
  const auto c = test::run_async_unit(congest_inst, sim::wake_single(0),
                                      ranked_dfs_congest_kernel());
  const auto l = test::run_async_unit(local_inst, sim::wake_single(0),
                                      ranked_dfs_kernel());
  ASSERT_TRUE(c.all_awake());
  ASSERT_TRUE(l.all_awake());
  EXPECT_LE(l.metrics.messages, 2ull * n);
  EXPECT_GE(c.metrics.messages, g.num_edges());  // ~1 fwd per edge at least
  EXPECT_GT(c.metrics.messages, 5 * l.metrics.messages);
}

TEST(RankedDfsCongest, SurvivesStaggeredAdversary) {
  Rng rng(5);
  const auto g = graph::connected_gnp(80, 0.08, rng);
  const auto inst =
      test::make_instance(g, Knowledge::KT1, sim::Bandwidth::CONGEST);
  const auto schedule = sim::staggered_doubling(80, 20, 2.0, rng);
  const auto delays = sim::random_delay(4, 99);
  const auto result = sim::run_async(inst, *delays, schedule, 7,
                                     ranked_dfs_congest_kernel());
  EXPECT_TRUE(result.all_awake());
}

}  // namespace
}  // namespace rise::algo
