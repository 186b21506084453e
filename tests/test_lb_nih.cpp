#include "lb/nih.hpp"

#include <gtest/gtest.h>

#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "lb/time_restricted.hpp"
#include "sim/kernel.hpp"

namespace rise::lb {
namespace {

TEST(NihReduction, FloodingSolvesNihOnKt0Family) {
  // Lemma 1 applied to flooding: every center learns the matching port.
  Rng rng(1);
  const auto fam = make_kt0_family(12);
  const auto inst = make_kt0_instance(fam, rng);
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.centers_awake(), 5,
                     nih_reduction_kernel(algo::flooding_kernel()));
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, inst, fam), fam.n);
}

TEST(NihReduction, CostOverheadIsSmall) {
  // Lemma 1: +n messages, +1 time unit over the wake-up algorithm.
  Rng rng(2);
  const auto fam = make_kt0_family(10);
  const auto inst = make_kt0_instance(fam, rng);
  const auto delays = sim::unit_delay();
  const auto base = sim::run_async(inst, *delays, fam.centers_awake(), 5,
                                   algo::flooding_kernel());
  const auto wrapped =
      sim::run_async(inst, *delays, fam.centers_awake(), 5,
                     nih_reduction_kernel(algo::flooding_kernel()));
  EXPECT_LE(wrapped.metrics.messages, base.metrics.messages + fam.n);
  EXPECT_LE(wrapped.metrics.time_units(), base.metrics.time_units() + 1);
}

TEST(NihReduction, Kt1FamilyWithBroadcast) {
  // Centers broadcast (1 round); the reduction reports w_i's ID.
  Rng rng(3);
  const auto fam = make_kt1_family(3, 3);
  const auto inst = make_kt1_instance(fam.family, rng);
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.family.centers_awake(), 5,
                     nih_reduction_kernel(centers_broadcast_kernel()));
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, inst, fam.family), fam.family.n);
  // Outputs are the *labels* of the crucial neighbors under KT1.
  const auto expected = nih_expected_outputs(inst, fam.family);
  for (graph::NodeId i = 0; i < fam.family.n; ++i) {
    EXPECT_EQ(expected[i], inst.label(fam.family.w_node(i)));
  }
}

TEST(NihReduction, RankedDfsSolvesNihToo) {
  Rng rng(4);
  const auto fam = make_kt1_family(3, 3);
  const auto inst = make_kt1_instance(fam.family, rng);
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.family.centers_awake(), 5,
                     nih_reduction_kernel(algo::ranked_dfs_kernel()));
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, inst, fam.family), fam.family.n);
}

TEST(NihReduction, WorksUnderSyncEngine) {
  Rng rng(5);
  const auto fam = make_kt0_family(8);
  const auto inst = make_kt0_instance(fam, rng);
  const auto result =
      sim::run_sync(inst, fam.centers_awake(), 5,
                    nih_reduction_kernel(algo::flooding_kernel()));
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(nih_correct_count(result, inst, fam), fam.n);
}

TEST(NihReduction, IncompleteAlgorithmYieldsIncompleteOutputs) {
  // TTL-0 "algorithm" sends nothing: no center should produce an output.
  Rng rng(6);
  const auto fam = make_kt0_family(6);
  const auto inst = make_kt0_instance(fam, rng);
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, fam.centers_awake(), 5,
                     nih_reduction_kernel(ttl_flood_kernel(0)));
  EXPECT_EQ(nih_correct_count(result, inst, fam), 0u);
  EXPECT_FALSE(result.all_awake());
}

}  // namespace
}  // namespace rise::lb
