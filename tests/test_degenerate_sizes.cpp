// Degenerate-size sweep: every algorithm must behave on the tiniest legal
// networks (one node, one edge, tiny stars/triangles), where most index
// arithmetic and "first/next neighbor" logic is at its most fragile.
#include <gtest/gtest.h>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "advice/spanner_scheme.hpp"
#include "advice/sqrt_threshold.hpp"
#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "algo/ranked_dfs_congest.hpp"
#include "algo/sleeping.hpp"
#include "test_util.hpp"

namespace rise {
namespace {

using sim::Knowledge;

std::vector<test::NamedGraph> tiny_graphs() {
  std::vector<test::NamedGraph> out;
  out.push_back({"single_node", graph::Graph::from_edges(1, {})});
  out.push_back({"one_edge", graph::path(2)});
  out.push_back({"path_3", graph::path(3)});
  out.push_back({"triangle", graph::cycle(3)});
  out.push_back({"star_4", graph::star(4)});
  return out;
}

TEST(Degenerate, FloodingOnTinyGraphs) {
  for (const auto& [name, g] : tiny_graphs()) {
    const auto inst = test::make_instance(g, Knowledge::KT0);
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), algo::flooding_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
  }
}

TEST(Degenerate, RankedDfsOnTinyGraphs) {
  for (const auto& [name, g] : tiny_graphs()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result = test::run_async_unit(inst, sim::wake_single(0),
                                             algo::ranked_dfs_kernel());
    EXPECT_TRUE(result.all_awake()) << name;
    const auto congest_inst =
        test::make_instance(g, Knowledge::KT1, sim::Bandwidth::CONGEST);
    const auto cresult = test::run_async_unit(
        congest_inst, sim::wake_single(0), algo::ranked_dfs_congest_kernel());
    EXPECT_TRUE(cresult.all_awake()) << name;
  }
}

TEST(Degenerate, LeaderElectionOnTinyGraphs) {
  for (const auto& [name, g] : tiny_graphs()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    const auto result = test::run_async_unit(
        inst, sim::wake_all(g.num_nodes()), algo::ranked_dfs_leader_kernel());
    ASSERT_TRUE(result.all_awake()) << name;
    for (auto out : result.outputs) {
      EXPECT_EQ(out, result.outputs[0]) << name;
      EXPECT_NE(out, sim::kNoOutput) << name;
    }
  }
}

TEST(Degenerate, FastWakeupOnTinyGraphs) {
  for (const auto& [name, g] : tiny_graphs()) {
    const auto inst = test::make_instance(g, Knowledge::KT1);
    for (std::uint64_t seed : {1ull, 2ull}) {
      const auto result =
          sim::run_sync(inst, sim::wake_single(0), seed,
                        algo::fast_wakeup_kernel());
      EXPECT_TRUE(result.all_awake()) << name << " seed " << seed;
    }
  }
}

sim::SyncRunLimits sleeping_limits() {
  sim::SyncRunLimits limits;
  limits.sleeping_model = true;
  return limits;
}

TEST(Degenerate, SleepingFamiliesOnTinyGraphs) {
  for (const auto& [name, g] : tiny_graphs()) {
    const auto inst =
        test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
    for (std::uint64_t seed : {1ull, 2ull}) {
      const auto mis =
          sim::run_sync(inst, sim::wake_single(0), seed,
                        algo::sleeping_mis_kernel(), sleeping_limits());
      EXPECT_TRUE(mis.all_awake()) << name << " seed " << seed;
      // A single node hears all of its zero ports and joins the MIS.
      if (g.num_nodes() == 1) {
        EXPECT_EQ(mis.outputs[0], 1u) << name;
      }
      for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
        EXPECT_TRUE(mis.outputs[u] == 0 || mis.outputs[u] == 1)
            << name << " node " << u;
        EXPECT_GE(mis.awake_rounds[u], 1u) << name << " node " << u;
      }

      const auto match =
          sim::run_sync(inst, sim::wake_single(0), seed,
                        algo::sleeping_matching_kernel(), sleeping_limits());
      EXPECT_TRUE(match.all_awake()) << name << " seed " << seed;
      // A single node has no live ports and decides maximally unmatched.
      if (g.num_nodes() == 1) {
        EXPECT_EQ(match.outputs[0], inst.label(0)) << name;
      }
      // On one edge the pair must match each other: neither node has an
      // unmatched neighbor to hide behind.
      if (name == "one_edge") {
        EXPECT_EQ(match.outputs[0], inst.label(1)) << name;
        EXPECT_EQ(match.outputs[1], inst.label(0)) << name;
      }
    }
  }
}

TEST(Degenerate, SleepingFamiliesOnDisconnectedRegularGraphs) {
  // regular:N:2 unions of cycles are the one disconnected shape the fuzzer's
  // graph grammar emits; the adversary must wake each component separately,
  // and never-woken components produce no output.
  const auto g = graph::Graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const auto inst =
      test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);

  // Both components woken: every node decides, each triangle independently.
  sim::WakeSchedule both;
  both.wakes = {{0, 0}, {9, 3}};
  const auto full = sim::run_sync(inst, both, 4, algo::sleeping_mis_kernel(),
                                  sleeping_limits());
  EXPECT_TRUE(full.all_awake());
  for (graph::NodeId base : {0u, 3u}) {
    std::uint64_t in_mis = 0;
    for (graph::NodeId u = base; u < base + 3; ++u) in_mis += full.outputs[u];
    EXPECT_EQ(in_mis, 1u) << "triangle at " << base;
  }

  // Only one component woken: the other never wakes (waking spontaneously
  // would break the wake-up model) and keeps kNoOutput.
  const auto half =
      sim::run_sync(inst, sim::wake_single(0), 4,
                    algo::sleeping_matching_kernel(), sleeping_limits());
  EXPECT_FALSE(half.all_awake());
  for (graph::NodeId u = 3; u < 6; ++u) {
    EXPECT_EQ(half.wake_time[u], sim::kNever) << u;
    EXPECT_EQ(half.outputs[u], sim::kNoOutput) << u;
    EXPECT_EQ(half.awake_rounds[u], 0u) << u;
  }
  // The woken triangle still produces a maximal matching among itself: one
  // matched pair plus one unmatched node.
  std::uint64_t unmatched = 0;
  for (graph::NodeId u = 0; u < 3; ++u) {
    unmatched += half.outputs[u] == inst.label(u) ? 1 : 0;
  }
  EXPECT_EQ(unmatched, 1u);
}

TEST(Degenerate, AdviceSchemesOnTinyGraphs) {
  for (const auto& [name, g] : tiny_graphs()) {
    struct S {
      const char* name;
      advice::AdvisingScheme scheme;
    };
    std::vector<S> schemes;
    schemes.push_back({"fip06", advice::fip06_scheme()});
    schemes.push_back({"sqrt", advice::sqrt_threshold_scheme()});
    schemes.push_back({"cen", advice::child_encoding_scheme()});
    schemes.push_back({"spanner2", advice::spanner_scheme(2)});
    for (auto& [sname, scheme] : schemes) {
      auto inst =
          test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
      advice::apply_oracle(inst, *scheme.oracle);
      const auto result =
          test::run_async_unit(inst, sim::wake_single(0),
                                                      scheme.algorithm);
      EXPECT_TRUE(result.all_awake()) << name << "/" << sname;
    }
  }
}

TEST(Degenerate, SingleNodeSendsNothing) {
  const auto g = graph::Graph::from_edges(1, {});
  const auto inst = test::make_instance(g, Knowledge::KT1);
  for (const auto& kernel :
       {algo::flooding_kernel(), algo::ranked_dfs_kernel()}) {
    const auto result =
        test::run_async_unit(inst, sim::wake_single(0), kernel);
    EXPECT_TRUE(result.all_awake());
    EXPECT_EQ(result.metrics.messages, 0u);
  }
}

TEST(Degenerate, EmptyScheduleWakesNobody) {
  const auto g = graph::path(4);
  const auto inst = test::make_instance(g, Knowledge::KT0);
  const auto result = test::run_async_unit(inst, sim::WakeSchedule{},
                                           algo::flooding_kernel());
  EXPECT_EQ(result.awake_count(), 0u);
  EXPECT_EQ(result.metrics.messages, 0u);
}

TEST(Degenerate, AdversaryOnlyWakesDisconnectedPieces) {
  // Two components: flooding wakes one; the adversary must handle the other.
  const auto g = graph::Graph::from_edges(4, {{0, 1}, {2, 3}});
  const auto inst = test::make_instance(g, Knowledge::KT0);
  sim::WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {7, 2}};
  const auto result =
      test::run_async_unit(inst, schedule, algo::flooding_kernel());
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(result.wake_time[1], 1u);
  EXPECT_EQ(result.wake_time[2], 7u);
  EXPECT_EQ(result.wake_time[3], 8u);
}

}  // namespace
}  // namespace rise
