// Trace-powered structural properties: where messages are *allowed* to
// travel. Advice schemes must confine traffic to the subgraph their oracle
// encoded (tree edges / spanner edges); these are exactly the invariants
// their message-complexity bounds rest on.
#include <gtest/gtest.h>

#include <set>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "advice/spanner_scheme.hpp"
#include "advice/sqrt_threshold.hpp"
#include "graph/algorithms.hpp"
#include "graph/spanner.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"

namespace rise {
namespace {

using sim::Knowledge;

std::set<std::pair<graph::NodeId, graph::NodeId>> tree_edge_set(
    const graph::BfsTree& tree) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> out;
  for (graph::NodeId u = 0; u < tree.parent.size(); ++u) {
    if (tree.parent[u] != graph::kInvalidNode) {
      const auto p = tree.parent[u];
      out.insert(u < p ? std::make_pair(u, p) : std::make_pair(p, u));
    }
  }
  return out;
}

TEST(TraceProperties, Fip06TrafficStaysOnTreeEdges) {
  Rng rng(1);
  const auto g = graph::connected_gnp(60, 0.15, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::fip06_oracle(0));
  const auto tree_edges = tree_edge_set(graph::bfs_tree(g, 0));
  sim::EdgeUsageSink sink;
  const auto delays = sim::unit_delay();
  const auto result = sim::run_async(inst, *delays, sim::wake_set({5, 40}),
                                     1, advice::fip06_kernel(), {}, &sink);
  ASSERT_TRUE(result.all_awake());
  for (const auto& e : sink.used_edges()) {
    EXPECT_TRUE(tree_edges.count(e))
        << "non-tree edge {" << e.first << "," << e.second << "} used";
  }
}

TEST(TraceProperties, Fip06SingleSourceUsesEveryTreeEdge) {
  Rng rng(2);
  const auto g = graph::connected_gnp(50, 0.1, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::fip06_oracle(0));
  const auto tree_edges = tree_edge_set(graph::bfs_tree(g, 0));
  sim::EdgeUsageSink sink;
  const auto delays = sim::unit_delay();
  sim::run_async(inst, *delays, sim::wake_single(0), 1,
                 advice::fip06_kernel(), {}, &sink);
  EXPECT_EQ(sink.used_edges(), tree_edges);  // exactly the tree
}

TEST(TraceProperties, CenTrafficStaysOnTreeEdges) {
  Rng rng(3);
  const auto g = graph::connected_gnp(70, 0.1, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::child_encoding_oracle(0));
  const auto tree_edges = tree_edge_set(graph::bfs_tree(g, 0));
  sim::EdgeUsageSink sink;
  const auto delays = sim::unit_delay();
  const auto result =
      sim::run_async(inst, *delays, sim::wake_set({10, 60}), 1,
                     advice::child_encoding_kernel(), {}, &sink);
  ASSERT_TRUE(result.all_awake());
  for (const auto& e : sink.used_edges()) {
    EXPECT_TRUE(tree_edges.count(e))
        << "non-tree edge {" << e.first << "," << e.second << "} used";
  }
}

TEST(TraceProperties, SpannerTrafficStaysOnSpannerEdges) {
  Rng rng(4);
  const auto g = graph::connected_gnp(80, 0.2, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::spanner_oracle(3));
  const auto spanner = graph::greedy_spanner(g, 3);
  std::set<std::pair<graph::NodeId, graph::NodeId>> spanner_edges;
  for (const auto& e : spanner.edge_list()) spanner_edges.insert({e.u, e.v});
  sim::EdgeUsageSink sink;
  const auto delays = sim::unit_delay();
  const auto result = sim::run_async(inst, *delays, sim::wake_all(80), 1,
                                     advice::spanner_kernel(), {}, &sink);
  ASSERT_TRUE(result.all_awake());
  for (const auto& e : sink.used_edges()) {
    EXPECT_TRUE(spanner_edges.count(e))
        << "non-spanner edge {" << e.first << "," << e.second << "} used";
  }
  // And the spanner is genuinely exercised: a constant fraction of its
  // edges carries traffic when everyone wakes.
  EXPECT_GE(sink.used_edges().size(), spanner_edges.size() / 2);
}

TEST(TraceProperties, SqrtSchemeHighDegreeNodesAreTheOnlyBroadcasters) {
  // On a star the hub broadcasts (all edges used from the hub) but the
  // leaves send only their single tree port — total usage equals the edge
  // set exactly, with no duplicates possible.
  const auto g = graph::star(40);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::sqrt_threshold_oracle());
  sim::EdgeUsageSink sink;
  const auto delays = sim::unit_delay();
  const auto result = sim::run_async(inst, *delays, sim::wake_single(3), 1,
                                     advice::sqrt_threshold_kernel(), {},
                                     &sink);
  ASSERT_TRUE(result.all_awake());
  EXPECT_EQ(sink.used_edges().size(), g.num_edges());
}

}  // namespace
}  // namespace rise
