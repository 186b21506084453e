#include "graph/spanner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "advice/spanner_scheme.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/high_girth.hpp"

namespace rise::graph {
namespace {

TEST(Spanner, K1IsIdentity) {
  const Graph g = complete(10);
  const Graph s = greedy_spanner(g, 1);
  EXPECT_EQ(s.num_edges(), g.num_edges());
}

TEST(Spanner, TreeIsItsOwnSpanner) {
  Rng rng(1);
  const Graph g = random_tree(50, rng);
  const Graph s = greedy_spanner(g, 3);
  EXPECT_EQ(s.num_edges(), g.num_edges());  // no edge is redundant in a tree
}

TEST(Spanner, CompleteGraphK2) {
  // A 3-spanner of K_n: the greedy spanner has girth > 4, so it keeps
  // far fewer than n^2 edges while preserving distances up to 3x.
  const Graph g = complete(40);
  const Graph s = greedy_spanner(g, 2);
  EXPECT_LT(s.num_edges(), g.num_edges() / 3);
  EXPECT_TRUE(verify_spanner(g, s, 3));
}

TEST(Spanner, StretchVerifiedAcrossWorkloads) {
  Rng rng(2);
  for (unsigned k : {2u, 3u, 4u}) {
    const Graph g = connected_gnp(80, 0.15, rng);
    const Graph s = greedy_spanner(g, k);
    EXPECT_TRUE(verify_spanner(g, s, 2 * k - 1))
        << "stretch violated for k=" << k;
    EXPECT_TRUE(is_connected(s));
  }
}

TEST(Spanner, GirthExceeds2k) {
  // The defining property of the greedy spanner.
  Rng rng(3);
  const Graph g = connected_gnp(70, 0.2, rng);
  for (unsigned k : {2u, 3u}) {
    const Graph s = greedy_spanner(g, k);
    const auto gi = girth(s);
    EXPECT_TRUE(gi == kUnreachable || gi > 2 * k)
        << "girth " << gi << " for k=" << k;
  }
}

TEST(Spanner, EdgeCountBound) {
  // |E(S)| <= n^{1+1/k} + n (girth argument).
  Rng rng(4);
  const Graph g = connected_gnp(100, 0.3, rng);
  for (unsigned k : {2u, 3u, 4u}) {
    const Graph s = greedy_spanner(g, k);
    const double n = 100;
    EXPECT_LE(static_cast<double>(s.num_edges()),
              std::pow(n, 1.0 + 1.0 / k) + n);
  }
}

TEST(Spanner, PreservesConnectivityOnSparseGraphs) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = connected_gnp(60, 0.05, rng);
    const Graph s = greedy_spanner(g, 5);
    EXPECT_TRUE(is_connected(s));
  }
}

TEST(VerifySpanner, RejectsNonSubgraph) {
  const Graph g = path(4);
  const Graph s = Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 3}});  // 0-3 not in g
  EXPECT_FALSE(verify_spanner(g, s, 3));
}

TEST(VerifySpanner, RejectsExcessiveStretch) {
  const Graph g = cycle(12);
  // Remove one edge: stretch for that edge becomes 11.
  std::vector<Edge> edges = g.edge_list();
  edges.pop_back();
  const Graph s = Graph::from_edges(12, std::move(edges));
  EXPECT_FALSE(verify_spanner(g, s, 3));
  EXPECT_TRUE(verify_spanner(g, s, 11));
}

// ---- reference: the depth-bounded BFS the library used before ----------
//
// One forward BFS per query with a fresh deque; a stamp encodes the query's
// generation plus the node's depth. Kept here, unoptimized, as the
// definition the bidirectional search in spanner.cpp must reproduce.

bool reference_within(const std::vector<std::vector<NodeId>>& adj,
                      NodeId source, NodeId target, std::uint32_t limit,
                      std::vector<std::uint32_t>& dist,
                      std::uint32_t generation) {
  if (source == target) return true;
  std::deque<NodeId> queue{source};
  dist[source] = generation;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const std::uint32_t du = dist[u] - generation;
    if (du >= limit) continue;
    for (NodeId v : adj[u]) {
      if (dist[v] >= generation) continue;
      if (v == target) return true;
      dist[v] = generation + du + 1;
      queue.push_back(v);
    }
  }
  return false;
}

std::vector<Edge> reference_greedy_spanner(const Graph& g, unsigned k) {
  if (k == 1) return g.edge_list();
  const std::uint32_t stretch = 2 * k - 1;
  std::vector<std::vector<NodeId>> adj(g.num_nodes());
  std::vector<Edge> kept;
  std::vector<std::uint32_t> dist(g.num_nodes(), 0);
  std::uint32_t generation = 0;
  g.for_each_edge([&](NodeId u, NodeId v) {
    generation += stretch + 2;
    if (!reference_within(adj, u, v, stretch, dist, generation)) {
      adj[u].push_back(v);
      adj[v].push_back(u);
      kept.push_back({u, v});
    }
  });
  return kept;
}

bool reference_verify_spanner(const Graph& g, const Graph& spanner,
                              unsigned stretch) {
  if (spanner.num_nodes() != g.num_nodes()) return false;
  bool ok = true;
  spanner.for_each_edge([&](NodeId u, NodeId v) {
    if (!g.has_edge(u, v)) ok = false;
  });
  if (!ok) return false;
  std::vector<std::vector<NodeId>> adj(g.num_nodes());
  spanner.for_each_edge([&](NodeId u, NodeId v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  });
  std::vector<std::uint32_t> dist(g.num_nodes(), 0);
  std::uint32_t generation = 0;
  g.for_each_edge([&](NodeId u, NodeId v) {
    if (!ok) return;
    generation += stretch + 2;
    if (!reference_within(adj, u, v, stretch, dist, generation)) ok = false;
  });
  return ok;
}

struct NamedGraph {
  std::string name;
  Graph g;
};

std::vector<NamedGraph> equality_graphs() {
  Rng rng(17);
  std::vector<NamedGraph> out;
  out.push_back({"cgnp_200", connected_gnp(200, 0.04, rng)});
  out.push_back({"cgnp_1000", connected_gnp(1000, 0.008, rng)});
  out.push_back({"gnp_600_0.15", connected_gnp(600, 0.15, rng)});
  out.push_back({"grid_12x15", grid(12, 15)});
  out.push_back({"cycle_31", cycle(31)});
  out.push_back({"path_25", path(25)});
  out.push_back({"star_40", star(40)});
  out.push_back({"complete_30", complete(30)});
  out.push_back({"edgeless_9", Graph::from_edges(9, {})});
  out.push_back({"d3_q7", lazebnik_ustimenko_d(3, 7).graph});
  return out;
}

/// k = 1..5 plus Corollary 2's k for this graph's n.
std::vector<unsigned> equality_ks(NodeId n) {
  return {1u, 2u, 3u, 4u, 5u, advice::corollary2_k(n)};
}

TEST(Spanner, MatchesTheDepthBoundedBfsEdgeForEdge) {
  for (const auto& [name, g] : equality_graphs()) {
    for (const unsigned k : equality_ks(g.num_nodes())) {
      const Graph s = greedy_spanner(g, k);
      EXPECT_EQ(s.edge_list(), reference_greedy_spanner(g, k))
          << name << " k=" << k;
    }
  }
}

// n = 10^4 at Corollary 2's k = 14 (stretch 27) is where stamps that pack a
// depth next to the query's epoch alias: such a search returned a different
// edge list here. k = 4 and 5 are left out only because the reference BFS
// needs ~4 s for each of them at this size.
TEST(Spanner, MatchesTheDepthBoundedBfsAtTenThousandNodes) {
  Rng rng(18);
  const Graph g = connected_gnp(10000, 0.0008, rng);
  for (const unsigned k : {1u, 2u, 3u, advice::corollary2_k(g.num_nodes())}) {
    const Graph s = greedy_spanner(g, k);
    EXPECT_EQ(s.edge_list(), reference_greedy_spanner(g, k)) << "k=" << k;
  }
}

TEST(VerifySpanner, VerdictsMatchTheDepthBoundedBfs) {
  for (const auto& [name, g] : equality_graphs()) {
    for (const unsigned k : equality_ks(g.num_nodes())) {
      const Graph s = greedy_spanner(g, k);
      std::vector<Graph> candidates{s};
      // Drop one spanner edge at a few positions: stretch usually breaks.
      const std::vector<Edge> edges = s.edge_list();
      for (std::size_t i = 0; i < edges.size();
           i += std::max<std::size_t>(1, edges.size() / 3)) {
        std::vector<Edge> fewer = edges;
        fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
        candidates.push_back(Graph::from_edges(g.num_nodes(), fewer));
      }
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        for (const unsigned stretch : {1u, 2u, 2 * k - 1, 2 * k + 1}) {
          EXPECT_EQ(verify_spanner(g, candidates[c], stretch),
                    reference_verify_spanner(g, candidates[c], stretch))
              << name << " k=" << k << " candidate " << c
              << " stretch=" << stretch;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rise::graph
