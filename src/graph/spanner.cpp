#include "graph/spanner.hpp"

#include <span>
#include <vector>

#include "support/check.hpp"

namespace rise::graph {

namespace {

/// Answers "is dist_H(s, t) <= limit?" exactly by a bidirectional BFS: it
/// expands the smaller frontier one full level at a time and gives up once
/// the two sides' depths add up to `limit`. While the sides have not met,
/// each side's visited set is the full ball of its depth, so two balls whose
/// radii sum to dist(s, t) always intersect and the meeting is seen when the
/// second of the two stamps is written.
///
/// The two stamp arrays and frontiers are allocated once per object (one
/// greedy_spanner or verify_spanner call), not once per query. A stamp holds
/// only its query's epoch, never a depth (the depth of a side is its level
/// count), so stamps of different queries cannot alias at any limit; when
/// the 32-bit epoch wraps, both arrays are cleared.
class BoundedDistance {
 public:
  explicit BoundedDistance(NodeId n) : seen_{Stamps(n, 0), Stamps(n, 0)} {}

  /// `adj(u)` returns u's neighbours in H as a range of NodeId.
  template <class Adj>
  bool within(const Adj& adj, NodeId s, NodeId t, std::uint32_t limit) {
    if (s == t) return true;
    if (++epoch_ == 0) {
      for (Stamps& seen : seen_) seen.assign(seen.size(), 0);
      epoch_ = 1;
    }
    seen_[0][s] = epoch_;
    seen_[1][t] = epoch_;
    frontier_[0].assign(1, s);
    frontier_[1].assign(1, t);
    for (std::uint32_t depth = 0; depth < limit; ++depth) {
      const int side = frontier_[0].size() <= frontier_[1].size() ? 0 : 1;
      if (frontier_[side].empty()) return false;  // a whole component seen
      if (expand(adj, side, depth + 1 == limit)) return true;
    }
    return false;
  }

 private:
  using Stamps = std::vector<std::uint32_t>;

  /// Replaces `side`'s frontier with its next level; true once it touches
  /// the other side. On the last level only the meeting test is needed.
  template <class Adj>
  bool expand(const Adj& adj, int side, bool last) {
    Stamps& own = seen_[side];
    const Stamps& other = seen_[1 - side];
    next_.clear();
    for (const NodeId x : frontier_[side]) {
      for (const NodeId y : adj(x)) {
        if (other[y] == epoch_) return true;
        if (last || own[y] == epoch_) continue;
        own[y] = epoch_;
        next_.push_back(y);
      }
    }
    frontier_[side].swap(next_);
    return false;
  }

  Stamps seen_[2];
  std::vector<NodeId> frontier_[2];
  std::vector<NodeId> next_;
  std::uint32_t epoch_ = 0;
};

}  // namespace

Graph greedy_spanner(const Graph& g, unsigned k) {
  RISE_CHECK(k >= 1);
  if (k == 1) return g;
  const std::uint32_t stretch = 2 * k - 1;
  const NodeId n = g.num_nodes();
  // The spanner's adjacency grows inside g's CSR rows: u's kept neighbours
  // are the first size[u] entries of its row.
  const std::uint64_t* offsets = g.offsets_data();
  std::vector<NodeId> rows(2 * g.num_edges());
  std::vector<NodeId> size(n, 0);
  const auto adj = [&](NodeId u) {
    return std::span<const NodeId>(rows.data() + offsets[u], size[u]);
  };
  BoundedDistance query(n);
  std::vector<Edge> kept;
  g.for_each_edge([&](NodeId u, NodeId v) {
    if (query.within(adj, u, v, stretch)) return;
    rows[offsets[u] + size[u]++] = v;
    rows[offsets[v] + size[v]++] = u;
    kept.push_back({u, v});
  });
  return Graph::from_edges(n, std::move(kept));
}

bool verify_spanner(const Graph& g, const Graph& spanner, unsigned stretch) {
  if (spanner.num_nodes() != g.num_nodes()) return false;
  bool ok = true;
  spanner.for_each_edge([&](NodeId u, NodeId v) {
    if (!g.has_edge(u, v)) ok = false;
  });
  if (!ok) return false;
  // It suffices to check stretch on the edges of g.
  const auto adj = [&](NodeId u) { return spanner.neighbors(u); };
  BoundedDistance query(g.num_nodes());
  g.for_each_edge([&](NodeId u, NodeId v) {
    if (ok && !query.within(adj, u, v, stretch)) ok = false;
  });
  return ok;
}

}  // namespace rise::graph
