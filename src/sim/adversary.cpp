#include "sim/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "graph/algorithms.hpp"
#include "support/check.hpp"

namespace rise::sim {

std::vector<NodeId> WakeSchedule::nodes_at_time_zero() const {
  std::vector<NodeId> out;
  for (const auto& [t, u] : wakes)
    if (t == 0) out.push_back(u);
  return out;
}

std::vector<NodeId> WakeSchedule::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(wakes.size());
  for (const auto& [t, u] : wakes) out.push_back(u);
  return out;
}

Time WakeSchedule::earliest() const {
  Time best = kNever;
  for (const auto& [t, u] : wakes) best = std::min(best, t);
  return best;
}

WakeSchedule wake_all(NodeId n) {
  WakeSchedule s;
  s.wakes.reserve(n);
  for (NodeId u = 0; u < n; ++u) s.wakes.push_back({0, u});
  return s;
}

WakeSchedule wake_single(NodeId node) {
  return WakeSchedule{{{Time{0}, node}}};
}

WakeSchedule wake_set(std::vector<NodeId> nodes) {
  WakeSchedule s;
  s.wakes.reserve(nodes.size());
  for (NodeId u : nodes) s.wakes.push_back({0, u});
  return s;
}

WakeSchedule wake_random_subset(NodeId n, double p, Rng& rng) {
  RISE_CHECK(n >= 1);
  WakeSchedule s;
  for (NodeId u = 0; u < n; ++u)
    if (rng.chance(p)) s.wakes.push_back({0, u});
  if (s.wakes.empty()) s.wakes.push_back({0, 0});
  return s;
}

WakeSchedule staggered_doubling(NodeId n, Time gap, double growth, Rng& rng) {
  RISE_CHECK(n >= 1);
  RISE_CHECK(growth >= 1.0);
  auto order = rng.permutation(n);
  WakeSchedule s;
  std::size_t next = 0;
  double batch = 1.0;
  Time t = 0;
  // batch is clamped at n: a larger batch never wakes more nodes than
  // remain, and without the clamp a big growth factor (or many iterations)
  // overflows batch to inf, making std::llround undefined.
  const double max_batch = static_cast<double>(order.size());
  while (next < order.size()) {
    const auto count =
        std::min<std::size_t>(order.size() - next,
                              static_cast<std::size_t>(std::llround(batch)));
    for (std::size_t i = 0; i < count; ++i) {
      s.wakes.push_back({t, order[next++]});
    }
    t += gap;
    batch = std::min(batch * growth, max_batch);
  }
  return s;
}

WakeSchedule dominating_set_wakeup(const graph::Graph& g) {
  const NodeId n = g.num_nodes();
  // Greedy max-coverage: repeatedly pick the node whose closed
  // neighbourhood holds the most undominated nodes, ties to the smallest
  // id. Gains only fall, so a max-heap whose stale entries are re-keyed
  // when they surface makes the same picks as rescanning every node per
  // pick, in O(m log n) instead of O(n * picks).
  std::vector<bool> dominated(n, false);
  std::vector<std::size_t> gain(n);
  using Entry = std::pair<std::size_t, NodeId>;
  const auto lower = [](const Entry& a, const Entry& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(lower)> heap(lower);
  for (NodeId u = 0; u < n; ++u) {
    gain[u] = 1 + g.neighbors(u).size();
    heap.emplace(gain[u], u);
  }
  const auto dominate = [&](NodeId x) {
    if (dominated[x]) return;
    dominated[x] = true;
    --gain[x];
    for (NodeId w : g.neighbors(x)) --gain[w];
  };
  std::vector<NodeId> set;
  while (!heap.empty()) {
    const auto [stored, u] = heap.top();
    heap.pop();
    if (stored != gain[u]) {
      if (gain[u] > 0) heap.emplace(gain[u], u);
      continue;
    }
    if (stored == 0) break;
    set.push_back(u);
    dominate(u);
    for (NodeId v : g.neighbors(u)) dominate(v);
  }
  return wake_set(std::move(set));
}

std::uint32_t schedule_awake_distance(const graph::Graph& g,
                                      const WakeSchedule& schedule) {
  return graph::awake_distance(g, schedule.all_nodes());
}

}  // namespace rise::sim
