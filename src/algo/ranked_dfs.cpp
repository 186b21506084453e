#include "algo/ranked_dfs.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Message;
using sim::Port;

// Token payload: [rank, origin_label, visited_count, visited labels...].
struct TokenView {
  std::uint64_t rank;
  Label origin;
  std::vector<Label> visited;
};

Message encode_token(std::uint64_t rank, Label origin,
                     const std::vector<Label>& visited, unsigned label_bits,
                     unsigned rank_bits) {
  sim::PayloadWords payload;
  payload.reserve(3 + visited.size());
  payload.push_back(rank);
  payload.push_back(origin);
  payload.push_back(visited.size());
  payload.append(visited.begin(), visited.end());
  // Logical size: rank + origin + the full visited list (LOCAL model).
  const std::uint64_t bits =
      rank_bits + label_bits * (1 + visited.size()) + 32;
  return sim::make_message(kDfsToken, std::move(payload), bits);
}

TokenView decode_token(const Message& msg) {
  RISE_CHECK(msg.type == kDfsToken && msg.payload.size() >= 3);
  TokenView t;
  t.rank = msg.payload[0];
  t.origin = msg.payload[1];
  const std::uint64_t count = msg.payload[2];
  RISE_CHECK(msg.payload.size() == 3 + count);
  t.visited.assign(msg.payload.begin() + 3, msg.payload.end());
  return t;
}

/// One algorithm type for all three factories: `discard_losers` off is the
/// ablation, `elect` on adds the leader-announce pass.
struct RankedDfs {
  RankedDfsProbe* probe;
  unsigned rank_bits;
  bool discard_losers;
  bool elect;

  struct TokenState {
    Port parent_port = sim::kInvalidPort;
  };

  struct State {
    sim::NodeId node = sim::kInvalidNode;  ///< engine id, for `probe` only
    bool announced = false;
    TokenState leader_state;
    std::uint64_t rank = 0;
    std::pair<std::uint64_t, Label> best{0, 0};
    std::map<Label, TokenState> tokens;
    std::set<Label> forwarded_origins;
  };

  State make_state(sim::NodeId node) const {
    State self;
    self.node = node;
    return self;
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, State& self, sim::WakeCause cause) const {
    if (cause != sim::WakeCause::kAdversary) return;
    obs::NodeProbe obs_probe = ctx.probe();
    obs_probe.phase("dfs.launch");
    obs_probe.node_class("initiator");
    obs_probe.count("dfs.tokens_launched");
    // Draw a random rank from [n^c] (Sec. 3.1); nonzero so that the initial
    // "no token seen" state (0, 0) loses every comparison.
    const std::uint64_t rank_space = (std::uint64_t{1} << rank_bits) - 1;
    self.rank = 1 + ctx.rng().uniform(rank_space);
    self.best = {self.rank, ctx.my_label()};
    // Launch our own DFS token.
    std::vector<Label> visited{ctx.my_label()};
    TokenState& state = self.tokens[ctx.my_label()];
    state.parent_port = sim::kInvalidPort;
    advance_token(ctx, self, self.rank, ctx.my_label(), visited, state);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const Incoming& in) const {
    if (in.msg.type == kDfsLeader) {
      on_leader_token(ctx, self, in);
      return;
    }
    TokenView token = decode_token(in.msg);
    ctx.probe().phase("dfs.token");
    const std::pair<std::uint64_t, Label> key{token.rank, token.origin};
    if (discard_losers && key < self.best) {  // case (b): discard
      ctx.probe().count("dfs.tokens_discarded");
      return;
    }
    self.best = std::max(self.best, key);

    TokenState& state = self.tokens[token.origin];
    const Label me = ctx.my_label();
    const bool first_visit =
        std::find(token.visited.begin(), token.visited.end(), me) ==
        token.visited.end();
    if (first_visit) {
      token.visited.push_back(me);  // case (a): append own ID
      state.parent_port = in.port;
      ctx.probe().count("dfs.first_visits");
      if (probe != nullptr) {
        if (self.forwarded_origins.insert(token.origin).second) {
          if (probe->tokens_forwarded.size() <= self.node) {
            probe->tokens_forwarded.resize(self.node + 1, 0);
          }
          ++probe->tokens_forwarded[self.node];
        }
      }
    }
    advance_token(ctx, self, token.rank, token.origin, token.visited, state);
  }

  /// Forwards the token to the first neighbor not yet visited; backtracks to
  /// the DFS parent when all neighbors are on the list; stops at the origin.
  template <class Ctx>
  void advance_token(Ctx& ctx, State& self, std::uint64_t rank, Label origin,
                     const std::vector<Label>& visited,
                     TokenState& state) const {
    const std::unordered_set<Label> visited_set(visited.begin(),
                                                visited.end());
    const auto labels = ctx.neighbor_labels();
    for (Port p = 0; p < labels.size(); ++p) {
      if (!visited_set.count(labels[p])) {
        ctx.send(p, encode_token(rank, origin, visited, ctx.label_bits(),
                                 rank_bits));
        return;
      }
    }
    if (state.parent_port != sim::kInvalidPort) {
      ctx.send(state.parent_port,
               encode_token(rank, origin, visited, ctx.label_bits(),
                            rank_bits));
      return;
    }
    // We are the origin and the DFS is complete. If electing, announce
    // ourselves as leader with a second DFS pass.
    if (elect && origin == ctx.my_label() && !self.announced) {
      self.announced = true;
      obs::NodeProbe obs_probe = ctx.probe();
      obs_probe.phase("dfs.announce");
      obs_probe.node_class("leader");
      obs_probe.count("dfs.leaders_announced");
      ctx.set_output(ctx.my_label());
      std::vector<Label> seen{ctx.my_label()};
      self.leader_state.parent_port = sim::kInvalidPort;
      advance_leader(ctx, self, ctx.my_label(), seen);
    }
  }

  /// The announce pass: same visited-list DFS mechanics, never discarded.
  template <class Ctx>
  void on_leader_token(Ctx& ctx, State& self, const Incoming& in) const {
    ctx.probe().phase("dfs.announce");
    RISE_CHECK(in.msg.payload.size() >= 2);
    const Label leader = in.msg.payload[0];
    const std::uint64_t count = in.msg.payload[1];
    RISE_CHECK(in.msg.payload.size() == 2 + count);
    std::vector<Label> visited(in.msg.payload.begin() + 2,
                               in.msg.payload.end());
    const Label me = ctx.my_label();
    if (std::find(visited.begin(), visited.end(), me) == visited.end()) {
      ctx.set_output(leader);
      visited.push_back(me);
      self.leader_state.parent_port = in.port;
    }
    advance_leader(ctx, self, leader, visited);
  }

  template <class Ctx>
  void advance_leader(Ctx& ctx, State& self, Label leader,
                      const std::vector<Label>& visited) const {
    const std::unordered_set<Label> visited_set(visited.begin(),
                                                visited.end());
    const auto labels = ctx.neighbor_labels();
    auto encode = [&] {
      sim::PayloadWords payload{leader, visited.size()};
      payload.append(visited.begin(), visited.end());
      return sim::make_message(
          kDfsLeader, std::move(payload),
          ctx.label_bits() * (2 + visited.size()) + 32);
    };
    for (Port p = 0; p < labels.size(); ++p) {
      if (!visited_set.count(labels[p])) {
        ctx.send(p, encode());
        return;
      }
    }
    if (self.leader_state.parent_port != sim::kInvalidPort) {
      ctx.send(self.leader_state.parent_port, encode());
    }
  }
};

RankedDfs configure(RankedDfsProbe* probe, unsigned rank_bits,
                    bool discard_losers, bool elect) {
  RISE_CHECK(rank_bits >= 8 && rank_bits <= 62);
  return {probe, rank_bits, discard_losers, elect};
}

}  // namespace

sim::ProcessFactory ranked_dfs_factory(RankedDfsProbe* probe,
                                       unsigned rank_bits) {
  return sim::process_factory(
      configure(probe, rank_bits, /*discard_losers=*/true, /*elect=*/false));
}

sim::ProcessFactory ranked_dfs_leader_factory(RankedDfsProbe* probe,
                                              unsigned rank_bits) {
  return sim::process_factory(
      configure(probe, rank_bits, /*discard_losers=*/true, /*elect=*/true));
}

sim::ProcessFactory ranked_dfs_no_discard_factory(RankedDfsProbe* probe,
                                                  unsigned rank_bits) {
  return sim::process_factory(
      configure(probe, rank_bits, /*discard_losers=*/false, /*elect=*/false));
}

sim::KernelRunner ranked_dfs_kernel(RankedDfsProbe* probe,
                                    unsigned rank_bits) {
  return sim::make_kernel(
      configure(probe, rank_bits, /*discard_losers=*/true, /*elect=*/false));
}

sim::KernelRunner ranked_dfs_leader_kernel(RankedDfsProbe* probe,
                                           unsigned rank_bits) {
  return sim::make_kernel(
      configure(probe, rank_bits, /*discard_losers=*/true, /*elect=*/true));
}

sim::KernelRunner ranked_dfs_no_discard_kernel(RankedDfsProbe* probe,
                                               unsigned rank_bits) {
  return sim::make_kernel(
      configure(probe, rank_bits, /*discard_losers=*/false, /*elect=*/false));
}

}  // namespace rise::algo
