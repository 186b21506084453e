#include "algo/ranked_dfs.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Port;

/// A token's visited list, stored once for the whole walk. A token is a
/// single walker, so its list only ever grows and only its current holder
/// touches it: messages carry a handle to the log plus its length instead
/// of a copy, and each holder appends itself in place. Only membership and
/// the length are ever read, so the log is a flat open-addressing set of
/// labels (linear probing, load at most 1/2, kInvalidLabel marks a free
/// slot).
class VisitedLog {
 public:
  std::uint64_t size() const { return size_; }

  bool contains(Label label) const {
    if (slots_.empty()) return false;
    for (std::size_t i = home(label);; i = (i + 1) & mask()) {
      if (slots_[i] == label) return true;
      if (slots_[i] == sim::kInvalidLabel) return false;
    }
  }

  /// Appends a label not yet on the list.
  void insert(Label label) {
    RISE_CHECK(label != sim::kInvalidLabel);
    if (2 * (size_ + 1) > slots_.size()) rehash();
    place(label);
    ++size_;
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t home(Label label) const {
    // Fibonacci hashing: the top bits of label * 2^64/phi.
    return static_cast<std::size_t>((label * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - shift_));
  }

  void place(Label label) {
    std::size_t i = home(label);
    while (slots_[i] != sim::kInvalidLabel) i = (i + 1) & mask();
    slots_[i] = label;
  }

  void rehash() {
    std::vector<Label> old(slots_.empty() ? 8 : 2 * slots_.size(),
                           sim::kInvalidLabel);
    old.swap(slots_);
    shift_ = static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Label label : old) {
      if (label != sim::kInvalidLabel) place(label);
    }
  }

  std::vector<Label> slots_;
  std::uint64_t size_ = 0;
  unsigned shift_ = 0;  ///< log2(slots_.size())
};

std::uint64_t log_handle(VisitedLog& log) {
  return reinterpret_cast<std::uintptr_t>(&log);
}

/// Resolves a message's log handle and checks that the log is exactly as
/// long as the list the message is charged for.
VisitedLog& resolve_log(std::uint64_t handle, std::uint64_t length) {
  auto* log =
      reinterpret_cast<VisitedLog*>(static_cast<std::uintptr_t>(handle));
  RISE_CHECK(log->size() == length);
  return *log;
}

/// One algorithm type for all three factories: `discard_losers` off is the
/// ablation, `elect` on adds the leader-announce pass.
///
/// Token payload: [rank, origin, |visited|, log handle]; announce payload:
/// [leader, |visited|, log handle]. Both stay inline (no payload spill),
/// while the charged size is still the LOCAL model's full visited list.
struct RankedDfs {
  RankedDfsProbe* probe;
  unsigned rank_bits;
  bool discard_losers;
  bool elect;

  /// This node's view of one token: its DFS parent, and the scan position
  /// over the ports. Every port before `next_port` leads to a node already
  /// on the token's list, and the list only grows, so resuming the scan
  /// there finds the same first unvisited port as a rescan from port 0.
  struct TokenState {
    Label origin = 0;
    Port parent_port = sim::kInvalidPort;
    Port next_port = 0;
  };

  struct State {
    sim::NodeId node = sim::kInvalidNode;  ///< engine id, for `probe` only
    bool announced = false;
    TokenState leader_state;
    std::uint64_t rank = 0;
    std::pair<std::uint64_t, Label> best{0, 0};
    /// The tokens this node has handled, sorted by origin. Claim 4: O(log n)
    /// of them w.h.p.
    std::vector<TokenState> tokens;
    /// The visited log of this node's own token; once that token's DFS is
    /// complete, the leader reuses it for the announce pass.
    VisitedLog log;
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
    self.log.insert(ctx.my_label());
    advance_token(ctx, self, self.rank, ctx.my_label(), self.log,
                  token_state(self, ctx.my_label()));
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const Incoming& in) const {
    if (in.msg.type == kDfsLeader) {
      on_leader_token(ctx, self, in);
      return;
    }
    RISE_CHECK(in.msg.type == kDfsToken && in.msg.payload.size() == 4);
    const std::uint64_t rank = in.msg.payload[0];
    const Label origin = in.msg.payload[1];
    VisitedLog& log = resolve_log(in.msg.payload[3], in.msg.payload[2]);
    ctx.probe().phase("dfs.token");
    const std::pair<std::uint64_t, Label> key{rank, origin};
    if (discard_losers && key < self.best) {  // case (b): discard
      ctx.probe().count("dfs.tokens_discarded");
      return;
    }
    self.best = std::max(self.best, key);

    TokenState& state = token_state(self, origin);
    const Label me = ctx.my_label();
    if (!log.contains(me)) {
      log.insert(me);  // case (a): append own ID
      state.parent_port = in.port;
      ctx.probe().count("dfs.first_visits");
      if (probe != nullptr) {
        // A node joins a token's list once, so this counts distinct tokens.
        if (probe->tokens_forwarded.size() <= self.node) {
          probe->tokens_forwarded.resize(self.node + 1, 0);
        }
        ++probe->tokens_forwarded[self.node];
      }
    }
    advance_token(ctx, self, rank, origin, log, state);
  }

  /// Forwards the token to the first neighbor not yet visited; backtracks to
  /// the DFS parent when all neighbors are on the list; stops at the origin.
  template <class Ctx>
  void advance_token(Ctx& ctx, State& self, std::uint64_t rank, Label origin,
                     VisitedLog& log, TokenState& state) const {
    const Port next = next_unvisited(ctx, log, state);
    const Port to = next != sim::kInvalidPort ? next : state.parent_port;
    if (to != sim::kInvalidPort) {
      // Logical size: rank + origin + the full visited list (LOCAL model).
      ctx.send(to, sim::make_message(
                       kDfsToken, {rank, origin, log.size(), log_handle(log)},
                       rank_bits + ctx.label_bits() * (1 + log.size()) + 32));
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
      // The wake-up token is home for good, so its log is free.
      self.log.clear();
      self.log.insert(ctx.my_label());
      advance_leader(ctx, self, ctx.my_label(), self.log);
    }
  }

  /// The announce pass: same visited-list DFS mechanics, never discarded.
  template <class Ctx>
  void on_leader_token(Ctx& ctx, State& self, const Incoming& in) const {
    ctx.probe().phase("dfs.announce");
    RISE_CHECK(in.msg.payload.size() == 3);
    const Label leader = in.msg.payload[0];
    VisitedLog& log = resolve_log(in.msg.payload[2], in.msg.payload[1]);
    const Label me = ctx.my_label();
    if (!log.contains(me)) {
      ctx.set_output(leader);
      log.insert(me);
      self.leader_state.parent_port = in.port;
    }
    advance_leader(ctx, self, leader, log);
  }

  template <class Ctx>
  void advance_leader(Ctx& ctx, State& self, Label leader,
                      VisitedLog& log) const {
    const Port next = next_unvisited(ctx, log, self.leader_state);
    const Port to =
        next != sim::kInvalidPort ? next : self.leader_state.parent_port;
    if (to != sim::kInvalidPort) {
      ctx.send(to, sim::make_message(
                       kDfsLeader, {leader, log.size(), log_handle(log)},
                       ctx.label_bits() * (2 + log.size()) + 32));
    }
  }

  /// The first port at or after the cursor whose neighbor is not on the
  /// list, or kInvalidPort when every neighbor is.
  template <class Ctx>
  static Port next_unvisited(Ctx& ctx, const VisitedLog& log,
                             TokenState& state) {
    const auto labels = ctx.neighbor_labels();
    while (state.next_port < labels.size() &&
           log.contains(labels[state.next_port])) {
      ++state.next_port;
    }
    return state.next_port < labels.size() ? state.next_port
                                           : sim::kInvalidPort;
  }

  /// This node's entry for the token of `origin`, created on first use.
  static TokenState& token_state(State& self, Label origin) {
    const auto it = std::lower_bound(
        self.tokens.begin(), self.tokens.end(), origin,
        [](const TokenState& t, Label o) { return t.origin < o; });
    if (it != self.tokens.end() && it->origin == origin) return *it;
    return *self.tokens.insert(it, TokenState{origin});
  }
};

RankedDfs configure(RankedDfsProbe* probe, unsigned rank_bits,
                    bool discard_losers, bool elect) {
  RISE_CHECK(rank_bits >= 8 && rank_bits <= 62);
  return {probe, rank_bits, discard_losers, elect};
}

}  // namespace

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
