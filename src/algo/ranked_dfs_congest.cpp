#include "algo/ranked_dfs_congest.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Message;
using sim::Port;

Message token_message(std::uint32_t type, std::uint64_t rank, Label origin,
                      unsigned label_bits, unsigned rank_bits) {
  return sim::make_message(type, {rank, origin},
                           8 + rank_bits + label_bits);
}

struct RankedDfsCongest {
  unsigned max_rank_bits;

  struct TokenState {
    bool visited = false;
    Port parent_port = sim::kInvalidPort;
    Port next_port = 0;
  };

  struct State {
    unsigned rank_bits = 0;  ///< clamped on wake, before any message
    std::uint64_t rank = 0;
    std::pair<std::uint64_t, Label> best{0, 0};
    std::map<Label, TokenState> tokens;
  };

  template <class Ctx>
  void on_wake(Ctx& ctx, State& self, sim::WakeCause cause) const {
    // Ranks come from [n^c] (c = 4 here), so they occupy O(log n) bits and
    // the token message fits the CONGEST budget.
    self.rank_bits = std::min(max_rank_bits, 4 * ctx.label_bits());
    if (cause != sim::WakeCause::kAdversary) return;
    obs::NodeProbe probe = ctx.probe();
    probe.phase("dfs.launch");
    probe.node_class("initiator");
    probe.count("dfs.tokens_launched");
    const std::uint64_t rank_space =
        (std::uint64_t{1} << self.rank_bits) - 1;
    self.rank = 1 + ctx.rng().uniform(rank_space);
    self.best = {self.rank, ctx.my_label()};
    TokenState& state = self.tokens[ctx.my_label()];
    state.visited = true;
    try_next(ctx, self, self.rank, ctx.my_label(), state);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const Incoming& in) const {
    const std::uint64_t rank = in.msg.payload[0];
    const Label origin = in.msg.payload[1];
    const std::pair<std::uint64_t, Label> key{rank, origin};
    ctx.probe().phase("dfs.token");
    if (key < self.best) {  // discard losing tokens, as in the LOCAL version
      ctx.probe().count("dfs.tokens_discarded");
      return;
    }
    self.best = key;
    TokenState& state = self.tokens[origin];
    switch (in.msg.type) {
      case kCFwd:
        if (state.visited) {
          ctx.send(in.port, token_message(kCNack, rank, origin,
                                          ctx.label_bits(), self.rank_bits));
        } else {
          state.visited = true;
          state.parent_port = in.port;
          try_next(ctx, self, rank, origin, state);
        }
        break;
      case kCNack:
      case kCRet:
        try_next(ctx, self, rank, origin, state);
        break;
      default:
        RISE_CHECK_MSG(false, "ranked_dfs_congest: unexpected message type "
                                  << in.msg.type);
    }
  }

  /// Offers the token to the next untried port (skipping the DFS parent);
  /// returns it to the parent when exhausted.
  template <class Ctx>
  void try_next(Ctx& ctx, State& self, std::uint64_t rank, Label origin,
                TokenState& state) const {
    while (state.next_port < ctx.degree()) {
      const Port p = state.next_port++;
      if (p == state.parent_port) continue;
      ctx.send(p, token_message(kCFwd, rank, origin, ctx.label_bits(),
                                self.rank_bits));
      return;
    }
    if (state.parent_port != sim::kInvalidPort) {
      ctx.send(state.parent_port,
               token_message(kCRet, rank, origin, ctx.label_bits(),
                             self.rank_bits));
    }
    // Otherwise we are the origin: the DFS is complete.
  }
};

}  // namespace

sim::KernelRunner ranked_dfs_congest_kernel(unsigned rank_bits) {
  RISE_CHECK(rank_bits >= 8 && rank_bits <= 62);
  return sim::make_kernel(RankedDfsCongest{rank_bits});
}

}  // namespace rise::algo
