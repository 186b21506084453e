#include "algo/sleeping.hpp"

#include <span>
#include <vector>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Port;
using sim::Time;

// Message sizes use a 4-bit family type tag so every message fits the
// CONGEST budget (8 * label_bits) even at label_bits == 1.
constexpr std::uint64_t kTagBits = 4;

std::uint64_t slot_of(Time now) { return now % 3; }

/// Starts (or continues) the exponential nap chain. Returns true while a
/// nap was scheduled; false once the schedule is exhausted and the node
/// goes passive (it stays reactive: a later delivery steps it again).
template <class Ctx>
bool nap(Ctx& ctx, std::uint32_t& stage) {
  if (stage >= kSleepNapStages) return false;
  ctx.sleep_until(ctx.now() + (Time{2} << stage));
  ++stage;
  return true;
}

// ---------------------------------------------------------------------------
// Sleeping MIS
// ---------------------------------------------------------------------------

struct MisState {
  bool decided = false;
  bool in_mis = false;
  bool sent_prio = false;
  std::uint64_t my_prio = 0;
  std::uint32_t nap_stage = 0;
  std::uint32_t heard_count = 0;
  std::vector<std::uint8_t> heard;  // per port: ever received on it?
};

template <class Ctx>
void mis_hear(MisState& self, Ctx& ctx, Port p) {
  if (self.heard.empty()) self.heard.assign(ctx.degree(), 0);
  if (self.heard[p] == 0) {
    self.heard[p] = 1;
    ++self.heard_count;
  }
}

template <class Ctx>
void mis_decide(MisState& self, Ctx& ctx, bool in_mis) {
  self.decided = true;
  self.in_mis = in_mis;
  ctx.set_output(in_mis ? 1 : 0);
  obs::NodeProbe probe = ctx.probe();
  probe.phase("smis.nap");
  probe.node_class(in_mis ? "mis" : "out");
  if (in_mis) {
    // Announce on every port; sleeping neighbors that miss the drop learn
    // the status from a later check-in response instead.
    const std::uint64_t bit = 1;
    for (Port p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, sim::make_message(kSmisStatus, {bit}, kTagBits + 1));
    }
  }
  nap(ctx, self.nap_stage);
}

template <class Ctx>
void mis_on_round(MisState& self, Ctx& ctx,
                  std::span<const Incoming> inbox) {
  if (self.decided) {
    // Check-in (nap expiry) or a post-halt poke: answer contention messages
    // with the final status so a late-woken neighbor can finish.
    const std::uint64_t bit = self.in_mis ? 1 : 0;
    for (const Incoming& in : inbox) {
      if (in.msg.type == kSmisPrio) {
        ctx.probe().count("smis.pokes_answered");
        ctx.send(in.port, sim::make_message(kSmisStatus, {bit}, kTagBits + 1));
      }
    }
    nap(ctx, self.nap_stage);
    return;
  }

  ctx.probe().phase("smis.contend");
  // 1. Inbox: track the strongest competing priority of this window and
  // any neighbor that already joined the MIS.
  bool prio_seen = false;
  std::uint64_t best_prio = 0;
  Label best_label = 0;
  for (const Incoming& in : inbox) {
    mis_hear(self, ctx, in.port);
    switch (in.msg.type) {
      case kSmisPrio: {
        const std::uint64_t prio = in.msg.payload[0];
        const Label label = in.msg.payload[1];
        if (!prio_seen || prio > best_prio ||
            (prio == best_prio && label > best_label)) {
          best_prio = prio;
          best_label = label;
        }
        prio_seen = true;
        break;
      }
      case kSmisStatus:
        if (in.msg.payload[0] == 1) {
          mis_decide(self, ctx, /*in_mis=*/false);
          return;
        }
        break;
      default:
        break;
    }
  }

  // 2. Window slot action.
  const std::uint64_t slot = slot_of(ctx.now());
  if (slot == 0) {
    self.my_prio = ctx.rng().uniform(ctx.n_upper_bound());
    self.sent_prio = true;
    ctx.probe().count("smis.windows");
    const Label me = ctx.my_label();
    for (Port p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, sim::make_message(kSmisPrio, {self.my_prio, me},
                                    kTagBits + 2 * ctx.label_bits()));
    }
  } else if (slot == 1) {
    if (self.heard.empty()) self.heard.assign(ctx.degree(), 0);
    const bool all_heard = self.heard_count == ctx.degree();
    const Label me = ctx.my_label();
    const bool wins = !prio_seen || self.my_prio > best_prio ||
                      (self.my_prio == best_prio && me > best_label);
    if (self.sent_prio && all_heard && wins) {
      mis_decide(self, ctx, /*in_mis=*/true);
      return;
    }
    self.sent_prio = false;
  }
  ctx.request_tick();
}

struct SleepingMis {
  using State = MisState;

  template <class Ctx>
  void on_wake(Ctx&, State&, sim::WakeCause) const {}

  template <class Ctx>
  void on_message(Ctx&, State&, const Incoming&) const {
    RISE_CHECK_MSG(false, "sleeping MIS requires the synchronous engine");
  }

  template <class Ctx>
  void on_round(Ctx& ctx, State& self,
                std::span<const Incoming> inbox) const {
    mis_on_round(self, ctx, inbox);
  }
};

// ---------------------------------------------------------------------------
// Sleeping maximal matching
// ---------------------------------------------------------------------------

struct MatchState {
  bool decided = false;
  bool matched = false;
  bool proposer = false;
  Port proposal_port = sim::kInvalidPort;
  std::uint32_t nap_stage = 0;
  std::uint32_t dead_count = 0;
  std::vector<std::uint8_t> port_dead;  // per port: neighbor known matched
};

template <class Ctx>
void match_kill_port(MatchState& self, Ctx& ctx, Port p) {
  if (self.port_dead.empty()) self.port_dead.assign(ctx.degree(), 0);
  if (self.port_dead[p] == 0) {
    self.port_dead[p] = 1;
    ++self.dead_count;
  }
}

/// Commits a match with the neighbor on `partner_port` and announces
/// MATCHED on every other port.
template <class Ctx>
void match_commit(MatchState& self, Ctx& ctx, Port partner_port,
                  Label partner_label) {
  self.decided = true;
  self.matched = true;
  ctx.set_output(partner_label);
  obs::NodeProbe probe = ctx.probe();
  probe.phase("smatching.nap");
  probe.node_class("matched");
  for (Port p = 0; p < ctx.degree(); ++p) {
    if (p == partner_port) continue;
    ctx.send(p, sim::make_message(kSmatMatched, {}, kTagBits));
  }
  nap(ctx, self.nap_stage);
}

template <class Ctx>
void match_on_round(MatchState& self, Ctx& ctx,
                    std::span<const Incoming> inbox) {
  if (self.decided) {
    // Answer proposals that land in a check-in round (or after the nap
    // chain) so the proposer can retire this port.
    for (const Incoming& in : inbox) {
      if (in.msg.type == kSmatPropose && self.matched) {
        ctx.probe().count("smatching.pokes_answered");
        ctx.send(in.port, sim::make_message(kSmatMatched, {}, kTagBits));
      }
    }
    nap(ctx, self.nap_stage);
    return;
  }

  ctx.probe().phase("smatching.contend");
  // 1. Inbox: best incoming proposal, ACCEPT for our own proposal, and
  // MATCHED announcements retiring ports.
  bool proposal_seen = false;
  std::uint64_t best_prio = 0;
  Label best_label = 0;
  Port best_port = sim::kInvalidPort;
  for (const Incoming& in : inbox) {
    switch (in.msg.type) {
      case kSmatPropose: {
        const std::uint64_t prio = in.msg.payload[0];
        const Label label = in.msg.payload[1];
        if (!proposal_seen || prio > best_prio ||
            (prio == best_prio && label > best_label)) {
          best_prio = prio;
          best_label = label;
          best_port = in.port;
        }
        proposal_seen = true;
        break;
      }
      case kSmatAccept:
        if (self.proposer && in.port == self.proposal_port) {
          // Our proposal was accepted (at most one ACCEPT can arrive: we
          // proposed on exactly one port).
          match_commit(self, ctx, in.port, in.msg.payload[0]);
          return;
        }
        break;
      case kSmatMatched:
        match_kill_port(self, ctx, in.port);
        break;
      default:
        break;
    }
  }

  if (self.port_dead.empty()) self.port_dead.assign(ctx.degree(), 0);
  if (self.dead_count == ctx.degree()) {
    // Every neighbor is matched: maximally unmatched.
    self.decided = true;
    ctx.set_output(ctx.my_label());
    obs::NodeProbe probe = ctx.probe();
    probe.phase("smatching.nap");
    probe.node_class("unmatched");
    nap(ctx, self.nap_stage);
    return;
  }

  // 2. Window slot action.
  const std::uint64_t slot = slot_of(ctx.now());
  if (slot == 0) {
    ctx.probe().count("smatching.windows");
    self.proposer = ctx.rng().chance(0.5);
    if (self.proposer) {
      const std::uint32_t live = ctx.degree() - self.dead_count;
      std::uint32_t pick = static_cast<std::uint32_t>(ctx.rng().uniform(live));
      for (Port p = 0; p < ctx.degree(); ++p) {
        if (self.port_dead[p] != 0) continue;
        if (pick == 0) {
          self.proposal_port = p;
          break;
        }
        --pick;
      }
      const std::uint64_t prio = ctx.rng().uniform(ctx.n_upper_bound());
      ctx.send(self.proposal_port,
               sim::make_message(kSmatPropose, {prio, ctx.my_label()},
                                 kTagBits + 2 * ctx.label_bits()));
    }
  } else if (slot == 1) {
    if (!self.proposer && proposal_seen) {
      // Accept the strongest proposal; every losing proposer learns from
      // the MATCHED broadcast match_commit sends on its port.
      ctx.send(best_port,
               sim::make_message(kSmatAccept, {ctx.my_label()},
                                 kTagBits + ctx.label_bits()));
      match_commit(self, ctx, best_port, best_label);
      return;
    }
  } else {
    self.proposer = false;  // window over; the proposal was lost or dropped
  }
  ctx.request_tick();
}

struct SleepingMatching {
  using State = MatchState;

  template <class Ctx>
  void on_wake(Ctx&, State&, sim::WakeCause) const {}

  template <class Ctx>
  void on_message(Ctx&, State&, const Incoming&) const {
    RISE_CHECK_MSG(false, "sleeping matching requires the synchronous engine");
  }

  template <class Ctx>
  void on_round(Ctx& ctx, State& self,
                std::span<const Incoming> inbox) const {
    match_on_round(self, ctx, inbox);
  }
};

}  // namespace

sim::KernelRunner sleeping_mis_kernel() {
  return sim::make_kernel(SleepingMis{});
}

sim::KernelRunner sleeping_matching_kernel() {
  return sim::make_kernel(SleepingMatching{});
}

}  // namespace rise::algo
