#include "algo/flooding.hpp"

namespace rise::algo {

namespace {

/// Stateless: a node's only action is its wake-up broadcast.
struct Flooding {
  struct State {};

  template <class Ctx>
  void on_wake(Ctx& ctx, State&, sim::WakeCause) const {
    obs::NodeProbe probe = ctx.probe();
    probe.phase("flood");
    probe.count("flood.broadcasts");
    // A single O(1)-bit wake-up signal on every port.
    ctx.broadcast(sim::make_message(kFloodWake, {}, 8));
  }

  template <class Ctx>
  void on_message(Ctx&, State&, const sim::Incoming&) const {
    // Receiving a message already woke us (triggering on_wake); nothing else
    // to do.
  }
};

}  // namespace

sim::KernelRunner flooding_kernel() { return sim::make_kernel(Flooding{}); }

}  // namespace rise::algo
