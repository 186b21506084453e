#include "algo/gossip.hpp"

namespace rise::algo {

namespace {

struct PushGossip {
  std::uint64_t budget;

  struct State {};

  template <class Ctx>
  void on_wake(Ctx&, State&, sim::WakeCause) const {}

  template <class Ctx>
  void on_message(Ctx&, State&, const sim::Incoming&) const {}

  template <class Ctx>
  void on_round(Ctx& ctx, State&, std::span<const sim::Incoming>) const {
    if (ctx.local_round() > budget || ctx.degree() == 0) return;
    obs::NodeProbe probe = ctx.probe();
    probe.phase("gossip.push");
    probe.count("gossip.pushes");
    const sim::Port p =
        static_cast<sim::Port>(ctx.rng().uniform(ctx.degree()));
    ctx.send(p, sim::make_message(kGossipPush, {}, 8));
    ctx.request_tick();
  }
};

}  // namespace

sim::KernelRunner push_gossip_kernel(std::uint64_t round_budget) {
  return sim::make_kernel(PushGossip{round_budget});
}

}  // namespace rise::algo
