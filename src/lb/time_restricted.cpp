#include "lb/time_restricted.hpp"

namespace rise::lb {

namespace {

struct TtlFlood {
  std::uint32_t ttl;

  struct State {
    bool done = false;
  };

  template <class Ctx>
  void on_wake(Ctx& ctx, State&, sim::WakeCause cause) const {
    if (cause == sim::WakeCause::kAdversary && ttl > 0) {
      send_all(ctx, ttl, sim::kInvalidPort);
    }
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const sim::Incoming& in) const {
    const auto hops = static_cast<std::uint32_t>(in.msg.payload[0]);
    if (self.done || hops <= 1) return;
    self.done = true;
    send_all(ctx, hops - 1, in.port);
  }

  template <class Ctx>
  static void send_all(Ctx& ctx, std::uint32_t hops, sim::Port skip) {
    const sim::Message msg =
        sim::make_message(kTimedWake, {hops}, 8 + ctx.label_bits());
    for (sim::Port p = 0; p < ctx.degree(); ++p) {
      if (p != skip) ctx.send(p, msg);
    }
  }
};

}  // namespace

sim::KernelRunner centers_broadcast_kernel() { return ttl_flood_kernel(1); }

sim::KernelRunner ttl_flood_kernel(std::uint32_t ttl) {
  return sim::make_kernel(TtlFlood{ttl});
}

}  // namespace rise::lb
