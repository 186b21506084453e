#include "lb/beta_probing.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rise::lb {

namespace {

/// Effective prefix length: never more bits than the port width itself.
unsigned effective_beta(unsigned beta, std::uint32_t degree) {
  const unsigned width = std::max(1u, bit_width_for(degree));
  return std::min(beta, width);
}

class BetaProbingOracle final : public advice::AdvisingOracle {
 public:
  explicit BetaProbingOracle(unsigned beta) : beta_(beta) {}

  std::vector<BitString> advise(const sim::Instance& instance) const override {
    const auto& g = instance.graph();
    RISE_CHECK_MSG(g.num_nodes() % 3 == 0,
                   "beta probing expects a LowerBoundFamily-shaped instance");
    const graph::NodeId n = g.num_nodes() / 3;
    std::vector<BitString> advice(g.num_nodes());
    for (graph::NodeId i = 0; i < n; ++i) {
      const graph::NodeId v = i;          // center
      const graph::NodeId w = 2 * n + i;  // crucial neighbor
      const sim::Port port = instance.neighbor_to_port(v, w);
      const unsigned width = std::max(1u, bit_width_for(g.degree(v)));
      const unsigned b = effective_beta(beta_, g.degree(v));
      BitWriter writer;
      writer.write_bit(i == 0);  // the designated broadcaster
      // Top b bits of the port number, MSB first.
      for (unsigned j = 0; j < b; ++j) {
        writer.write_bit((port >> (width - 1 - j)) & 1u);
      }
      advice[v] = writer.take();
    }
    return advice;
  }

 private:
  unsigned beta_;
};

struct BetaProbing {
  unsigned beta;

  struct State {
    bool replied = false;
  };

  template <class Ctx>
  void on_wake(Ctx& ctx, State&, sim::WakeCause cause) const {
    if (cause != sim::WakeCause::kAdversary || ctx.advice().empty()) {
      return;  // only the (awake-at-start) centers act spontaneously
    }
    BitReader r(ctx.advice());
    const bool broadcaster = r.read_bit();
    const unsigned width = std::max(1u, bit_width_for(ctx.degree()));
    const unsigned b = effective_beta(beta, ctx.degree());
    std::uint64_t prefix = 0;
    for (unsigned j = 0; j < b; ++j) {
      prefix = (prefix << 1) | static_cast<std::uint64_t>(r.read_bit());
    }
    const sim::Message probe = sim::make_message(kProbe, {}, 8);
    for (sim::Port p = 0; p < ctx.degree(); ++p) {
      if ((p >> (width - b)) == prefix || b == 0) {
        ctx.send(p, probe);
      }
    }
    if (broadcaster) {
      // Wake all of U (every U node is our neighbor in the family G).
      ctx.broadcast(sim::make_message(kBroadcastWake, {}, 8));
    }
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const sim::Incoming& in) const {
    switch (in.msg.type) {
      case kProbe:
        if (ctx.degree() == 1 && !self.replied) {
          self.replied = true;
          ctx.send(in.port, sim::make_message(kIAmLeaf, {}, 8));
        }
        break;
      case kIAmLeaf:
        ctx.set_output(in.port);  // found the crucial neighbor's port
        break;
      case kBroadcastWake:
        break;  // woken; nothing else to do
      default:
        RISE_CHECK_MSG(false, "beta probing: unexpected message type "
                                  << in.msg.type);
    }
  }
};

}  // namespace

std::unique_ptr<advice::AdvisingOracle> beta_probing_oracle(unsigned beta) {
  return std::make_unique<BetaProbingOracle>(beta);
}

sim::KernelRunner beta_probing_kernel(unsigned beta) {
  return sim::make_kernel(BetaProbing{beta});
}

advice::AdvisingScheme beta_probing_scheme(unsigned beta) {
  return {beta_probing_oracle(beta), beta_probing_kernel(beta)};
}

}  // namespace rise::lb
