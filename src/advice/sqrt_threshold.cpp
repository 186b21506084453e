#include "advice/sqrt_threshold.hpp"

#include <cmath>

#include "advice/fip06.hpp"
#include "advice/tree_advice_common.hpp"
#include "support/check.hpp"

namespace rise::advice {

namespace {

class SqrtThresholdOracle final : public AdvisingOracle {
 public:
  SqrtThresholdOracle(graph::NodeId root, double threshold)
      : root_(root), threshold_(threshold) {}

  std::vector<BitString> advise(const sim::Instance& instance) const override {
    const auto& g = instance.graph();
    RISE_CHECK_MSG(graph::is_connected(g),
                   "tree advising schemes require a connected graph");
    const auto tree = graph::bfs_tree(g, root_);
    const double threshold =
        threshold_ > 0.0 ? threshold_
                         : std::sqrt(static_cast<double>(g.num_nodes()));
    std::vector<BitString> advice(g.num_nodes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto ports = tree_ports(instance, tree, u);
      BitWriter w;
      if (static_cast<double>(ports.size()) > threshold) {
        w.write_bit(true);  // high degree tree node: broadcast everything
      } else {
        w.write_bit(false);
        const unsigned width = std::max(1u, bit_width_for(g.degree(u)));
        w.write_gamma(ports.size());
        for (sim::Port p : ports) w.write_bits(p, width);
      }
      advice[u] = w.take();
    }
    return advice;
  }

 private:
  graph::NodeId root_;
  double threshold_;
};

struct SqrtThreshold {
  struct State {
    bool done = false;
  };

  template <class Ctx>
  void on_wake(Ctx& ctx, State& self, sim::WakeCause cause) const {
    if (cause == sim::WakeCause::kAdversary) {
      propagate(ctx, self, sim::kInvalidPort);
    }
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const sim::Incoming& in) const {
    propagate(ctx, self, in.port);
  }

  template <class Ctx>
  void propagate(Ctx& ctx, State& self, sim::Port skip) const {
    if (self.done) return;
    self.done = true;
    obs::NodeProbe probe = ctx.probe();
    probe.count("advice.decodes");
    BitReader r(ctx.advice());
    const sim::Message wake = sim::make_message(kTreeWake, {}, 8);
    if (r.read_bit()) {
      probe.phase("advice.broadcast");
      probe.node_class("high_degree");
      for (sim::Port p = 0; p < ctx.degree(); ++p) {
        if (p != skip) ctx.send(p, wake);
      }
      return;
    }
    probe.phase("advice.forward");
    const unsigned width = std::max(1u, bit_width_for(ctx.degree()));
    const std::uint64_t count = r.read_gamma();
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto p = static_cast<sim::Port>(r.read_bits(width));
      if (p != skip) ctx.send(p, wake);
    }
  }
};

}  // namespace

std::unique_ptr<AdvisingOracle> sqrt_threshold_oracle(graph::NodeId root,
                                                      double threshold) {
  return std::make_unique<SqrtThresholdOracle>(root, threshold);
}

sim::KernelRunner sqrt_threshold_kernel() {
  return sim::make_kernel(SqrtThreshold{});
}

AdvisingScheme sqrt_threshold_scheme(graph::NodeId root) {
  return {sqrt_threshold_oracle(root), sqrt_threshold_kernel()};
}

}  // namespace rise::advice
