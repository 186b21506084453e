#include "advice/fip06.hpp"

#include <algorithm>

#include "advice/tree_advice_common.hpp"
#include "support/check.hpp"

namespace rise::advice {

std::vector<sim::Port> tree_ports(const sim::Instance& instance,
                                  const graph::BfsTree& tree,
                                  graph::NodeId u) {
  std::vector<sim::Port> ports;
  if (tree.parent[u] != graph::kInvalidNode) {
    ports.push_back(instance.neighbor_to_port(u, tree.parent[u]));
  }
  for (graph::NodeId c : tree.children[u]) {
    ports.push_back(instance.neighbor_to_port(u, c));
  }
  return ports;
}

void encode_port_set(BitWriter& w, const std::vector<sim::Port>& ports,
                     std::uint32_t degree) {
  const unsigned width = std::max(1u, bit_width_for(degree));
  // Cost of the list encoding: gamma(count) + count * width.
  BitWriter list;
  list.write_bit(false);
  list.write_gamma(ports.size());
  for (sim::Port p : ports) list.write_bits(p, width);
  if (list.size() <= 1 + degree) {
    const BitString& bits = list.bits();
    for (std::size_t i = 0; i < bits.size(); ++i) w.write_bit(bits.get(i));
    return;
  }
  w.write_bit(true);
  BitString bitmap(degree);
  for (sim::Port p : ports) bitmap.set(p, true);
  for (std::size_t i = 0; i < bitmap.size(); ++i) w.write_bit(bitmap.get(i));
}

std::vector<sim::Port> decode_port_set(BitReader& r, std::uint32_t degree) {
  std::vector<sim::Port> ports;
  if (!r.read_bit()) {
    const unsigned width = std::max(1u, bit_width_for(degree));
    const std::uint64_t count = r.read_gamma();
    ports.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      ports.push_back(static_cast<sim::Port>(r.read_bits(width)));
    }
  } else {
    for (std::uint32_t p = 0; p < degree; ++p) {
      if (r.read_bit()) ports.push_back(p);
    }
  }
  return ports;
}

namespace {

class Fip06Oracle final : public AdvisingOracle {
 public:
  explicit Fip06Oracle(graph::NodeId root) : root_(root) {}

  std::vector<BitString> advise(const sim::Instance& instance) const override {
    const auto& g = instance.graph();
    RISE_CHECK_MSG(graph::is_connected(g),
                   "tree advising schemes require a connected graph");
    const auto tree = graph::bfs_tree(g, root_);
    std::vector<BitString> advice(g.num_nodes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      BitWriter w;
      encode_port_set(w, tree_ports(instance, tree, u), g.degree(u));
      advice[u] = w.take();
    }
    return advice;
  }

 private:
  graph::NodeId root_;
};

struct Fip06 {
  struct State {
    bool done = false;
  };

  template <class Ctx>
  void on_wake(Ctx& ctx, State& self, sim::WakeCause cause) const {
    if (cause == sim::WakeCause::kAdversary) {
      propagate(ctx, self, sim::kInvalidPort);
    }
    // Message-woken nodes propagate from on_message, where the arrival port
    // is known.
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
    probe.phase("advice.forward");
    probe.count("advice.decodes");
    BitReader r(ctx.advice());
    for (sim::Port p : decode_port_set(r, ctx.degree())) {
      if (p == skip) continue;
      ctx.send(p, sim::make_message(kTreeWake, {}, 8));
    }
  }
};

}  // namespace

std::unique_ptr<AdvisingOracle> fip06_oracle(graph::NodeId root) {
  return std::make_unique<Fip06Oracle>(root);
}

sim::KernelRunner fip06_kernel() { return sim::make_kernel(Fip06{}); }

AdvisingScheme fip06_scheme(graph::NodeId root) {
  return {fip06_oracle(root), fip06_kernel()};
}

}  // namespace rise::advice
