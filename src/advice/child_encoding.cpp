#include "advice/child_encoding.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "support/check.hpp"

namespace rise::advice {

namespace {

void write_optional_port(BitWriter& w, bool present, sim::Port port) {
  w.write_bit(present);
  if (present) w.write_gamma(port);
}

class ChildEncodingOracle final : public AdvisingOracle {
 public:
  ChildEncodingOracle(graph::NodeId root, unsigned arity)
      : root_(root), arity_(arity) {}

  std::vector<BitString> advise(const sim::Instance& instance) const override {
    const auto& g = instance.graph();
    RISE_CHECK_MSG(graph::is_connected(g),
                   "tree advising schemes require a connected graph");
    const auto tree = graph::bfs_tree(g, root_);

    std::vector<CenAdvice> fields(g.num_nodes());

    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      if (tree.parent[u] != graph::kInvalidNode) {
        fields[u].has_parent = true;
        fields[u].parent = instance.neighbor_to_port(u, tree.parent[u]);
      }
      // Order u's children by their port number at u, then lay them out as a
      // 1-based binary heap: child i's "next siblings" are 2i and 2i+1.
      std::vector<std::pair<sim::Port, graph::NodeId>> kids;
      for (graph::NodeId c : tree.children[u]) {
        kids.push_back({instance.neighbor_to_port(u, c), c});
      }
      std::sort(kids.begin(), kids.end());
      if (!kids.empty()) {
        fields[u].has_first_child = true;
        fields[u].first_child = kids[0].first;
      }
      for (std::size_t i = 0; i < kids.size(); ++i) {
        const graph::NodeId c = kids[i].second;
        if (arity_ == 1) {
          // Ablation: linked list of siblings.
          if (i + 1 < kids.size()) {
            fields[c].has_next_a = true;
            fields[c].next_a = kids[i + 1].first;
          }
          continue;
        }
        const std::size_t heap = i + 1;
        if (2 * heap - 1 < kids.size()) {
          fields[c].has_next_a = true;
          fields[c].next_a = kids[2 * heap - 1].first;
        }
        if (2 * heap < kids.size()) {
          fields[c].has_next_b = true;
          fields[c].next_b = kids[2 * heap].first;
        }
      }
    }

    std::vector<BitString> advice(g.num_nodes());
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      BitWriter w;
      write_optional_port(w, fields[u].has_parent, fields[u].parent);
      write_optional_port(w, fields[u].has_first_child, fields[u].first_child);
      write_optional_port(w, fields[u].has_next_a, fields[u].next_a);
      write_optional_port(w, fields[u].has_next_b, fields[u].next_b);
      advice[u] = w.take();
    }
    return advice;
  }

 private:
  graph::NodeId root_;
  unsigned arity_;
};

struct ChildEncoding {
  struct State {
    CenAdvice advice;
    bool parent_notified = false;
    bool started = false;
  };

  template <class Ctx>
  void on_wake(Ctx& ctx, State& self, sim::WakeCause cause) const {
    obs::NodeProbe probe = ctx.probe();
    probe.phase("advice.forward");
    probe.count("advice.decodes");
    self.advice = decode_cen_advice(ctx.advice());
    if (cause == sim::WakeCause::kAdversary) {
      notify_parent(ctx, self);
      start_children(ctx, self);
    }
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const sim::Incoming& in) const {
    switch (in.msg.type) {
      case kCenWakeChild: {
        // Our parent is clearly awake; answer with our next-sibling pair so
        // the parent can continue the binary dissemination.
        self.parent_notified = true;
        sim::PayloadWords payload;
        payload.push_back((self.advice.has_next_a ? 1u : 0u) |
                          (self.advice.has_next_b ? 2u : 0u));
        payload.push_back(self.advice.has_next_a ? self.advice.next_a : 0);
        payload.push_back(self.advice.has_next_b ? self.advice.next_b : 0);
        ctx.send(in.port, sim::make_message(kCenNext, std::move(payload),
                                            8 + 2 * ctx.label_bits()));
        start_children(ctx, self);
        break;
      }
      case kCenNext: {
        const std::uint64_t flags = in.msg.payload[0];
        const sim::Message wake = sim::make_message(kCenWakeChild, {}, 8);
        if (flags & 1u) {
          ctx.send(static_cast<sim::Port>(in.msg.payload[1]), wake);
        }
        if (flags & 2u) {
          ctx.send(static_cast<sim::Port>(in.msg.payload[2]), wake);
        }
        break;
      }
      case kCenWakeParent: {
        // A child woke independently; wake our own parent and the rest of
        // the family.
        notify_parent(ctx, self);
        start_children(ctx, self);
        break;
      }
      default:
        RISE_CHECK_MSG(false, "CEN: unexpected message type " << in.msg.type);
    }
  }

  template <class Ctx>
  void notify_parent(Ctx& ctx, State& self) const {
    if (self.parent_notified || !self.advice.has_parent) return;
    self.parent_notified = true;
    ctx.send(self.advice.parent, sim::make_message(kCenWakeParent, {}, 8));
  }

  template <class Ctx>
  void start_children(Ctx& ctx, State& self) const {
    if (self.started || !self.advice.has_first_child) {
      self.started = true;
      return;
    }
    self.started = true;
    ctx.send(self.advice.first_child,
             sim::make_message(kCenWakeChild, {}, 8));
  }
};

}  // namespace

CenAdvice decode_cen_advice(const BitString& bits) {
  BitReader r(bits);
  CenAdvice a;
  auto read_optional = [&r](bool& flag, sim::Port& port) {
    flag = r.read_bit();
    if (flag) port = static_cast<sim::Port>(r.read_gamma());
  };
  read_optional(a.has_parent, a.parent);
  read_optional(a.has_first_child, a.first_child);
  read_optional(a.has_next_a, a.next_a);
  read_optional(a.has_next_b, a.next_b);
  return a;
}

std::unique_ptr<AdvisingOracle> child_encoding_oracle(graph::NodeId root,
                                                      unsigned arity) {
  RISE_CHECK(arity == 1 || arity == 2);
  return std::make_unique<ChildEncodingOracle>(root, arity);
}

sim::KernelRunner child_encoding_kernel() {
  return sim::make_kernel(ChildEncoding{});
}

AdvisingScheme child_encoding_scheme(graph::NodeId root) {
  return {child_encoding_oracle(root), child_encoding_kernel()};
}

}  // namespace rise::advice
