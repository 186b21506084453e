#include "advice/spanner_scheme.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "graph/spanner.hpp"
#include "support/bitio.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace rise::advice {

namespace {

struct NextPair {
  bool has_a = false;
  sim::Port a = sim::kInvalidPort;
  bool has_b = false;
  sim::Port b = sim::kInvalidPort;
};

/// One incident spanner edge of a node: the port (at this node) carrying it,
/// and this node's next-sibling pair in the *neighbor's* heap (ports at the
/// neighbor).
struct Record {
  sim::Port key = sim::kInvalidPort;
  NextPair next;
};

struct NodeAdvice {
  bool has_first = false;
  sim::Port first = sim::kInvalidPort;
  std::vector<Record> records;  // ascending key
};

/// `records` must be sorted by key; the bits list them in that order.
BitString encode_node_advice(bool has_first, sim::Port first,
                             std::span<const Record> records) {
  BitWriter w;
  w.write_gamma(records.size());
  w.write_bit(has_first);
  if (has_first) w.write_gamma(first);
  for (const Record& record : records) {
    const NextPair& next = record.next;
    w.write_gamma(record.key);
    w.write_bit(next.has_a);
    if (next.has_a) w.write_gamma(next.a);
    w.write_bit(next.has_b);
    if (next.has_b) w.write_gamma(next.b);
  }
  return w.take();
}

NodeAdvice decode_node_advice(const BitString& bits) {
  NodeAdvice a;
  BitReader r(bits);
  const std::uint64_t count = r.read_gamma();
  a.has_first = r.read_bit();
  if (a.has_first) a.first = static_cast<sim::Port>(r.read_gamma());
  a.records.resize(count);
  for (Record& record : a.records) {
    NextPair& next = record.next;
    record.key = static_cast<sim::Port>(r.read_gamma());
    next.has_a = r.read_bit();
    if (next.has_a) next.a = static_cast<sim::Port>(r.read_gamma());
    next.has_b = r.read_bit();
    if (next.has_b) next.b = static_cast<sim::Port>(r.read_gamma());
  }
  return a;
}

class SpannerOracle final : public AdvisingOracle {
 public:
  /// k == 0 means "choose k = corollary2_k(n)" (Corollary 2).
  explicit SpannerOracle(unsigned k) : k_(k) {}

  std::vector<BitString> advise(const sim::Instance& instance) const override {
    const auto& g = instance.graph();
    const unsigned k = k_ != 0 ? k_ : corollary2_k(g.num_nodes());
    const graph::Graph spanner = graph::greedy_spanner(g, k);
    const graph::NodeId n = g.num_nodes();

    // Node w holds one record per incident spanner edge, so w's records
    // fill row w of the spanner's CSR layout: one flat array for all nodes.
    const std::uint64_t* row = spanner.offsets_data();
    std::vector<Record> records(2 * spanner.num_edges());
    std::vector<std::uint32_t> filled(n, 0);
    std::vector<sim::Port> first(n, sim::kInvalidPort);
    std::vector<sim::Port> heap;
    for (graph::NodeId v = 0; v < n; ++v) {
      // v's spanner ports in ascending order, read as a 1-based binary heap.
      heap.clear();
      for (graph::NodeId u : spanner.neighbors(v)) {
        heap.push_back(instance.neighbor_to_port(v, u));
      }
      if (heap.empty()) continue;
      std::sort(heap.begin(), heap.end());
      first[v] = heap[0];
      for (std::size_t i = 0; i < heap.size(); ++i) {
        const graph::NodeId w = instance.port_to_neighbor(v, heap[i]);
        Record& record = records[row[w] + filled[w]++];
        record.key = instance.reverse_port(v, heap[i]);
        const std::size_t h = i + 1;
        if (2 * h - 1 < heap.size()) {
          record.next.has_a = true;
          record.next.a = heap[2 * h - 1];
        }
        if (2 * h < heap.size()) {
          record.next.has_b = true;
          record.next.b = heap[2 * h];
        }
      }
    }

    std::vector<BitString> out(n);
    for (graph::NodeId w = 0; w < n; ++w) {
      const auto own = std::span<Record>(records).subspan(
          row[w], row[w + 1] - row[w]);
      std::sort(own.begin(), own.end(), [](const Record& a, const Record& b) {
        return a.key < b.key;
      });
      out[w] = encode_node_advice(first[w] != sim::kInvalidPort, first[w],
                                  own);
    }
    return out;
  }

 private:
  unsigned k_;
};

struct SpannerWake {
  struct State {
    NodeAdvice advice;
    bool started = false;
  };

  template <class Ctx>
  void on_wake(Ctx& ctx, State& self, sim::WakeCause cause) const {
    obs::NodeProbe probe = ctx.probe();
    probe.phase("advice.forward");
    probe.count("advice.decodes");
    self.advice = decode_node_advice(ctx.advice());
    if (cause == sim::WakeCause::kAdversary) start(ctx, self);
  }

  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const sim::Incoming& in) const {
    switch (in.msg.type) {
      case kSpWake: {
        // Reply with our next-sibling pair in the sender's heap so its
        // dissemination continues, then wake our own spanner neighborhood.
        const auto& records = self.advice.records;
        const auto it = std::lower_bound(
            records.begin(), records.end(), in.port,
            [](const Record& r, sim::Port port) { return r.key < port; });
        RISE_CHECK_MSG(it != records.end() && it->key == in.port,
                       "spanner wake arrived over a non-spanner edge");
        const NextPair& next = it->next;
        sim::PayloadWords payload{
            (next.has_a ? 1u : 0u) | (next.has_b ? 2u : 0u),
            next.has_a ? next.a : 0, next.has_b ? next.b : 0};
        ctx.send(in.port, sim::make_message(kSpNext, std::move(payload),
                                            8 + 2 * ctx.label_bits()));
        start(ctx, self);
        break;
      }
      case kSpNext: {
        const std::uint64_t flags = in.msg.payload[0];
        const sim::Message wake = sim::make_message(kSpWake, {}, 8);
        if (flags & 1u) {
          ctx.send(static_cast<sim::Port>(in.msg.payload[1]), wake);
        }
        if (flags & 2u) {
          ctx.send(static_cast<sim::Port>(in.msg.payload[2]), wake);
        }
        break;
      }
      default:
        RISE_CHECK_MSG(false,
                       "spanner scheme: unexpected message " << in.msg.type);
    }
  }

  template <class Ctx>
  void start(Ctx& ctx, State& self) const {
    if (self.started) return;
    self.started = true;
    if (self.advice.has_first) {
      ctx.send(self.advice.first, sim::make_message(kSpWake, {}, 8));
    }
  }
};

}  // namespace

unsigned corollary2_k(std::uint64_t n) {
  return std::max<unsigned>(
      2, rise::floor_log2(std::max<std::uint64_t>(2, n)) + 1);
}

std::unique_ptr<AdvisingOracle> spanner_oracle(unsigned k) {
  RISE_CHECK(k >= 1);
  return std::make_unique<SpannerOracle>(k);
}

sim::KernelRunner spanner_kernel() { return sim::make_kernel(SpannerWake{}); }

AdvisingScheme spanner_scheme(unsigned k) {
  return {spanner_oracle(k), spanner_kernel()};
}

AdvisingScheme corollary2_scheme() {
  return {std::make_unique<SpannerOracle>(0), spanner_kernel()};
}

}  // namespace rise::advice
