// Executable renderings of the Theorem-2 indistinguishability lemmas.
//
// We instantiate concrete deterministic time-restricted strategies and show,
// on the real G_k instances, exactly the phenomenon the proof exploits: if a
// center v* does not exchange a message with a neighbor u, then swapping the
// IDs of u and the crucial neighbor w* is invisible to the entire execution,
// so v*'s output is unchanged — and therefore wrong in one of the two
// configurations.
#include "lb/swap_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "lb/lower_bound_graphs.hpp"
#include "lb/nih.hpp"
#include "lb/time_restricted.hpp"

namespace rise::lb {
namespace {

/// Sends nothing; outputs the smallest neighbor ID as its NIH guess.
class GuessSmallest final : public sim::Process {
 public:
  void on_wake(sim::Context& ctx, sim::WakeCause) override {
    const auto labels = ctx.neighbor_labels();
    if (labels.empty()) return;
    ctx.set_output(*std::min_element(labels.begin(), labels.end()));
  }
  void on_message(sim::Context&, const sim::Incoming&) override {}
};

/// A deterministic 2-time-unit strategy: each center probes exactly its
/// odd-ID neighbors; a degree-1 node replies, which identifies it. Solves
/// NIH iff the crucial neighbor's ID is odd.
class ParityProbe final : public sim::Process {
 public:
  void on_wake(sim::Context& ctx, sim::WakeCause cause) override {
    if (cause != sim::WakeCause::kAdversary) return;
    const auto labels = ctx.neighbor_labels();
    for (sim::Port p = 0; p < labels.size(); ++p) {
      if (labels[p] % 2 == 1) {
        ctx.send(p, sim::make_message(1, {}, 8));
      }
    }
  }
  void on_message(sim::Context& ctx, const sim::Incoming& in) override {
    if (in.msg.type == 1 && ctx.degree() == 1) {
      ctx.send(in.port, sim::make_message(2, {}, 8));
    } else if (in.msg.type == 2) {
      ctx.set_output(ctx.neighbor_labels()[in.port]);
    }
  }
};

sim::KernelRunner guess_kernel() {
  return sim::make_kernel(sim::ProcessAlgorithm{
      [](graph::NodeId) { return std::make_unique<GuessSmallest>(); }});
}

sim::KernelRunner parity_kernel() {
  return sim::make_kernel(sim::ProcessAlgorithm{
      [](graph::NodeId) { return std::make_unique<ParityProbe>(); }});
}

TEST(SwapChecker, SilentAlgorithmCannotBeRightTwice) {
  // Lemma 5, degenerate case: no communication at all. Swapping w_0 with
  // any U-neighbor of v_0 leaves v_0's view identical, so its output is
  // unchanged while the correct answer changed.
  Rng rng(1);
  const auto fam = make_kt1_family(3, 3);
  const auto inst = make_kt1_instance(fam.family, rng);
  const graph::NodeId v0 = fam.family.center(0);
  const graph::NodeId w0 = fam.family.w_node(0);
  const graph::NodeId u = fam.family.graph.neighbors(v0)[0] == w0
                              ? fam.family.graph.neighbors(v0)[1]
                              : fam.family.graph.neighbors(v0)[0];

  const auto t1 = run_and_trace_sync(inst, fam.family.centers_awake(), 3,
                                     guess_kernel());
  const auto swapped = swapped_instance(inst, u, w0);
  const auto t2 = run_and_trace_sync(swapped, fam.family.centers_awake(), 3,
                                     guess_kernel());

  EXPECT_EQ(t1.run.outputs[v0], t2.run.outputs[v0]);  // indistinguishable
  const bool correct1 = t1.run.outputs[v0] == inst.label(w0);
  const bool correct2 = t2.run.outputs[v0] == swapped.label(w0);
  EXPECT_FALSE(correct1 && correct2);
}

TEST(SwapChecker, ParityProbeTracesInvariantUnderQuietSwap) {
  // Lemma 6 flavor: find a center whose crucial neighbor has an even ID and
  // that also has an even-ID U-neighbor. Swapping the two preserves every
  // node's view (parity pattern identical), so the traced edge usage is
  // identical and neither run sends over {u, v*}.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const auto fam = make_kt1_family(3, 3);
    const auto inst = make_kt1_instance(fam.family, rng);
    // Search for a suitable center.
    for (graph::NodeId i = 0; i < fam.family.n; ++i) {
      const graph::NodeId v = fam.family.center(i);
      const graph::NodeId w = fam.family.w_node(i);
      if (inst.label(w) % 2 != 0) continue;
      graph::NodeId u = graph::kInvalidNode;
      for (graph::NodeId nb : fam.family.graph.neighbors(v)) {
        if (nb != w && inst.label(nb) % 2 == 0) {
          u = nb;
          break;
        }
      }
      if (u == graph::kInvalidNode) continue;

      const auto t1 = run_and_trace_sync(inst, fam.family.centers_awake(), 3,
                                         parity_kernel());
      const auto swapped = swapped_instance(inst, u, w);
      const auto t2 = run_and_trace_sync(
          swapped, fam.family.centers_awake(), 3, parity_kernel());

      // Neither probes the even IDs, so {v,w} and {v,u} stay unused and the
      // overall traces coincide.
      EXPECT_FALSE(t1.edge_used(v, w));
      EXPECT_FALSE(t1.edge_used(v, u));
      EXPECT_EQ(t1.used_edges, t2.used_edges);
      // The center fails NIH in both configurations.
      EXPECT_NE(t1.run.outputs[v], inst.label(w));
      EXPECT_NE(t2.run.outputs[v], swapped.label(w));
      return;  // one demonstration suffices
    }
  }
  FAIL() << "no suitable (center, even-ID pair) found across 20 seeds";
}

TEST(SwapChecker, ParityProbeSucceedsExactlyOnOddCruxes) {
  Rng rng(5);
  const auto fam = make_kt1_family(3, 3);
  const auto inst = make_kt1_instance(fam.family, rng);
  const auto t = run_and_trace_sync(inst, fam.family.centers_awake(), 3,
                                    parity_kernel());
  for (graph::NodeId i = 0; i < fam.family.n; ++i) {
    const auto w_label = inst.label(fam.family.w_node(i));
    const auto out = t.run.outputs[fam.family.center(i)];
    if (w_label % 2 == 1) {
      EXPECT_EQ(out, w_label) << "center " << i;
    } else {
      EXPECT_NE(out, w_label) << "center " << i;
    }
  }
}

TEST(SwapChecker, TracedEdgesMatchMessageCount) {
  // Sanity: the trace sees exactly the edges flooding uses.
  Rng rng(6);
  const auto fam = make_kt1_family(3, 3);
  const auto inst = make_kt1_instance(fam.family, rng);
  const auto t = run_and_trace_sync(inst, fam.family.centers_awake(), 3,
                                    centers_broadcast_kernel());
  // Centers broadcast over every incident edge: all V-incident edges used.
  std::size_t v_incident = 0;
  for (graph::NodeId i = 0; i < fam.family.n; ++i) {
    v_incident += fam.family.graph.degree(fam.family.center(i));
  }
  EXPECT_EQ(t.used_edges.size(), v_incident);
}

}  // namespace
}  // namespace rise::lb
