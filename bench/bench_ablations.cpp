// Ablation studies for the design choices DESIGN.md calls out:
//   A1. RankedDFS *rank discarding* (Theorem 3's case (b)): without it every
//       token completes its DFS and messages blow up from O(n log n) to
//       Theta(|A_0| * n).
//   A2. FastWakeUp *sampling rate*: the sqrt(log n / n) root probability is
//       the message-optimal point — over- and under-sampling both cost.
//   A3. CEN *sibling-tree arity*: the binary heap gives O(log n) per-level
//       latency; the linked-list ablation degrades to Theta(degree) while
//       advice/messages stay the same.
#include <cmath>
#include <cstdio>

#include "advice/child_encoding.hpp"
#include "advice/sqrt_threshold.hpp"
#include "algo/fast_wakeup.hpp"
#include "algo/ranked_dfs.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

void ablation_rank_discarding() {
  bench::section("A1: RankedDFS with vs without rank discarding");
  bench::Table table({"n", "awake |A0|", "msgs (with ranks)",
                      "msgs (no discard)", "blowup", "~|A0|*n"});
  for (graph::NodeId n : {100u, 200u, 400u}) {
    Rng rng(n);
    const auto g = graph::connected_gnp(n, 8.0 / n, rng);
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT1;
    Rng irng(1);
    const auto inst = sim::Instance::create(g, opt, irng);
    Rng srng(2);
    const auto schedule = sim::wake_random_subset(n, 0.25, srng);
    const auto delays = sim::unit_delay();
    const auto with = sim::run_async(inst, *delays, schedule, 3,
                                     algo::ranked_dfs_kernel());
    const auto without = sim::run_async(inst, *delays, schedule, 3,
                                        algo::ranked_dfs_no_discard_kernel());
    table.add_row(
        {bench::fmt_u(n), bench::fmt_u(schedule.wakes.size()),
         bench::fmt_u(with.metrics.messages),
         bench::fmt_u(without.metrics.messages),
         bench::fmt_f(static_cast<double>(without.metrics.messages) /
                          static_cast<double>(with.metrics.messages),
                      1),
         bench::fmt_u(schedule.wakes.size() * static_cast<std::uint64_t>(n))});
  }
  table.print();
  std::printf("the random ranks are what keep Theorem 3 near-linear: without "
              "case (b), messages track |A0|*n.\n");
}

void ablation_sampling_rate() {
  bench::section("A2: FastWakeUp sampling-rate sweep (n=1000, rho=1)");
  const graph::NodeId n = 1000;
  Rng rng(7);
  const auto g = graph::connected_gnp(n, 1.0 / std::sqrt(double(n)), rng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  Rng irng(1);
  const auto inst = sim::Instance::create(g, opt, irng);
  const auto schedule = sim::dominating_set_wakeup(g);
  const double p_star =
      std::sqrt(std::log(static_cast<double>(n)) / static_cast<double>(n));
  bench::Table table({"p / p*", "rounds", "messages", "roots sampled",
                      "activate! broadcasts"});
  for (double mult : {0.0, 0.1, 0.5, 1.0, 4.0, 16.0}) {
    algo::FastWakeupProbe probe;
    const auto result = sim::run_sync(
        inst, schedule, 11, algo::fast_wakeup_kernel(&probe, mult * p_star));
    table.add_row({bench::fmt_f(mult, 1), bench::fmt_u(result.wakeup_span()),
                   bench::fmt_u(result.metrics.messages),
                   bench::fmt_u(probe.roots_sampled),
                   bench::fmt_u(probe.activate_broadcasts)});
  }
  table.print();
  std::printf(
      "undersampling (p -> 0) shifts cost to activate! broadcasts; "
      "oversampling multiplies BFS-construction traffic — sqrt(log n / n) "
      "balances the two, as the Theorem 4 analysis predicts.\n");
}

void ablation_cen_arity() {
  bench::section("A3: CEN sibling structure — binary heap vs linked list");
  bench::Table table({"star n", "binary: time", "chain: time", "slowdown",
                      "binary msgs", "chain msgs"});
  for (graph::NodeId n : {128u, 512u, 2048u}) {
    const auto g = graph::star(n);
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    Rng r1(1), r2(1);
    auto binary_inst = sim::Instance::create(g, opt, r1);
    auto chain_inst = sim::Instance::create(g, opt, r2);
    advice::apply_oracle(binary_inst, *advice::child_encoding_oracle(0, 2));
    advice::apply_oracle(chain_inst, *advice::child_encoding_oracle(0, 1));
    const auto delays = sim::unit_delay();
    const auto b = sim::run_async(binary_inst, *delays, sim::wake_single(0),
                                  5, advice::child_encoding_kernel());
    const auto c = sim::run_async(chain_inst, *delays, sim::wake_single(0), 5,
                                  advice::child_encoding_kernel());
    table.add_row({bench::fmt_u(n), bench::fmt_f(b.metrics.time_units(), 0),
                   bench::fmt_f(c.metrics.time_units(), 0),
                   bench::fmt_f(c.metrics.time_units() /
                                    std::max(1.0, b.metrics.time_units()),
                                1),
                   bench::fmt_u(b.metrics.messages),
                   bench::fmt_u(c.metrics.messages)});
  }
  table.print();
  std::printf(
      "same advice length and message count, but the binary heap turns "
      "Theta(deg) latency into O(log deg) — this is why Theorem 5(B) is "
      "O(D log n) rather than O(D + Delta).\n");
}

void ablation_threshold() {
  bench::section(
      "A4: Theorem 5(A) degree threshold sweep (why sqrt(n) is the optimum)");
  const graph::NodeId n = 900;
  Rng rng(4);
  // Star-of-stars: many medium-degree tree nodes, so the threshold matters.
  const auto g = graph::connected_gnp(n, 0.15, rng);
  bench::Table table({"threshold", "messages", "max advice (bits)",
                      "avg advice (bits)"});
  const double root_n = std::sqrt(static_cast<double>(n));
  for (double t : {2.0, root_n / 4, root_n, root_n * 4,
                   static_cast<double>(n)}) {
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    Rng irng(1);
    auto inst = sim::Instance::create(g, opt, irng);
    const auto stats =
        advice::apply_oracle(inst, *advice::sqrt_threshold_oracle(0, t));
    const auto delays = sim::unit_delay();
    const auto result = sim::run_async(inst, *delays, sim::wake_all(n), 3,
                                       advice::sqrt_threshold_kernel());
    table.add_row({bench::fmt_f(t, 1), bench::fmt_u(result.metrics.messages),
                   bench::fmt_u(stats.max_bits),
                   bench::fmt_f(stats.avg_bits, 1)});
  }
  table.print();
  std::printf(
      "low thresholds make everyone broadcast (many messages, tiny advice); "
      "high thresholds store long port lists (big advice). The theorem's "
      "sqrt(n) sits at the knee of the messages-vs-advice curve.\n");
}

}  // namespace

int main() {
  ablation_rank_discarding();
  ablation_sampling_rate();
  ablation_cen_arity();
  ablation_threshold();
  return 0;
}
