// Table 1, rows "Theorem 6" and "Corollary 2": the spanner + child-encoding
// advising schemes in the asynchronous KT0 CONGEST model.
//
//   Thm 6: time O(k rho_awk log n), msgs O(k n^{1+1/k}),
//          advice O(n^{1/k} log^2 n).
//   Cor 2: k = floor(log2 n) + 1 => O(rho log^2 n) time, O(n log^2 n) msgs,
//          O(log^2 n) advice.
//
// The k-sweep shows the three-way trade-off directly; the Cor 2 row is the
// k = log n endpoint, at advice::corollary2_k(n) — the k the Corollary 2
// oracle itself picks. Every swept spanner is checked with verify_spanner at
// stretch 2k-1; the bench exits 1 if any check fails (a CI gate).
#include <cmath>
#include <cstdio>

#include "advice/spanner_scheme.hpp"
#include "bench_util.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

/// Prints the sweep; returns false if some spanner fails verify_spanner.
bool k_sweep(const std::string& gname, const graph::Graph& g,
             const sim::WakeSchedule& schedule) {
  const double n = g.num_nodes();
  const double rho = sim::schedule_awake_distance(g, schedule);
  std::printf("\nworkload %s: n=%.0f m=%zu rho_awk=%.0f\n", gname.c_str(), n,
              g.num_edges(), rho);
  bench::Table table({"k", "spanner edges", "time_units", "time/(k rho lg n)",
                      "messages", "msgs/(k n^{1+1/k})", "max advice",
                      "advice/(n^{1/k} lg^2 n)", "stretch ok"});
  const double logn = std::log2(n);
  const unsigned k_cor2 = advice::corollary2_k(g.num_nodes());
  std::vector<std::pair<std::string, unsigned>> ks = {
      {"1 (=flood)", 1}, {"2", 2}, {"3", 3}, {"4", 4},
      {"Cor2: " + std::to_string(k_cor2), k_cor2}};
  bool all_verified = true;
  for (const auto& [label, k] : ks) {
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    Rng rng(k + 10);
    auto inst = sim::Instance::create(g, opt, rng);
    const auto stats = advice::apply_oracle(inst, *advice::spanner_oracle(k));
    const auto spanner = graph::greedy_spanner(g, k);
    const bool verified = graph::verify_spanner(g, spanner, 2 * k - 1);
    if (!verified) {
      std::fprintf(stderr,
                   "FAIL: %s k=%u: greedy spanner violates stretch %u\n",
                   gname.c_str(), k, 2 * k - 1);
      all_verified = false;
    }
    const auto delays = sim::unit_delay();
    const auto result = sim::run_async(inst, *delays, schedule, k,
                                       advice::spanner_kernel());
    const double n_pow = std::pow(n, 1.0 + 1.0 / k);
    table.add_row(
        {label, bench::fmt_u(spanner.num_edges()),
         bench::fmt_f(result.metrics.time_units(), 0),
         bench::fmt_f(result.metrics.time_units() /
                          (k * std::max(1.0, rho) * logn),
                      3),
         bench::fmt_u(result.metrics.messages),
         bench::fmt_f(static_cast<double>(result.metrics.messages) /
                          (k * n_pow),
                      3),
         bench::fmt_u(stats.max_bits),
         bench::fmt_f(static_cast<double>(stats.max_bits) /
                          (std::pow(n, 1.0 / k) * logn * logn),
                      3),
         verified ? "yes" : "NO"});
  }
  table.print();
  return all_verified;
}

}  // namespace

int main() {
  bench::section("Theorem 6 / Corollary 2: k-sweep of the spanner scheme");
  bool ok = true;
  {
    Rng rng(1);
    const auto g = graph::connected_gnp(600, 0.15, rng);
    ok &= k_sweep("dense_gnp_600", g, sim::wake_single(0));
  }
  {
    Rng rng(2);
    const auto g = graph::connected_gnp(1000, 10.0 / 1000, rng);
    Rng srng(3);
    ok &= k_sweep("sparse_gnp_1000", g,
                  sim::wake_random_subset(1000, 0.05, srng));
  }
  std::printf(
      "\nshape check: messages fall and time rises as k grows; every ratio "
      "column stays O(1) — the Theorem 6 three-way trade-off. The Cor 2 row "
      "has polylog advice with near-linear messages.\n");
  return ok ? 0 : 1;
}
