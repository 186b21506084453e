// Footnote 3 of the paper: push-only gossip cannot solve wake-up quickly on
// general graphs. On K_{n-1} plus one pendant vertex (constant vertex
// expansion!), the pendant waits Omega(n) expected rounds, while the clique
// itself is informed in O(log n) rounds.
#include <algorithm>
#include <cstdio>

#include "algo/gossip.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

void run() {
  bench::section("Footnote 3: push gossip on K_{n-1} + pendant");
  bench::Table table({"n", "avg rounds: clique informed",
                      "avg rounds: pendant woken", "pendant/clique",
                      "pendant/n"});
  for (graph::NodeId n : {32u, 64u, 128u, 256u}) {
    const auto g = graph::complete_plus_pendant(n);
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    Rng rng(n);
    const auto inst = sim::Instance::create(g, opt, rng);
    double clique_sum = 0, pendant_sum = 0;
    int trials = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto result = sim::run_sync(inst, sim::wake_single(1), seed,
                                        algo::push_gossip_kernel(40ull * n));
      if (!result.all_awake()) continue;
      ++trials;
      sim::Time clique_max = 0;
      for (graph::NodeId u = 0; u + 1 < n; ++u) {
        clique_max = std::max(clique_max, result.wake_time[u]);
      }
      clique_sum += static_cast<double>(clique_max);
      pendant_sum += static_cast<double>(result.wake_time[n - 1]);
    }
    const double clique_avg = clique_sum / trials;
    const double pendant_avg = pendant_sum / trials;
    table.add_row({bench::fmt_u(n), bench::fmt_f(clique_avg, 1),
                   bench::fmt_f(pendant_avg, 1),
                   bench::fmt_f(pendant_avg / clique_avg, 1),
                   bench::fmt_f(pendant_avg / n, 2)});
  }
  table.print();
  std::printf(
      "shape check: the clique column grows like log n, the pendant column "
      "like n (pendant/n is flat) — push-only gossip is no substitute for a "
      "wake-up algorithm, which is why the paper's algorithms cannot just "
      "reuse gossip machinery.\n");
}

}  // namespace

int main() {
  run();
  return 0;
}
