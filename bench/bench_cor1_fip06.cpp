// Table 1, row "[FIP06], Cor. 1": the BFS-tree advising scheme in the
// asynchronous KT0 CONGEST model.
// Claim: O(D) time, O(n) messages, O(n) max advice, O(log n) average advice.
#include <cmath>
#include <cstdio>

#include "advice/fip06.hpp"
#include "bench_util.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

void run() {
  bench::section("Corollary 1 (FIP06 + BFS tree + bitmap trick)");
  bench::Table table({"graph", "n", "D", "time_units", "time/D", "messages",
                      "msgs/n", "max advice (bits)", "avg advice (bits)",
                      "avg/log2(n)"});
  Rng wrng(1);
  struct W {
    std::string name;
    graph::Graph g;
  };
  std::vector<W> workloads;
  workloads.push_back({"gnp_1000", graph::connected_gnp(1000, 6.0 / 1000, wrng)});
  workloads.push_back({"grid_30x30", graph::grid(30, 30)});
  workloads.push_back({"star_1000", graph::star(1000)});
  workloads.push_back({"tree_1000", graph::random_tree(1000, wrng)});
  workloads.push_back({"dense_gnp_600", graph::connected_gnp(600, 0.2, wrng)});

  for (const auto& [name, g] : workloads) {
    sim::InstanceOptions opt;
    opt.knowledge = sim::Knowledge::KT0;
    opt.bandwidth = sim::Bandwidth::CONGEST;
    Rng rng(3);
    auto inst = sim::Instance::create(g, opt, rng);
    const auto stats = advice::apply_oracle(inst, *advice::fip06_oracle());
    Rng srng(9);
    const auto schedule =
        sim::wake_random_subset(g.num_nodes(), 0.2, srng);
    const auto delays = sim::unit_delay();
    const auto result = sim::run_async(inst, *delays, schedule, 4,
                                       advice::fip06_kernel());
    const double d = graph::diameter(g);
    const double n = g.num_nodes();
    table.add_row(
        {name, bench::fmt_u(g.num_nodes()), bench::fmt_f(d, 0),
         bench::fmt_f(result.metrics.time_units(), 1),
         bench::fmt_f(result.metrics.time_units() / d, 2),
         bench::fmt_u(result.metrics.messages),
         bench::fmt_f(static_cast<double>(result.metrics.messages) / n, 3),
         bench::fmt_u(stats.max_bits), bench::fmt_f(stats.avg_bits, 1),
         bench::fmt_f(stats.avg_bits / std::log2(n), 2)});
  }
  table.print();
  std::printf(
      "shape check: time/D <= 2, msgs/n <= 2, max advice <= n bits (bitmap), "
      "avg advice O(log n).\n");
}

}  // namespace

int main() {
  run();
  return 0;
}
