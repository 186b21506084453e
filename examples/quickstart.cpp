// Quickstart: the smallest complete use of the library.
//
// 1. Build a network topology.
// 2. Let the adversary fix IDs / ports and a wake schedule.
// 3. Run a wake-up algorithm under the asynchronous engine.
// 4. Read off the paper's three complexity measures.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>

#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"

int main() {
  using namespace rise;

  // A random connected network of 200 nodes.
  Rng rng(/*seed=*/42);
  const graph::Graph g = graph::connected_gnp(200, 0.05, rng);
  std::printf("network: n=%u nodes, m=%zu edges, diameter=%u\n",
              g.num_nodes(), g.num_edges(), graph::diameter(g));

  // The adversary chooses node IDs (and, under KT0, port mappings).
  sim::InstanceOptions options;
  options.knowledge = sim::Knowledge::KT1;  // nodes know their neighbors' IDs
  options.bandwidth = sim::Bandwidth::LOCAL;
  const sim::Instance instance = sim::Instance::create(g, options, rng);

  // The adversary wakes three nodes at time 0 and two more later.
  sim::WakeSchedule schedule;
  schedule.wakes = {{0, 3}, {0, 77}, {0, 150}, {40, 10}, {90, 199}};
  std::printf("awake distance rho_awk = %u\n",
              sim::schedule_awake_distance(g, schedule));

  // Messages may be delayed up to tau = 5 ticks, adversarially.
  const auto delays = sim::random_delay(/*tau=*/5, /*seed=*/7);

  for (const auto& [name, kernel] :
       {std::pair<const char*, sim::KernelRunner>{"flooding",
                                                  algo::flooding_kernel()},
        {"ranked-DFS (Theorem 3)", algo::ranked_dfs_kernel()}}) {
    const sim::RunResult result =
        sim::run_async(instance, *delays, schedule, /*seed=*/1, kernel);
    std::printf(
        "%-24s all awake: %s | time: %.1f units | messages: %llu | "
        "bits: %llu\n",
        name, result.all_awake() ? "yes" : "NO", result.metrics.time_units(),
        static_cast<unsigned long long>(result.metrics.messages),
        static_cast<unsigned long long>(result.metrics.bits));
  }
  return 0;
}
