// Bring-your-own network: load a topology from an edge list, pick an
// algorithm by spec string, and export both a Graphviz rendering of the
// instance and a CSV trace of the execution — the full I/O surface of the
// library in one place.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "app/spec.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  using namespace rise;

  // A small campus network, as a user would ship it in a file. Pass a path
  // to your own edge list as argv[1] to use it instead.
  const char* builtin =
      "# campus backbone\n"
      "n 12\n"
      "0 1\n0 2\n1 2\n"   // core triangle
      "1 3\n3 4\n3 5\n"   // east wing
      "2 6\n6 7\n6 8\n"   // west wing
      "0 9\n9 10\n9 11\n"  // labs
      "4 5\n7 8\n10 11\n";  // redundancy links
  graph::Graph g;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 2;
    }
    g = graph::read_edge_list(file);
  } else {
    g = graph::from_edge_list(builtin);
  }
  std::printf("loaded topology: n=%u m=%zu diameter=%u\n\n", g.num_nodes(),
              g.num_edges(), graph::diameter(g));

  // The oracle precomputes child-encoding advice; node 4 wakes first.
  auto algorithm = app::parse_algorithm_spec("cen");
  sim::InstanceOptions opt;
  opt.knowledge = algorithm.knowledge;
  opt.bandwidth = algorithm.bandwidth;
  Rng rng(1);
  auto inst = sim::Instance::create(g, opt, rng);
  const auto stats = advice::apply_oracle(inst, *algorithm.oracle);
  std::printf("advice: max %zu bits, avg %.1f bits per node\n\n",
              stats.max_bits, stats.avg_bits);

  // Run with a CSV trace attached.
  std::ostringstream trace_csv;
  sim::CsvTraceSink sink(trace_csv);
  const auto delays = sim::random_delay(3, 7);
  const auto result = sim::run_async(inst, *delays, sim::wake_single(4), 1,
                                     algorithm.kernel, {},
                                     &sink);
  std::printf("all awake: %s | time %.1f units | %llu messages\n\n",
              result.all_awake() ? "yes" : "NO", result.metrics.time_units(),
              static_cast<unsigned long long>(result.metrics.messages));

  std::printf("--- first trace rows (full CSV has %zu bytes) ---\n",
              trace_csv.str().size());
  std::istringstream lines(trace_csv.str());
  std::string line;
  for (int i = 0; i < 10 && std::getline(lines, line); ++i) {
    std::printf("%s\n", line.c_str());
  }

  std::printf("\n--- Graphviz DOT (awake set highlighted) ---\n");
  graph::write_dot(std::cout, g, {4});
  return 0;
}
