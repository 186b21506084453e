// Shared helpers for the test suite: instance construction shorthands,
// one-call run wrappers, and a catalog of workload graphs.
#pragma once

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/kernel.hpp"

namespace rise::test {

inline sim::Instance make_instance(
    const graph::Graph& g, sim::Knowledge knowledge,
    sim::Bandwidth bandwidth = sim::Bandwidth::LOCAL,
    std::uint64_t seed = 12345) {
  sim::InstanceOptions opt;
  opt.knowledge = knowledge;
  opt.bandwidth = bandwidth;
  Rng rng(seed);
  return sim::Instance::create(g, opt, rng);
}

inline sim::RunResult run_async_unit(const sim::Instance& inst,
                                     const sim::WakeSchedule& schedule,
                                     const sim::KernelRunner& kernel,
                                     std::uint64_t seed = 7) {
  const auto delays = sim::unit_delay();
  return sim::run_async(inst, *delays, schedule, seed, kernel);
}

struct NamedGraph {
  std::string name;
  graph::Graph graph;
};

/// A diverse catalog of small-to-medium connected graphs.
inline std::vector<NamedGraph> graph_catalog(std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<NamedGraph> out;
  out.push_back({"path_40", graph::path(40)});
  out.push_back({"cycle_41", graph::cycle(41)});
  out.push_back({"star_50", graph::star(50)});
  out.push_back({"complete_24", graph::complete(24)});
  out.push_back({"grid_8x9", graph::grid(8, 9)});
  out.push_back({"torus_6x7", graph::torus(6, 7)});
  out.push_back({"hypercube_6", graph::hypercube(6)});
  out.push_back({"tree_60", graph::random_tree(60, rng)});
  out.push_back({"gnp_70", graph::connected_gnp(70, 0.08, rng)});
  out.push_back({"regular_48_5", graph::random_regular(48, 5, rng)});
  out.push_back({"lollipop_12_20", graph::lollipop(12, 20)});
  out.push_back({"barbell_10_6", graph::barbell(10, 6)});
  return out;
}

}  // namespace rise::test
