// Cross-product integration sweep: every wake-up algorithm x every catalog
// graph x several adversarial wake schedules and delay policies x seeds.
// The single invariant of the wake-up problem: every node wakes up.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "advice/spanner_scheme.hpp"
#include "advice/sqrt_threshold.hpp"
#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "test_util.hpp"

namespace rise {
namespace {

using sim::Bandwidth;
using sim::Knowledge;

struct AlgoSpec {
  std::string name;
  Knowledge knowledge;
  Bandwidth bandwidth;
  bool synchronous;
  // Builds the (possibly advised) instance and the family handle.
  std::function<std::pair<sim::Instance, sim::KernelRunner>(
      const graph::Graph&)>
      setup;
};

std::vector<AlgoSpec> algo_specs() {
  std::vector<AlgoSpec> specs;
  specs.push_back(
      {"flooding", Knowledge::KT0, Bandwidth::CONGEST, false,
       [](const graph::Graph& g) {
         return std::make_pair(
             test::make_instance(g, Knowledge::KT0, Bandwidth::CONGEST),
             algo::flooding_kernel());
       }});
  specs.push_back(
      {"ranked_dfs", Knowledge::KT1, Bandwidth::LOCAL, false,
       [](const graph::Graph& g) {
         return std::make_pair(test::make_instance(g, Knowledge::KT1),
                               algo::ranked_dfs_kernel());
       }});
  specs.push_back(
      {"fast_wakeup", Knowledge::KT1, Bandwidth::LOCAL, true,
       [](const graph::Graph& g) {
         return std::make_pair(test::make_instance(g, Knowledge::KT1),
                               algo::fast_wakeup_kernel());
       }});
  specs.push_back(
      {"fip06", Knowledge::KT0, Bandwidth::CONGEST, false,
       [](const graph::Graph& g) {
         auto inst =
             test::make_instance(g, Knowledge::KT0, Bandwidth::CONGEST);
         advice::apply_oracle(inst, *advice::fip06_oracle());
         return std::make_pair(std::move(inst), advice::fip06_kernel());
       }});
  specs.push_back(
      {"sqrt_threshold", Knowledge::KT0, Bandwidth::CONGEST, false,
       [](const graph::Graph& g) {
         auto inst =
             test::make_instance(g, Knowledge::KT0, Bandwidth::CONGEST);
         advice::apply_oracle(inst, *advice::sqrt_threshold_oracle());
         return std::make_pair(std::move(inst),
                               advice::sqrt_threshold_kernel());
       }});
  specs.push_back(
      {"child_encoding", Knowledge::KT0, Bandwidth::CONGEST, false,
       [](const graph::Graph& g) {
         auto inst =
             test::make_instance(g, Knowledge::KT0, Bandwidth::CONGEST);
         advice::apply_oracle(inst, *advice::child_encoding_oracle());
         return std::make_pair(std::move(inst),
                               advice::child_encoding_kernel());
       }});
  specs.push_back(
      {"spanner_k2", Knowledge::KT0, Bandwidth::CONGEST, false,
       [](const graph::Graph& g) {
         auto inst =
             test::make_instance(g, Knowledge::KT0, Bandwidth::CONGEST);
         advice::apply_oracle(inst, *advice::spanner_oracle(2));
         return std::make_pair(std::move(inst), advice::spanner_kernel());
       }});
  return specs;
}

struct SweepParam {
  std::string algo;
  std::string schedule;
  std::uint64_t seed;
};

class WakeupMatrix : public ::testing::TestWithParam<SweepParam> {};

sim::WakeSchedule make_schedule(const std::string& kind, const graph::Graph& g,
                                std::uint64_t seed) {
  Rng rng(seed);
  if (kind == "single") return sim::wake_single(0);
  if (kind == "pair") {
    return sim::wake_set({0, g.num_nodes() - 1});
  }
  if (kind == "random") {
    return sim::wake_random_subset(g.num_nodes(), 0.3, rng);
  }
  if (kind == "staggered") {
    return sim::staggered_doubling(g.num_nodes(), 5, 2.0, rng);
  }
  return sim::wake_all(g.num_nodes());
}

TEST_P(WakeupMatrix, AllNodesWake) {
  const auto& param = GetParam();
  const auto specs = algo_specs();
  const auto it = std::find_if(
      specs.begin(), specs.end(),
      [&](const AlgoSpec& s) { return s.name == param.algo; });
  ASSERT_NE(it, specs.end());
  for (const auto& [gname, g] : test::graph_catalog()) {
    // FastWakeUp with a staggered schedule can legitimately exceed the
    // 10*rho window per batch; still must wake everyone.
    auto [inst, kernel] = it->setup(g);
    const auto schedule = make_schedule(param.schedule, g, param.seed);
    sim::RunResult result;
    if (it->synchronous) {
      result = sim::run_sync(inst, schedule, param.seed, kernel);
    } else {
      const auto delays = sim::random_delay(4, param.seed * 17 + 1);
      result =
          sim::run_async(inst, *delays, schedule, param.seed, kernel);
    }
    EXPECT_TRUE(result.all_awake())
        << param.algo << " on " << gname << " schedule=" << param.schedule
        << " seed=" << param.seed;
    EXPECT_GE(result.metrics.messages, 1u) << param.algo << " on " << gname;
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (const auto& spec : algo_specs()) {
    for (const std::string schedule :
         {"single", "pair", "random", "staggered"}) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        params.push_back({spec.name, schedule, seed});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WakeupMatrix, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      return param_info.param.algo + "_" + param_info.param.schedule + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace rise
