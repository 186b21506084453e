// Cross-engine and adversarial-robustness properties:
//   * under unit delays, the asynchronous engine reproduces the synchronous
//     engine's wake times for message-driven algorithms;
//   * FIFO holds for *every* delay policy (parameterized sweep);
//   * "failure injection": extreme delay skew (one slow channel, congestion
//     penalties) never breaks correctness, only timing.
//   * profiling transparency: attaching an obs::Probe never changes what a
//     run computes — digests match the unprofiled run bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "check/scenario.hpp"
#include "test_util.hpp"

namespace rise {
namespace {

using sim::Knowledge;

TEST(EngineEquivalence, FloodingWakeTimesMatchAcrossEngines) {
  for (const auto& [name, g] : test::graph_catalog()) {
    const auto inst = test::make_instance(g, Knowledge::KT0);
    const auto schedule = sim::wake_single(0);
    const auto delays = sim::unit_delay();
    const auto async_result = sim::run_async(inst, *delays, schedule, 1,
                                             algo::flooding_kernel());
    const auto sync_result =
        sim::run_sync(inst, schedule, 1, algo::flooding_kernel());
    EXPECT_EQ(async_result.wake_time, sync_result.wake_time) << name;
    EXPECT_EQ(async_result.metrics.messages, sync_result.metrics.messages)
        << name;
  }
}

TEST(EngineEquivalence, AdviceSchemeMatchesAcrossEngines) {
  Rng rng(3);
  const auto g = graph::connected_gnp(60, 0.08, rng);
  auto inst = test::make_instance(g, Knowledge::KT0, sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::fip06_oracle());
  const auto schedule = sim::wake_set({5, 40});
  const auto delays = sim::unit_delay();
  const auto a = sim::run_async(inst, *delays, schedule, 1,
                                advice::fip06_kernel());
  const auto s = sim::run_sync(inst, schedule, 1, advice::fip06_kernel());
  EXPECT_EQ(a.wake_time, s.wake_time);
  EXPECT_EQ(a.metrics.messages, s.metrics.messages);
}

struct PolicyParam {
  std::string name;
  sim::Time tau;
};

class DelayPolicySweep : public ::testing::TestWithParam<PolicyParam> {
 protected:
  std::unique_ptr<sim::DelayPolicy> make(std::uint64_t seed) const {
    const auto& p = GetParam();
    if (p.name == "unit") return sim::unit_delay();
    if (p.name == "fixed") return sim::fixed_delay(p.tau);
    if (p.name == "random") return sim::random_delay(p.tau, seed);
    if (p.name == "slow") return sim::slow_channels_delay(p.tau, 3, seed);
    return sim::congestion_delay(p.tau);
  }
};

TEST_P(DelayPolicySweep, FifoHolds) {
  // 100 numbered messages over one channel must arrive in order under any
  // policy.
  const auto g = graph::path(2);
  const auto inst = test::make_instance(g, sim::Knowledge::KT1);
  std::vector<std::uint64_t> log;
  const sim::ProcessFactory factory = [&log](graph::NodeId node) {
    class P final : public sim::Process {
     public:
      P(std::vector<std::uint64_t>* l, bool sender) : log_(l), sender_(sender) {}
      void on_wake(sim::Context& ctx, sim::WakeCause cause) override {
        if (sender_ && cause == sim::WakeCause::kAdversary) {
          for (std::uint64_t i = 0; i < 100; ++i) {
            ctx.send(0, sim::make_message(1, {i}, 32));
          }
        }
      }
      void on_message(sim::Context&, const sim::Incoming& in) override {
        if (!sender_) log_->push_back(in.msg.payload[0]);
      }
      std::vector<std::uint64_t>* log_;
      bool sender_;
    };
    return std::make_unique<P>(&log, node == 0);
  };
  const auto delays = make(GetParam().tau * 7 + 1);
  sim::run_async(inst, *delays, sim::wake_single(0), 1,
                 sim::make_kernel(sim::ProcessAlgorithm{factory}));
  ASSERT_EQ(log.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(log[i], i);
}

TEST_P(DelayPolicySweep, CorrectnessUnderInjectedSkew) {
  // Correctness of wake-up survives any delay policy; time stays within
  // rho_awk units for flooding (delays are at most one unit per hop).
  Rng rng(11);
  const auto g = graph::connected_gnp(70, 0.07, rng);
  const auto inst = test::make_instance(g, sim::Knowledge::KT1);
  const auto delays = make(42);
  for (const auto& schedule :
       {sim::wake_single(0), sim::wake_set({0, 69})}) {
    const auto flood = sim::run_async(inst, *delays, schedule, 2,
                                      algo::flooding_kernel());
    EXPECT_TRUE(flood.all_awake()) << GetParam().name;
    EXPECT_LE(flood.metrics.time_units(),
              sim::schedule_awake_distance(g, schedule) + 1.0)
        << GetParam().name;
    const auto dfs = sim::run_async(inst, *delays, schedule, 2,
                                    algo::ranked_dfs_kernel());
    EXPECT_TRUE(dfs.all_awake()) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DelayPolicySweep,
    ::testing::Values(PolicyParam{"unit", 1}, PolicyParam{"fixed", 6},
                      PolicyParam{"random", 9}, PolicyParam{"slow", 25},
                      PolicyParam{"congestion", 12}),
    [](const ::testing::TestParamInfo<PolicyParam>& i) {
      return i.param.name;
    });

TEST(FailureInjection, OneGluedChannelDoesNotStallAdviceSchemes) {
  // A channel stuck at tau = 200 delays but cannot lose messages; tree-based
  // schemes still finish, just later.
  Rng rng(4);
  const auto g = graph::connected_gnp(50, 0.1, rng);
  auto inst = test::make_instance(g, sim::Knowledge::KT0,
                                  sim::Bandwidth::CONGEST);
  advice::apply_oracle(inst, *advice::child_encoding_oracle());
  const auto delays = sim::slow_channels_delay(200, 2, 99);
  const auto result = sim::run_async(inst, *delays, sim::wake_single(0), 1,
                                     advice::child_encoding_kernel());
  EXPECT_TRUE(result.all_awake());
}

TEST(FailureInjection, CongestionPenaltyPunishesChattyAlgorithmsOnly) {
  // congestion_delay grows with per-channel traffic: flooding (1 msg per
  // channel) is unaffected while a chatty sender pays.
  const auto g = graph::path(2);
  const auto inst = test::make_instance(g, sim::Knowledge::KT1);
  const auto delays = sim::congestion_delay(50);
  sim::Time last = 0;
  const sim::ProcessFactory chatty = [&last](graph::NodeId node) {
    class P final : public sim::Process {
     public:
      P(sim::Time* l, bool sender) : last_(l), sender_(sender) {}
      void on_wake(sim::Context& ctx, sim::WakeCause cause) override {
        if (sender_ && cause == sim::WakeCause::kAdversary) {
          for (int i = 0; i < 60; ++i) ctx.send(0, sim::make_message(1, {}, 8));
        }
      }
      void on_message(sim::Context& ctx, const sim::Incoming&) override {
        *last_ = ctx.now();
      }
      sim::Time* last_;
      bool sender_;
    };
    return std::make_unique<P>(&last, node == 0);
  };
  sim::run_async(inst, *delays, sim::wake_single(0), 1,
                 sim::make_kernel(sim::ProcessAlgorithm{chatty}));
  // 60 messages with delays 1,2,...,50,50,...: the last lands at tau = 50
  // ticks — fifty times later than under unit delays.
  EXPECT_EQ(last, 50u);
}

TEST(ProfilingTransparency, ProbeNeverChangesTheRunDigest) {
  // The observation contract (src/obs/probe.hpp): a probe only reads the
  // run — no RNG draws, no control-flow changes. Pin it across 50 sampled
  // scenarios spanning all six algorithm families (including the
  // sleeping-model smis/smatching pair, whose awake accounting and message
  // drops must be observation-only too), every graph family the fuzzer
  // knows, both engines, and every delay policy: the profiled run's digest
  // must be bit-identical to the plain run's.
  constexpr std::uint64_t kCampaignSeed = 0x0B5E55ED;
  for (std::uint64_t index = 0; index < 50; ++index) {
    const check::Scenario s = check::sample_scenario(kCampaignSeed, index);
    const app::ExperimentReport plain = app::run_experiment(s.spec);
    const app::ProfiledReport profiled = app::run_profiled(s.spec);
    EXPECT_EQ(check::digest_run(plain.result),
              check::digest_run(profiled.report.result))
        << "trial " << index << ": " << check::repro_command(s);
    // Awake accounting is itself probe-transparent: the profile's histogram
    // is exactly the plain run's per-node awake-round vector.
    std::uint64_t awake_total = 0;
    std::uint64_t awake_max = 0;
    for (std::uint32_t a : plain.result.awake_rounds) {
      awake_total += a;
      awake_max = std::max<std::uint64_t>(awake_max, a);
    }
    EXPECT_EQ(profiled.profile.awake_total, awake_total)
        << check::repro_command(s);
    EXPECT_EQ(profiled.profile.awake_max, awake_max)
        << check::repro_command(s);
    EXPECT_EQ(profiled.profile.awake_rounds.count(),
              plain.result.awake_rounds.size())
        << check::repro_command(s);
    EXPECT_EQ(profiled.profile.sleep_dropped,
              plain.result.metrics.sleep_dropped)
        << check::repro_command(s);
    // While we have the profile: the phase partition invariant holds on
    // every scenario, not just the conformance table's.
    EXPECT_EQ(profiled.profile.phase_message_sum(),
              profiled.report.result.metrics.messages)
        << check::repro_command(s);
    EXPECT_EQ(profiled.profile.phase_bit_sum(),
              profiled.report.result.metrics.bits)
        << check::repro_command(s);
  }
}

}  // namespace
}  // namespace rise
