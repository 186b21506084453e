#include "runner/campaign.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "runner/result_sink.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace rise::runner {
namespace {

app::ExperimentSpec tiny_spec() {
  app::ExperimentSpec spec;
  spec.graph = "path:16";
  spec.algorithm = "flooding";
  spec.schedule = "single";
  spec.delay = "unit";
  spec.seed = 2026;
  return spec;
}

TEST(TrialSeed, IsDeterministicAndSpread) {
  EXPECT_EQ(trial_seed(42, 0), trial_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 256; ++i) seen.insert(trial_seed(42, i));
  EXPECT_EQ(seen.size(), 256u);  // no collisions over a small range
  // Different base seeds give unrelated streams.
  EXPECT_NE(trial_seed(42, 0), trial_seed(43, 0));
  // Sequential trial indices must not map to sequential seeds (that would
  // correlate with a kSequential campaign of a nearby base seed).
  EXPECT_NE(trial_seed(42, 1), trial_seed(42, 0) + 1);
}

TEST(GridAxis, ParsesParamAndValues) {
  const GridAxis axis = parse_grid_axis("algo=flooding,ranked_dfs,ttl:3");
  EXPECT_EQ(axis.param, "algo");
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(axis.values[0], "flooding");
  EXPECT_EQ(axis.values[1], "ranked_dfs");
  EXPECT_EQ(axis.values[2], "ttl:3");
}

TEST(GridAxis, RejectsMalformedText) {
  EXPECT_THROW(parse_grid_axis("algoflooding"), CheckError);    // no '='
  EXPECT_THROW(parse_grid_axis("algo="), CheckError);           // no values
  EXPECT_THROW(parse_grid_axis("algo=a,,b"), CheckError);       // empty value
  EXPECT_THROW(parse_grid_axis("=a,b"), CheckError);            // no param
  app::ExperimentSpec spec;
  EXPECT_THROW(apply_grid_param(spec, "bogus", "x"), CheckError);
}

TEST(ExpandTrials, GridIsCartesianConfigMajor) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 2;
  plan.grid = {GridAxis{"graph", {"path:8", "cycle:8"}},
               GridAxis{"algo", {"flooding", "ranked_dfs", "fast_wakeup"}}};
  EXPECT_EQ(config_count(plan), 6u);
  const std::vector<Trial> trials = expand_trials(plan);
  ASSERT_EQ(trials.size(), 12u);  // 2 graphs x 3 algos x 2 seeds

  // Config-major, seed-minor; last grid axis fastest.
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].index, i);
    EXPECT_EQ(trials[i].config_index, i / plan.num_seeds);
    EXPECT_EQ(trials[i].seed_index, i % plan.num_seeds);
    EXPECT_EQ(trials[i].spec.seed, trial_seed(plan.base.seed, i));
  }
  EXPECT_EQ(trials[0].spec.graph, "path:8");
  EXPECT_EQ(trials[0].spec.algorithm, "flooding");
  EXPECT_EQ(trials[2].spec.algorithm, "ranked_dfs");
  EXPECT_EQ(trials[4].spec.algorithm, "fast_wakeup");
  EXPECT_EQ(trials[6].spec.graph, "cycle:8");
  EXPECT_EQ(trials[6].spec.algorithm, "flooding");
}

TEST(ExpandTrials, SequentialModeUsesBasePlusIndex) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.seed = 100;
  plan.num_seeds = 4;
  plan.seed_mode = SeedMode::kSequential;
  const std::vector<Trial> trials = expand_trials(plan);
  ASSERT_EQ(trials.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trials[i].spec.seed, 100u + i);
  }
}

TEST(RunCampaign, DeterminismAcrossJobs) {
  // The ISSUE acceptance criterion scaled to test time: >= 32 trials, one
  // worker vs eight, bit-identical per-trial seeds and aggregates.
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 16;
  plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs"}}};

  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 8;
  const CampaignResult a = run_campaign(plan, serial);
  const CampaignResult b = run_campaign(plan, parallel);

  ASSERT_EQ(a.trials.size(), 32u);
  ASSERT_EQ(b.trials.size(), 32u);
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.trials[i].trial.spec.seed, b.trials[i].trial.spec.seed);
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    EXPECT_EQ(a.trials[i].messages, b.trials[i].messages);
    EXPECT_EQ(a.trials[i].bits, b.trials[i].bits);
    EXPECT_EQ(a.trials[i].time_units, b.trials[i].time_units);  // exact
    EXPECT_EQ(a.trials[i].wakeup_span, b.trials[i].wakeup_span);
    EXPECT_EQ(a.trials[i].awake_node_ticks, b.trials[i].awake_node_ticks);
  }
  // Aggregates are accumulated in trial-index order, so they must be
  // byte-identical doubles, not just approximately equal.
  ASSERT_EQ(a.configs.size(), b.configs.size());
  const auto expect_same = [](const ConfigStats& x, const ConfigStats& y) {
    EXPECT_EQ(x.trials, y.trials);
    EXPECT_EQ(x.failures, y.failures);
    EXPECT_EQ(x.errors, y.errors);
    EXPECT_EQ(x.messages.count(), y.messages.count());
    EXPECT_EQ(x.messages.mean(), y.messages.mean());
    EXPECT_EQ(x.messages.stddev(), y.messages.stddev());
    EXPECT_EQ(x.messages.median(), y.messages.median());
    EXPECT_EQ(x.time_units.mean(), y.time_units.mean());
    EXPECT_EQ(x.wakeup_span.mean(), y.wakeup_span.mean());
    EXPECT_EQ(x.awake_node_ticks.mean(), y.awake_node_ticks.mean());
  };
  for (std::size_t c = 0; c < a.configs.size(); ++c) {
    SCOPED_TRACE(c);
    expect_same(a.configs[c], b.configs[c]);
  }
  expect_same(a.total, b.total);
  EXPECT_EQ(a.jobs, 1u);
  EXPECT_EQ(b.jobs, 8u);
}

// trial_jobs composes with jobs: a jobs=2 x trial_jobs=3 campaign (pool of
// six threads, admission-gated to two concurrent trials) must reproduce the
// serial campaign bit for bit. The grid mixes lock-step families (where the
// round-parallel engine actually engages) with an async family (where
// trial_jobs is ignored by contract).
TEST(RunCampaign, TrialJobsComposesWithJobsBitIdentically) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.graph = "cgnp:40:0.15";
  plan.num_seeds = 6;
  plan.grid = {GridAxis{"algo", {"fast_wakeup", "smis", "flooding"}}};

  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 2;
  parallel.trial_jobs = 3;
  const CampaignResult a = run_campaign(plan, serial);
  const CampaignResult b = run_campaign(plan, parallel);

  ASSERT_EQ(a.trials.size(), 18u);
  ASSERT_EQ(b.trials.size(), 18u);
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.trials[i].trial.spec.seed, b.trials[i].trial.spec.seed);
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    EXPECT_EQ(a.trials[i].messages, b.trials[i].messages);
    EXPECT_EQ(a.trials[i].bits, b.trials[i].bits);
    EXPECT_EQ(a.trials[i].time_units, b.trials[i].time_units);
    EXPECT_EQ(a.trials[i].wakeup_span, b.trials[i].wakeup_span);
    EXPECT_EQ(a.trials[i].awake_node_ticks, b.trials[i].awake_node_ticks);
  }
  EXPECT_EQ(a.total.failures, b.total.failures);
  EXPECT_EQ(a.total.errors, b.total.errors);
}

TEST(RunCampaign, CountsSleepersAsFailures) {
  // ttl:1 flooding dies out on a long path: the run completes but leaves
  // nodes asleep, which is a failure (not an error) under the default plan.
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.graph = "path:64";
  plan.base.algorithm = "ttl:1";
  plan.num_seeds = 3;
  const CampaignResult result = run_campaign(plan);
  EXPECT_EQ(result.total.trials, 3u);
  EXPECT_EQ(result.total.failures, 3u);
  EXPECT_EQ(result.total.errors, 0u);
  EXPECT_EQ(result.total.messages.count(), 0u);  // failures leave no samples
  for (const auto& t : result.trials) {
    EXPECT_TRUE(t.ok);
    EXPECT_FALSE(t.all_awake);
  }

  // With require_all_awake = false the same trials all contribute samples.
  plan.require_all_awake = false;
  const CampaignResult relaxed = run_campaign(plan);
  EXPECT_EQ(relaxed.total.failures, 0u);
  EXPECT_EQ(relaxed.total.messages.count(), 3u);
}

TEST(RunCampaign, CapturesTrialErrors) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.algorithm = "no_such_algorithm";
  plan.num_seeds = 2;
  const CampaignResult result = run_campaign(plan);  // must not throw
  EXPECT_EQ(result.total.errors, 2u);
  EXPECT_EQ(result.total.failures, 0u);
  for (const auto& t : result.trials) {
    EXPECT_FALSE(t.ok);
    EXPECT_FALSE(t.error.empty());
  }
}

TEST(RunCampaign, RejectsEmptyPlans) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 0;
  EXPECT_THROW(run_campaign(plan), CheckError);
}

TEST(RunCampaign, CustomTrialFunctionIsUsed) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 8;
  plan.run = [](const app::ExperimentSpec& spec) {
    app::ExperimentReport report;
    report.algorithm = "stub";
    report.num_nodes = 1;
    report.result.metrics.messages = spec.seed % 1000;  // seed-dependent
    report.result.wake_time = {0};                      // the one node woke
    return report;
  };
  const CampaignResult result = run_campaign(plan);
  EXPECT_EQ(result.total.trials, 8u);
  EXPECT_EQ(result.total.errors, 0u);
  ASSERT_EQ(result.total.messages.count(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.trials[i].messages,
              trial_seed(plan.base.seed, i) % 1000);
  }
}

TEST(RunCampaign, SinkSeesTrialsInIndexOrder) {
  struct OrderSink final : ResultSink {
    std::vector<std::size_t> indices;
    bool summarized = false;
    void trial(const TrialResult& result) override {
      EXPECT_FALSE(summarized);
      indices.push_back(result.trial.index);
    }
    void summary(const CampaignResult&) override { summarized = true; }
  };
  OrderSink sink;
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 24;
  CampaignOptions options;
  options.jobs = 6;
  options.sink = &sink;
  run_campaign(plan, options);
  ASSERT_EQ(sink.indices.size(), 24u);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(sink.indices[i], i);
  EXPECT_TRUE(sink.summarized);
}

TEST(RunCampaign, FormatMentionsConfigsAndTotals) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 4;
  plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs"}}};
  const CampaignResult result = run_campaign(plan);
  const std::string text = format_campaign(result);
  EXPECT_NE(text.find("flooding"), std::string::npos);
  EXPECT_NE(text.find("ranked_dfs"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
  EXPECT_NE(text.find("8"), std::string::npos);  // 2 configs x 4 seeds
}

void expect_trials_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.trials[i].trial.spec.seed, b.trials[i].trial.spec.seed);
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    EXPECT_EQ(a.trials[i].num_nodes, b.trials[i].num_nodes);
    EXPECT_EQ(a.trials[i].num_edges, b.trials[i].num_edges);
    EXPECT_EQ(a.trials[i].all_awake, b.trials[i].all_awake);
    EXPECT_EQ(a.trials[i].awake_count, b.trials[i].awake_count);
    EXPECT_EQ(a.trials[i].messages, b.trials[i].messages);
    EXPECT_EQ(a.trials[i].bits, b.trials[i].bits);
    EXPECT_EQ(a.trials[i].time_units, b.trials[i].time_units);  // exact
    EXPECT_EQ(a.trials[i].rounds, b.trials[i].rounds);
    EXPECT_EQ(a.trials[i].wakeup_span, b.trials[i].wakeup_span);
    EXPECT_EQ(a.trials[i].awake_node_ticks, b.trials[i].awake_node_ticks);
  }
}

TEST(RunCampaign, ReuseNeverChangesResults) {
  // The campaign's correctness contract: for either prepare mode, the
  // prepared/reuse hot path (shared preparation cache, per-worker
  // workspaces, four workers) is bit-identical per trial to preparing and
  // executing that trial from scratch.
  for (const PrepareMode mode :
       {PrepareMode::kPerTrial, PrepareMode::kSharedConfig}) {
    SCOPED_TRACE(mode == PrepareMode::kPerTrial ? "per_trial"
                                                : "shared_config");
    CampaignPlan plan;
    plan.base = tiny_spec();
    plan.base.graph = "cgnp:60:0.08";
    plan.base.delay = "random:3";
    plan.num_seeds = 12;
    plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs"}}};
    plan.prepare_mode = mode;

    CampaignOptions parallel;
    parallel.jobs = 4;
    const CampaignResult reused = run_campaign(plan, parallel);
    ASSERT_EQ(reused.trials.size(), 24u);
    for (const TrialResult& r : reused.trials) {
      SCOPED_TRACE(r.trial.index);
      app::ExperimentSpec prep_spec = r.trial.spec;
      if (mode == PrepareMode::kSharedConfig) prep_spec.seed = plan.base.seed;
      const app::ExperimentReport fresh = app::execute_prepared(
          app::prepare_experiment(prep_spec), r.trial.spec);
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.num_nodes, fresh.num_nodes);
      EXPECT_EQ(r.num_edges, fresh.num_edges);
      EXPECT_EQ(r.all_awake, fresh.result.all_awake());
      EXPECT_EQ(r.messages, fresh.result.metrics.messages);
      EXPECT_EQ(r.bits, fresh.result.metrics.bits);
      EXPECT_EQ(r.time_units, fresh.result.metrics.time_units());  // exact
      EXPECT_EQ(r.rounds, fresh.result.metrics.rounds);
      EXPECT_EQ(r.result_digest, check::digest_run(fresh.result));
    }
  }
}

TEST(RunCampaign, PrepareModesDifferOnlyInTopologySharing) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.base.graph = "gnp:80:0.05";
  plan.num_seeds = 8;

  plan.prepare_mode = PrepareMode::kPerTrial;
  const CampaignResult per_trial = run_campaign(plan);
  plan.prepare_mode = PrepareMode::kSharedConfig;
  const CampaignResult shared = run_campaign(plan);

  // kSharedConfig: one topology (drawn from the base seed) for the whole
  // config, so edge counts agree across trials; kPerTrial: each trial draws
  // its own graph, so some seed produces a different edge count.
  ASSERT_EQ(shared.trials.size(), 8u);
  for (const TrialResult& t : shared.trials) {
    EXPECT_EQ(t.num_edges, shared.trials[0].num_edges);
    EXPECT_EQ(t.num_nodes, shared.trials[0].num_nodes);
  }
  bool any_differs = false;
  for (const TrialResult& t : per_trial.trials) {
    any_differs = any_differs || t.num_edges != per_trial.trials[0].num_edges;
  }
  EXPECT_TRUE(any_differs);  // gnp edge count varies across seeds
}

TEST(RunCampaign, PreparedCountersTrackCacheUse) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 6;
  plan.grid = {GridAxis{"algo", {"flooding", "ranked_dfs"}}};

  // Shared: one preparation per config, the rest are cache hits.
  plan.prepare_mode = PrepareMode::kSharedConfig;
  const CampaignResult shared = run_campaign(plan);
  EXPECT_EQ(shared.prepared_configs, 2u);
  EXPECT_EQ(shared.prepared_cache_hits, 10u);

  // Per-trial: every trial prepares for itself.
  plan.prepare_mode = PrepareMode::kPerTrial;
  const CampaignResult per_trial = run_campaign(plan);
  EXPECT_EQ(per_trial.prepared_configs, 12u);
  EXPECT_EQ(per_trial.prepared_cache_hits, 0u);
}

TEST(RunCampaign, SharedConfigProfilesStayDeterministic) {
  // Profiled kSharedConfig campaigns must not attach any trial's probe to
  // the cached preparation (which trial builds it first is a scheduling
  // race): profiles carry only per-run phases and identical totals whether
  // the campaign ran on one worker or several.
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 8;
  plan.prepare_mode = PrepareMode::kSharedConfig;
  plan.profile = true;
  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 4;
  const CampaignResult a = run_campaign(plan, serial);
  const CampaignResult b = run_campaign(plan, parallel);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_NE(a.trials[i].profile, nullptr);
    ASSERT_NE(b.trials[i].profile, nullptr);
    EXPECT_EQ(a.trials[i].profile->messages, b.trials[i].profile->messages);
    EXPECT_EQ(a.trials[i].profile->events, b.trials[i].profile->events);
  }
  expect_trials_identical(a, b);
}

TEST(RunCampaign, SharedConfigRejectsCustomTrialFn) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 2;
  plan.prepare_mode = PrepareMode::kSharedConfig;
  plan.run = [](const app::ExperimentSpec&) { return app::ExperimentReport{}; };
  EXPECT_THROW(run_campaign(plan), CheckError);
}

TEST(PreparedConfigKey, SeparatesConfigsAndIgnoresPerRunFields) {
  app::ExperimentSpec spec = tiny_spec();
  const std::string key = prepared_config_key(spec);
  app::ExperimentSpec other = spec;
  other.schedule = "all";
  other.delay = "random:9";
  EXPECT_EQ(prepared_config_key(other), key);  // per-run fields excluded
  other = spec;
  other.graph = "cycle:16";
  EXPECT_NE(prepared_config_key(other), key);
  other = spec;
  other.algorithm = "ranked_dfs";
  EXPECT_NE(prepared_config_key(other), key);
  other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(prepared_config_key(other), key);  // seed class is part of the key
}

// Satellite (f): a written results file parses with the json.hpp reader and
// carries the schema version, exact seeds, and consistent counts.
TEST(JsonResultSinkTest, RoundTripsThroughJsonReader) {
  CampaignPlan plan;
  plan.base = tiny_spec();
  plan.num_seeds = 8;
  plan.grid = {GridAxis{"algo", {"flooding", "ttl:1"}}};
  std::ostringstream os;
  JsonResultSink sink(os, plan, /*jobs=*/3);
  CampaignOptions options;
  options.jobs = 3;
  options.sink = &sink;
  const CampaignResult result = run_campaign(plan, options);

  const json::Value doc = json::parse(os.str());
  EXPECT_EQ(doc.at("schema_version").u64, kResultsSchemaVersion);
  EXPECT_EQ(kResultsSchemaVersion, 2u);  // provenance + digests + store block
  EXPECT_EQ(doc.at("num_seeds").u64, 8u);

  // Schema v2: a provenance block records where and when the run happened.
  const json::Value& prov = doc.at("provenance");
  EXPECT_FALSE(prov.at("hostname").string.empty());
  EXPECT_FALSE(prov.at("commit").string.empty());
  EXPECT_EQ(prov.at("started_at").string.size(), 20u);  // ISO-8601 Zulu
  EXPECT_EQ(prov.at("started_at").string.back(), 'Z');
  EXPECT_EQ(prov.at("shard_index").u64, 0u);
  EXPECT_EQ(prov.at("shard_count").u64, 1u);
  EXPECT_FALSE(prov.at("merged").boolean);
  EXPECT_EQ(doc.at("jobs").u64, 3u);
  EXPECT_EQ(doc.at("seed_mode").string, "splitmix");
  EXPECT_EQ(doc.at("prepare_mode").string, "per_trial");  // plan default
  EXPECT_EQ(doc.at("base").at("graph").string, "path:16");
  ASSERT_EQ(doc.at("grid").size(), 1u);
  EXPECT_EQ(doc.at("grid").at(std::size_t{0}).at("param").string, "algo");

  const json::Value& trials = doc.at("trials");
  ASSERT_EQ(trials.size(), 16u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    SCOPED_TRACE(i);
    const json::Value& t = trials.at(i);
    EXPECT_EQ(t.at("trial").u64, i);
    // Seeds exceed 2^53; the reader must hand them back as exact u64.
    ASSERT_TRUE(t.at("seed").is_integer);
    EXPECT_EQ(t.at("seed").u64, result.trials[i].trial.spec.seed);
    EXPECT_EQ(t.at("messages").u64, result.trials[i].messages);
    // Schema v2: every ok trial carries its result digest and cache flag.
    ASSERT_TRUE(t.at("digest").is_integer);
    EXPECT_EQ(t.at("digest").u64, result.trials[i].result_digest);
    EXPECT_NE(t.at("digest").u64, 0u);
    EXPECT_FALSE(t.at("cached").boolean);  // no store in this run
  }

  // Schema v2: the summary reports store usage (disabled here).
  const json::Value& store_block = doc.at("summary").at("store");
  EXPECT_FALSE(store_block.at("enabled").boolean);
  EXPECT_EQ(store_block.at("hits").u64, 0u);
  EXPECT_EQ(store_block.at("misses").u64, 0u);

  const json::Value& total = doc.at("summary").at("total");
  EXPECT_EQ(total.at("trials").u64, 16u);
  EXPECT_EQ(total.at("messages").at("count").u64,
            result.total.messages.count());
  EXPECT_DOUBLE_EQ(total.at("messages").at("mean").number,
                   result.total.messages.mean());
  EXPECT_GE(doc.at("timing").at("wall_ms").number, 0.0);
}

}  // namespace
}  // namespace rise::runner
