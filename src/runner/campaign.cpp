#include "runner/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "check/scenario.hpp"
#include "runner/progress.hpp"
#include "runner/shard.hpp"
#include "runner/thread_pool.hpp"
#include "store/digest.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rise::runner {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The calling worker thread's recycled engine storage. Campaign trials run
/// only on pool threads, so thread-locals give one workspace per worker
/// without the pool needing a worker-id API; each workspace is freed when
/// its worker thread exits (pool destruction, inside run_campaign).
sim::RunWorkspace& worker_workspace() {
  static thread_local sim::RunWorkspace workspace;
  return workspace;
}

/// How the default-run path obtains and executes a trial's preparation.
struct PreparedPolicy {
  /// Non-null exactly under kSharedConfig: every trial of a config is
  /// served one preparation, built from `prepare_seed` (the base seed).
  PreparedConfigCache* cache = nullptr;
  std::uint64_t prepare_seed = 0;
  std::uint32_t trial_jobs = 1;  ///< intra-trial round chunks (sync runs)
  sim::ChunkExecutor* trial_executor = nullptr;  ///< where chunks run
};

/// The campaign's read-through/write-through connection to the result store
/// (one per run_campaign call; shared by all worker threads).
struct StoreContext {
  store::ResultStore* store = nullptr;
  std::string prepare_tag;  ///< keys every trial of this campaign
  bool serve_hits = false;  ///< false while profiling (records carry no profile)
  int die_after = 0;        ///< fault injection; see CampaignOptions
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<int> executed{0};
};

store::TrialRecord to_record(const TrialResult& r,
                             const std::string& prepare_tag) {
  store::TrialRecord rec;
  rec.graph = r.trial.spec.graph;
  rec.schedule = r.trial.spec.schedule;
  rec.algorithm = r.trial.spec.algorithm;
  rec.delay = r.trial.spec.delay;
  rec.seed = r.trial.spec.seed;
  rec.prepare_tag = prepare_tag;
  rec.ok = r.ok;
  rec.error = r.error;
  rec.num_nodes = r.num_nodes;
  rec.num_edges = r.num_edges;
  rec.rho_awk = r.rho_awk;
  rec.synchronous = r.synchronous;
  rec.all_awake = r.all_awake;
  rec.awake_count = r.awake_count;
  rec.messages = r.messages;
  rec.bits = r.bits;
  rec.time_units = r.time_units;
  rec.rounds = r.rounds;
  rec.wakeup_span = r.wakeup_span;
  rec.awake_node_ticks = r.awake_node_ticks;
  rec.advice_max_bits = r.advice_max_bits;
  rec.advice_avg_bits = r.advice_avg_bits;
  rec.result_digest = r.result_digest;
  rec.wall_ms = r.wall_ms;
  return rec;
}

void from_record(const store::TrialRecord& rec, TrialResult& r) {
  r.ok = rec.ok;
  r.error = rec.error;
  r.num_nodes = rec.num_nodes;
  r.num_edges = rec.num_edges;
  r.rho_awk = rec.rho_awk;
  r.synchronous = rec.synchronous;
  r.all_awake = rec.all_awake;
  r.awake_count = rec.awake_count;
  r.messages = rec.messages;
  r.bits = rec.bits;
  r.time_units = rec.time_units;
  r.rounds = rec.rounds;
  r.wakeup_span = rec.wakeup_span;
  r.awake_node_ticks = rec.awake_node_ticks;
  r.advice_max_bits = static_cast<std::size_t>(rec.advice_max_bits);
  r.advice_avg_bits = rec.advice_avg_bits;
  r.result_digest = rec.result_digest;
  // The original execution's wall clock, not this campaign's; kept for the
  // record but flagged by from_store so consumers can tell.
  r.wall_ms = rec.wall_ms;
  r.from_store = true;
}

TrialResult execute_trial(const Trial& trial, const TrialFn& run,
                          bool profile, const PreparedPolicy& policy) {
  TrialResult r;
  r.trial = trial;
  const auto t0 = Clock::now();
  try {
    app::ExperimentReport report;
    if (!run) {
      // Default path: prepare (or fetch) the immutable inputs, then execute
      // with the trial's own seed. Under kPerTrial the prep seed IS the
      // trial seed, so this is bit-identical to the legacy
      // run_experiment-per-trial campaign.
      obs::Probe probe;
      std::shared_ptr<const app::PreparedExperiment> prepared;
      if (policy.cache != nullptr) {
        // Cached preparations are shared across trials, so no single
        // trial's probe may observe the build (which trial builds first is
        // a scheduling race; attaching its probe would make per-trial
        // profiles nondeterministic). Shared-mode profiles therefore have
        // no setup.graph/instance/advice timers — the cost is amortized
        // away, which is the point.
        app::ExperimentSpec prep_spec = trial.spec;
        prep_spec.seed = policy.prepare_seed;
        prepared = policy.cache->get_or_prepare(prep_spec);
      } else {
        prepared = std::make_shared<const app::PreparedExperiment>(
            app::prepare_experiment(trial.spec, profile ? &probe : nullptr));
      }
      app::RunInstruments instruments;
      if (profile) instruments.probe = &probe;
      instruments.trial_jobs = policy.trial_jobs;
      instruments.trial_executor = policy.trial_executor;
      report = app::execute_prepared(*prepared, trial.spec, instruments,
                                     &worker_workspace());
      if (profile) {
        r.profile = std::make_shared<const obs::RunProfile>(
            app::take_run_profile(probe, report, trial.spec));
      }
    } else {
      report = run(trial.spec);
    }
    r.ok = true;
    r.num_nodes = report.num_nodes;
    r.num_edges = report.num_edges;
    r.rho_awk = report.rho_awk;
    r.synchronous = report.synchronous;
    r.all_awake = report.result.all_awake();
    r.awake_count = report.result.awake_count();
    r.messages = report.result.metrics.messages;
    r.bits = report.result.metrics.bits;
    r.time_units = report.result.metrics.time_units();
    r.rounds = report.result.metrics.rounds;
    r.wakeup_span = r.all_awake ? report.result.wakeup_span() : 0;
    r.awake_node_ticks = report.result.awake_node_ticks();
    r.advice_max_bits = report.advice.max_bits;
    r.advice_avg_bits = report.advice.avg_bits;
    // Digest before the result buffers are recycled. A pure function of the
    // trial's inputs — the currency of the shard/resume equivalence tests.
    r.result_digest = check::digest_run(report.result);
    if (!run) {
      // Everything needed is extracted; hand the per-node result buffers
      // back so the next trial on this worker reuses their capacity.
      worker_workspace().recycle_result(std::move(report.result));
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.wall_ms = ms_between(t0, Clock::now());
  return r;
}

/// execute_trial behind the result store: serve a recorded trial without
/// executing, record an executed one, and honour the die-after fault point.
TrialResult execute_or_fetch(const Trial& trial, const TrialFn& run,
                             bool profile, const PreparedPolicy& policy,
                             StoreContext& sc) {
  if (sc.store == nullptr) return execute_trial(trial, run, profile, policy);
  if (sc.serve_hits) {
    const store::Digest128 key = store::trial_key(trial.spec, sc.prepare_tag);
    if (const store::TrialRecord* rec =
            sc.store->lookup(key, trial.spec, sc.prepare_tag)) {
      TrialResult r;
      r.trial = trial;
      from_record(*rec, r);
      sc.hits.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
  }
  sc.misses.fetch_add(1, std::memory_order_relaxed);
  TrialResult r = execute_trial(trial, run, profile, policy);
  sc.store->append(to_record(r, sc.prepare_tag));
  if (sc.die_after > 0 &&
      sc.executed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          sc.die_after) {
    // Fault injection: the record above is flushed, then this process dies
    // as abruptly as a machine failure would take it. A restarted worker
    // resumes from exactly this point via the store.
    std::raise(SIGKILL);
  }
  return r;
}

void accumulate(ConfigStats& stats, const TrialResult& r,
                bool require_all_awake) {
  ++stats.trials;
  if (!r.ok) {
    ++stats.errors;
    return;
  }
  if (require_all_awake && !r.all_awake) {
    ++stats.failures;
    return;
  }
  stats.messages.add(static_cast<double>(r.messages));
  stats.bits.add(static_cast<double>(r.bits));
  stats.time_units.add(r.time_units);
  stats.wakeup_span.add(static_cast<double>(r.wakeup_span));
  stats.awake_node_ticks.add(static_cast<double>(r.awake_node_ticks));
}

void append_stats_line(std::ostringstream& os, const char* name,
                       const SampleStats& s) {
  if (s.count() == 0) return;
  os << "  " << name << ": mean " << s.mean() << "  sd " << s.stddev()
     << "  min " << s.min() << "  median " << s.median() << "  max "
     << s.max() << "\n";
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial_index) {
  // One SplitMix64 step over a state that folds the base seed with the
  // trial index; the odd multiplier spreads adjacent indices across the
  // whole state space. Distinct from the mix_seed(seed, 0xA..0xD) streams
  // run_experiment derives internally, so campaign seeds never collide with
  // a trial's own sub-streams by construction of the tag.
  std::uint64_t state =
      base_seed ^ ((trial_index + 0x51CEB00Dull) * 0xD1B54A32D192ED03ull);
  return splitmix64(state);
}

GridAxis parse_grid_axis(const std::string& text) {
  const auto eq = text.find('=');
  RISE_CHECK_MSG(eq != std::string::npos && eq > 0,
                 "grid axis '" << text << "' is not PARAM=a,b,c");
  GridAxis axis;
  axis.param = text.substr(0, eq);
  std::string values = text.substr(eq + 1);
  std::istringstream is(values);
  std::string field;
  while (std::getline(is, field, ',')) {
    RISE_CHECK_MSG(!field.empty(),
                   "grid axis '" << text << "' has an empty value");
    axis.values.push_back(field);
  }
  RISE_CHECK_MSG(!axis.values.empty(),
                 "grid axis '" << text << "' has no values");
  // Validate the param name eagerly so a typo fails before any trial runs.
  app::ExperimentSpec probe;
  apply_grid_param(probe, axis.param, axis.values.front());
  return axis;
}

void apply_grid_param(app::ExperimentSpec& spec, const std::string& param,
                      const std::string& value) {
  if (param == "graph") {
    spec.graph = value;
  } else if (param == "schedule") {
    spec.schedule = value;
  } else if (param == "algo" || param == "algorithm") {
    spec.algorithm = value;
  } else if (param == "delay") {
    spec.delay = value;
  } else {
    RISE_CHECK_MSG(false, "unknown grid param '"
                              << param
                              << "' (expected graph|schedule|algo|delay)");
  }
}

std::size_t config_count(const CampaignPlan& plan) {
  std::size_t count = 1;
  for (const auto& axis : plan.grid) {
    RISE_CHECK_MSG(!axis.values.empty(),
                   "grid axis '" << axis.param << "' has no values");
    count *= axis.values.size();
  }
  return count;
}

namespace {

/// The grid-substituted spec of config `config_index` (seed = the base
/// seed). Shared by expand_trials and aggregate_campaign so the shard merge
/// path re-derives exactly the specs the trials were expanded from.
app::ExperimentSpec config_spec_at(const CampaignPlan& plan,
                                   std::size_t config_index) {
  app::ExperimentSpec spec = plan.base;
  // Decode the config index in mixed radix, last grid axis fastest.
  std::size_t rem = config_index;
  for (std::size_t a = plan.grid.size(); a-- > 0;) {
    const GridAxis& axis = plan.grid[a];
    apply_grid_param(spec, axis.param, axis.values[rem % axis.values.size()]);
    rem /= axis.values.size();
  }
  return spec;
}

}  // namespace

std::vector<Trial> expand_trials(const CampaignPlan& plan) {
  RISE_CHECK_MSG(plan.num_seeds >= 1, "campaign needs at least one seed");
  const std::size_t configs = config_count(plan);
  std::vector<Trial> trials;
  trials.reserve(configs * plan.num_seeds);
  for (std::size_t c = 0; c < configs; ++c) {
    const app::ExperimentSpec config_spec = config_spec_at(plan, c);
    for (std::size_t s = 0; s < plan.num_seeds; ++s) {
      Trial t;
      t.index = c * plan.num_seeds + s;
      t.config_index = c;
      t.seed_index = s;
      t.spec = config_spec;
      t.spec.seed = plan.seed_mode == SeedMode::kSplitMix
                        ? trial_seed(plan.base.seed, t.index)
                        : plan.base.seed + s;
      trials.push_back(std::move(t));
    }
  }
  return trials;
}

CampaignResult run_campaign(const CampaignPlan& plan,
                            const CampaignOptions& options) {
  RISE_CHECK_MSG(!plan.run || plan.prepare_mode == PrepareMode::kPerTrial,
                 "PrepareMode::kSharedConfig requires the default trial "
                 "function (a custom TrialFn has no preparation seam)");
  RISE_CHECK_MSG(options.store == nullptr || !plan.run,
                 "the result store requires the default trial function "
                 "(records are keyed by spec strings, which do not describe "
                 "what a custom TrialFn computes)");
  std::vector<Trial> trials = expand_trials(plan);
  if (!options.shard.whole_campaign()) {
    trials = shard_trials(trials, options.shard, options.shard_strategy);
  }

  // Profiling needs the probe seam; a custom TrialFn has none.
  const bool profile = plan.profile && !plan.run;

  const bool shared_config = plan.prepare_mode == PrepareMode::kSharedConfig;
  PreparedConfigCache cache;
  PreparedPolicy policy;
  policy.prepare_seed = plan.base.seed;
  // The cache only pays off when trials can actually share a preparation,
  // i.e. when the prep seed is per-config rather than per-trial.
  if (shared_config) policy.cache = &cache;

  StoreContext sc;
  sc.store = options.store;
  // A stored record carries no RunProfile, so a profiled campaign cannot be
  // served from the store — it still writes through, warming the store for
  // later unprofiled runs.
  sc.serve_hits = !profile;
  sc.die_after = options.die_after;
  if (sc.store != nullptr) {
    sc.prepare_tag = shared_config ? store::prepare_tag_shared(plan.base.seed)
                                   : store::prepare_tag_per_trial();
  }

  CampaignResult result;
  result.jobs =
      options.jobs == 0 ? ThreadPool::hardware_threads() : options.jobs;
  // Slots are positional over this (possibly shard-filtered) trial subset;
  // each TrialResult keeps its global index in trial.index.
  result.trials.resize(trials.size());

  const auto t0 = Clock::now();
  {
    ProgressReporter progress(trials.size(), options.progress);
    // trial_jobs > 1: the pool carries jobs x trial_jobs threads so every
    // concurrently-running trial can fan its rounds out, and the admission
    // gate caps concurrent trials at `jobs` — the spare threads serve
    // round chunks (ThreadPool::run_chunks) instead of extra trials. With
    // trial_jobs == 1 this is exactly the historical pool.
    const std::uint32_t trial_jobs =
        std::max<std::uint32_t>(1, options.trial_jobs);
    ThreadPool pool(result.jobs * trial_jobs);
    PoolChunkExecutor executor(&pool);
    if (trial_jobs > 1) {
      policy.trial_jobs = trial_jobs;
      policy.trial_executor = &executor;
    }
    AdmissionGate gate(pool, trial_jobs > 1 ? result.jobs : 0);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      // &trials[i] and &result.trials[i] stay valid: neither vector is
      // resized while the pool runs, and each slot is written by exactly
      // one task.
      const Trial* trial = &trials[i];
      TrialResult* slot = &result.trials[i];
      gate.submit([trial, slot, &plan, &policy, &progress, profile, &sc] {
        *slot = execute_or_fetch(*trial, plan.run, profile, policy, sc);
        progress.tick();
      });
    }
    pool.wait_idle();
    progress.finish();
  }
  result.wall_ms = ms_between(t0, Clock::now());
  result.store_hits = sc.hits.load(std::memory_order_relaxed);
  result.store_misses = sc.misses.load(std::memory_order_relaxed);
  if (!plan.run) {
    // Store-served trials prepare nothing; only executed ones count.
    const std::uint64_t executed =
        sc.store != nullptr ? result.store_misses
                            : static_cast<std::uint64_t>(trials.size());
    result.prepared_configs =
        policy.cache != nullptr ? cache.misses() : executed;
    result.prepared_cache_hits = policy.cache != nullptr ? cache.hits() : 0;
  }
  result.trials_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(trials.size()) / (result.wall_ms / 1000.0)
          : 0.0;

  aggregate_campaign(plan, result);

  if (options.sink != nullptr) {
    for (const TrialResult& r : result.trials) options.sink->trial(r);
    options.sink->summary(result);
  }
  return result;
}

void aggregate_campaign(const CampaignPlan& plan, CampaignResult& result) {
  // Aggregate in result.trials order — the caller guarantees trial-index
  // order, fixed regardless of which worker finished first — so SampleStats
  // sees the same insertion sequence for every jobs value, shard split, and
  // merge path.
  result.configs.assign(config_count(plan), ConfigStats{});
  result.total = ConfigStats{};
  result.profile = obs::ProfileAggregate{};
  for (std::size_t c = 0; c < result.configs.size(); ++c) {
    result.configs[c].spec = config_spec_at(plan, c);
  }
  for (const TrialResult& r : result.trials) {
    RISE_CHECK_MSG(r.trial.config_index < result.configs.size(),
                   "trial " << r.trial.index << " names config "
                            << r.trial.config_index << " of a plan with only "
                            << result.configs.size());
    accumulate(result.configs[r.trial.config_index], r,
               plan.require_all_awake);
    accumulate(result.total, r, plan.require_all_awake);
    if (r.profile != nullptr) result.profile.merge(*r.profile);
  }
  result.total.spec = plan.base;
}

std::string format_campaign(const CampaignResult& result) {
  std::ostringstream os;
  os << "campaign  : " << result.configs.size() << " config(s) x "
     << (result.configs.empty() || result.configs[0].trials == 0
             ? 0
             : result.configs[0].trials)
     << " seed(s) = " << result.trials.size() << " trials, jobs "
     << result.jobs << "\n";
  const bool multi = result.configs.size() > 1;
  for (std::size_t c = 0; c < result.configs.size(); ++c) {
    const ConfigStats& config = result.configs[c];
    if (multi) {
      os << "config " << c << "  : graph=" << config.spec.graph
         << " schedule=" << config.spec.schedule
         << " algo=" << config.spec.algorithm
         << " delay=" << config.spec.delay << "\n";
    }
    os << "  runs: " << config.trials << " (" << config.failures
       << " incomplete, " << config.errors << " errors)\n";
    append_stats_line(os, "messages ", config.messages);
    append_stats_line(os, "time     ", config.time_units);
    append_stats_line(os, "wake span", config.wakeup_span);
    if (config.errors > 0) {
      // Surface one representative error so a misconfigured campaign is
      // diagnosable from the summary alone.
      for (const TrialResult& r : result.trials) {
        if (r.trial.config_index == c && !r.ok) {
          os << "  first error: " << r.error << "\n";
          break;
        }
      }
    }
  }
  if (multi) {
    os << "total     : " << result.total.trials << " runs ("
       << result.total.failures << " incomplete, " << result.total.errors
       << " errors)\n";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "wall      : %.1f ms (%.1f trials/s)\n",
                result.wall_ms, result.trials_per_sec);
  os << buf;
  return os.str();
}

}  // namespace rise::runner
