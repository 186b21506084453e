// Parallel experiment campaigns: expand an app::ExperimentSpec × seed range
// × parameter grid into independent trials, execute them on a work-stealing
// ThreadPool, and aggregate the results deterministically.
//
// Determinism contract: each trial's RNG seed is derived via SplitMix64 from
// (base_seed, trial_index) — never from thread identity or completion order
// — and per-trial results are collected into a slot indexed by trial and
// aggregated in trial-index order after the pool drains. A campaign
// therefore produces bit-identical per-trial records and aggregate
// statistics for any --jobs value and any scheduling interleaving; only the
// wall-clock fields differ (and those are kept out of the aggregates).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "runner/prepared.hpp"
#include "support/stats.hpp"

namespace rise::store {
class ResultStore;
}  // namespace rise::store

namespace rise::runner {

/// How trial seeds derive from the campaign's base seed.
enum class SeedMode {
  /// seed = SplitMix64(base_seed, trial_index): decorrelated streams, the
  /// campaign default (see file comment).
  kSplitMix,
  /// seed = base_seed + seed_index: the documented app::run_sweep contract
  /// (seeds base, base+1, ...), kept for reproducing legacy sweeps.
  kSequential,
};

/// SplitMix64-derived seed for one trial; pure function of its arguments.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial_index);

/// One axis of the parameter grid: the spec field named `param` (one of
/// "graph" | "schedule" | "algo" | "delay") takes each of `values` in turn.
struct GridAxis {
  std::string param;
  std::vector<std::string> values;
};

/// Parses "PARAM=a,b,c" (the rise_cli --grid argument). Values must be
/// non-empty and comma-free; the spec grammars themselves never use commas
/// except in the rare set:a,b,c schedule, which a grid cannot sweep.
GridAxis parse_grid_axis(const std::string& text);

/// Substitutes one grid value into the spec; CheckError on unknown param.
void apply_grid_param(app::ExperimentSpec& spec, const std::string& param,
                      const std::string& value);

struct Trial {
  std::size_t index = 0;  ///< global trial index (config-major, seed-minor)
  std::size_t config_index = 0;
  std::size_t seed_index = 0;
  app::ExperimentSpec spec;  ///< grid-substituted; seed = the derived seed
};

/// Scalar observables of one finished trial. The per-node vectors of
/// sim::RunResult are deliberately dropped so retaining thousands of trials
/// stays cheap.
struct TrialResult {
  Trial trial;
  bool ok = false;    ///< ran to completion without throwing
  std::string error;  ///< exception text when !ok

  // Topology and model (valid when ok).
  std::uint32_t num_nodes = 0;
  std::size_t num_edges = 0;
  std::uint32_t rho_awk = 0;
  bool synchronous = false;

  // Outcome metrics (valid when ok).
  bool all_awake = false;
  std::uint32_t awake_count = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double time_units = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t wakeup_span = 0;       ///< only meaningful when all_awake
  std::uint64_t awake_node_ticks = 0;
  std::size_t advice_max_bits = 0;
  double advice_avg_bits = 0.0;

  /// Wall-clock duration of this trial. Nondeterministic — excluded from
  /// every aggregate; reported per trial and in the summary timing block.
  double wall_ms = 0.0;

  /// check::digest_run of the trial's full RunResult (0 when !ok). A pure
  /// function of the trial's inputs, so it is the unit the shard/resume
  /// equivalence invariant is stated over: any shard split or store-resumed
  /// run must reproduce the single-process digest stream bit for bit.
  std::uint64_t result_digest = 0;

  /// True when this result was served from the content-addressed result
  /// store instead of being executed (see CampaignOptions::store).
  bool from_store = false;

  /// Per-run observability profile, populated only when CampaignPlan::profile
  /// is set (and the plan uses the default run function). shared_ptr keeps
  /// TrialResult cheap to copy; null otherwise. Timer wall-clock fields inside
  /// are nondeterministic, but everything the aggregate consumes is not.
  std::shared_ptr<const obs::RunProfile> profile;
};

/// Aggregates over the successful trials of one grid config (or of the
/// whole campaign). Failure accounting matches app::run_sweep: a trial that
/// runs but leaves nodes asleep is a failure; a trial that throws is an
/// error; neither contributes samples. (Plans with require_all_awake ==
/// false aggregate every ok trial instead — see CampaignPlan.)
struct ConfigStats {
  app::ExperimentSpec spec;  ///< grid-substituted; seed = the base seed
  std::size_t trials = 0;
  std::size_t failures = 0;
  std::size_t errors = 0;
  SampleStats messages;
  SampleStats bits;
  SampleStats time_units;
  SampleStats wakeup_span;
  SampleStats awake_node_ticks;
};

struct CampaignResult {
  std::vector<TrialResult> trials;  ///< trial-index order
  std::vector<ConfigStats> configs;
  ConfigStats total;
  std::size_t jobs = 1;       ///< resolved worker count
  double wall_ms = 0.0;       ///< whole-campaign wall clock
  double trials_per_sec = 0.0;

  /// Merged profile across all profiled trials, in trial-index order (so
  /// its SampleStats see a fixed insertion sequence for any --jobs value).
  /// Empty (trials == 0) unless CampaignPlan::profile was set.
  obs::ProfileAggregate profile;

  /// Preparations actually built (cache misses under kSharedConfig; one
  /// per trial otherwise; 0 with a custom TrialFn).
  std::uint64_t prepared_configs = 0;
  /// Trials served by an already-built preparation (kSharedConfig only; 0
  /// otherwise).
  std::uint64_t prepared_cache_hits = 0;

  /// Result-store traffic (0 unless CampaignOptions::store was set): trials
  /// served from the store vs executed and appended to it.
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
};

/// Observer of a finished campaign. trial() is invoked once per trial in
/// strictly increasing trial-index order (after the pool has drained, on the
/// caller's thread), then summary() once.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void trial(const TrialResult& result) = 0;
  virtual void summary(const CampaignResult& result) = 0;
};

/// Computes one trial; defaults to app::run_experiment. Benches whose
/// workloads are not expressible as spec strings (the lower-bound families)
/// supply their own function and still get parallel execution, seed
/// derivation, aggregation, and JSON output. Must be thread-safe for
/// concurrent calls with distinct specs.
using TrialFn = std::function<app::ExperimentReport(const app::ExperimentSpec&)>;

struct CampaignPlan {
  app::ExperimentSpec base;
  std::vector<GridAxis> grid;  ///< cartesian product, last axis fastest
  std::size_t num_seeds = 1;
  SeedMode seed_mode = SeedMode::kSplitMix;
  TrialFn run;  ///< empty = app::run_experiment

  /// With the default (true), a trial that leaves nodes asleep is a failure
  /// and contributes no samples. Lower-bound harnesses whose success
  /// criterion is not "everyone awake" (e.g. NIH probing, where most of the
  /// family intentionally sleeps) set this to false so every completed
  /// trial is aggregated.
  bool require_all_awake = true;

  /// Attach an obs::Probe to every trial and merge the resulting RunProfiles
  /// into CampaignResult::profile. Only honoured with the default run
  /// function (a custom TrialFn has no seam to thread a probe through); the
  /// probe observes without perturbing, so profiled trials produce the same
  /// metrics and digests as unprofiled ones.
  bool profile = false;

  /// Where each trial's immutable inputs come from (see runner/prepared.hpp).
  /// kSharedConfig requires the default run function and changes trial
  /// semantics (one topology per configuration); kPerTrial preserves legacy
  /// digests exactly.
  PrepareMode prepare_mode = PrepareMode::kPerTrial;
};

/// One shard of an N-way trial-index split (see runner/shard.hpp for the
/// planner and the multi-process orchestrator built on top).
struct ShardSpec {
  std::uint32_t index = 0;  ///< in [0, count)
  std::uint32_t count = 1;  ///< 1 = the whole campaign (the default)

  bool whole_campaign() const { return count <= 1; }
};

/// How trial indices map onto shards. Both are deterministic; per-trial
/// results are identical either way (seed-partition independence tests
/// sweep both), they differ only in load shape.
enum class ShardStrategy {
  /// index % count == shard: interleaves configs across workers (default).
  kRoundRobin,
  /// Contiguous blocks of ceil(total/count) indices per shard.
  kBlock,
};

struct CampaignOptions {
  std::size_t jobs = 1;        ///< worker threads; 0 = all hardware threads
  bool progress = false;       ///< completed/total + trials/s + ETA on stderr
  ResultSink* sink = nullptr;  ///< optional observer (e.g. JsonResultSink)

  /// Intra-trial parallelism (synchronous runs only): each trial steps its
  /// rounds in this many chunks on the campaign pool. The pool is sized
  /// jobs x trial_jobs, and at most `jobs` trials run concurrently (an
  /// admission gate keeps the product from oversubscribing), so --jobs x
  /// --trial-jobs never exceeds the thread budget. Results are bit-identical
  /// for any value; asynchronous trials ignore it.
  std::uint32_t trial_jobs = 1;

  /// Execute only this shard's trials (global trial indices are preserved
  /// in the results). The default runs the whole campaign.
  ShardSpec shard;
  ShardStrategy shard_strategy = ShardStrategy::kRoundRobin;

  /// Content-addressed trial cache (src/store). When set (default run
  /// function only): a trial whose key has a record is served from the
  /// store without executing; every executed trial is appended. Profiled
  /// campaigns bypass lookups (a cached record has no RunProfile to serve)
  /// but still append. Serving from the store never changes results — the
  /// record holds exactly the fields TrialResult would, digest included.
  store::ResultStore* store = nullptr;

  /// Fault injection for resume tests (0 = off): after this many executed
  /// (store-miss) trials have been recorded, the process SIGKILLs itself —
  /// a deterministic stand-in for a worker crashing mid-campaign.
  int die_after = 0;
};

/// Number of grid configurations (product of axis sizes; 1 with no grid).
std::size_t config_count(const CampaignPlan& plan);

/// The full trial list in index order. CheckError on an invalid grid.
std::vector<Trial> expand_trials(const CampaignPlan& plan);

/// Runs the campaign. Per-trial exceptions are captured into TrialResult;
/// plan-level errors (bad grid axis, zero seeds) throw.
CampaignResult run_campaign(const CampaignPlan& plan,
                            const CampaignOptions& options = {});

/// Rebuilds result.configs / result.total / result.profile from
/// result.trials, aggregating in vector order (the caller guarantees that
/// is trial-index order). Shared by run_campaign and the shard merge path
/// (runner/shard.cpp) so a merged N-shard campaign aggregates with exactly
/// the single-process algebra. Config specs are re-derived from the plan,
/// so configs whose trials live on other shards still carry their spec.
void aggregate_campaign(const CampaignPlan& plan, CampaignResult& result);

/// Human-readable multi-line summary (per-config and total stats).
std::string format_campaign(const CampaignResult& result);

}  // namespace rise::runner
