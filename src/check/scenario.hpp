// Deterministic adversarial-scenario sampling and checked replay.
//
// A Scenario is a fully-specified experiment — (graph family x wake schedule
// x delay policy x algorithm x seed) — expressed in the same string-spec
// grammar rise_cli and app::run_experiment consume, so every sampled trial
// doubles as a one-line repro. Sampling derives from SplitMix64 streams of
// (campaign seed, trial index): trial k of seed s is the same scenario on
// every machine, thread count, and run.
//
// run_checked() replays a scenario through the instrumented
// app::run_experiment with an InvariantChecker riding the trace, and digests
// the full RunResult so differential replays (bucket vs heap event queue,
// async-unit-delay vs the lock-step engine, flat kernel vs generated
// Process, 1 vs N runner threads) can be compared bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace rise::check {

/// Deliberate engine-level perturbations, used to prove the checker (and
/// the shrinker behind it) actually bite. Never enabled in production runs.
enum class FaultKind : std::uint8_t {
  kNone,
  /// Wraps the scenario's delay policy so roughly every third message takes
  /// twice the declared tau: deliveries land outside [send+1, send+tau] and
  /// the metrics' time normalizer goes stale — a synthetic causality bug.
  kLateDelivery,
};

struct Scenario {
  app::ExperimentSpec spec;
  std::string family;  ///< one of scenario_families()
};

/// The six algorithm families the fuzzer covers: "flooding" (incl. TTL
/// floods), "ranked_dfs" (all variants), "fast_wakeup", "gossip", "sleeping"
/// (the sleeping-model smis/smatching pair, run with awake accounting and
/// message drops at declared-sleeping nodes), "advice" (the Section-4
/// advising schemes).
const std::vector<std::string>& scenario_families();

/// The scenario family whose sampler emits `algorithm` (an --algo spec);
/// empty for an algorithm no family samples. sample_scenario's
/// s.family == scenario_family_of(s.spec.algorithm) for every scenario.
std::string scenario_family_of(const std::string& algorithm);

struct GeneratorOptions {
  sim::NodeId max_nodes = 96;  ///< >= 8
  sim::Time max_tau = 12;      ///< >= 1
  std::vector<std::string> families;  ///< subset filter; empty = all
};

/// Scenario for trial `index` of campaign `seed` — a pure function of its
/// arguments (plus options).
Scenario sample_scenario(std::uint64_t campaign_seed, std::uint64_t index,
                         const GeneratorOptions& options = {});

/// The tau the scenario *declares*: the parsed delay policy's max_delay()
/// for asynchronous algorithms, 1 for synchronous ones.
sim::Time scenario_tau(const Scenario& s);

/// How to replay a scenario (the differential oracle's axes).
struct RunVariant {
  sim::EventQueue::Mode queue_mode = sim::EventQueue::Mode::kAuto;
  bool force_sync_engine = false;  ///< async algorithm on the sync engine
  FaultKind fault = FaultKind::kNone;
  /// Synchronous runs: step each round in this many chunks (inline
  /// executor — deterministic and threadless). Must digest-match
  /// trial_jobs == 1; ignored by async runs.
  std::uint32_t trial_jobs = 1;
  /// Run the family's generated Process per node instead of its flat
  /// kernel: run_checked replaces the prepared handle with
  /// make_kernel(ProcessAlgorithm{kernel.process_factory()}). Must
  /// digest-match.
  bool virtual_processes = false;
};

struct CheckedRun {
  app::ExperimentReport report;
  std::vector<std::string> violations;  ///< invariant checker findings
  std::string error;     ///< exception text; empty when the run completed
  std::uint64_t digest = 0;  ///< digest_run of the result (0 on error)

  bool clean() const { return error.empty() && violations.empty(); }
};

/// Replays the scenario with the invariant checker attached. Exceptions
/// (engine CheckError etc.) are captured into `error`, never thrown.
CheckedRun run_checked(const Scenario& s, const RunVariant& variant = {});

/// Digest of everything observable in a RunResult: all metrics counters,
/// wake times, outputs, per-node send/receive vectors. Two runs are
/// bit-identical iff their digests match (up to hashing).
std::uint64_t digest_run(const sim::RunResult& r);

/// Like digest_run but excluding the time-model-specific fields (events,
/// rounds, tau, time normalization) — the quantities an asynchronous
/// unit-delay run and a synchronous run of an order-insensitive algorithm
/// must agree on.
std::uint64_t model_free_digest(const sim::RunResult& r);

/// One-line `rise_cli` invocation reproducing the scenario.
std::string repro_command(const Scenario& s);

}  // namespace rise::check
