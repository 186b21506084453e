// Differential scenario fuzzing: sample deterministic scenarios, replay each
// through every engine configuration that must agree, check every run
// against the invariant catalogue (check/invariants.hpp), and shrink
// whatever fails to a minimal one-line repro.
//
// Per trial the oracle runs:
//   - the production configuration, with the InvariantChecker attached;
//   - asynchronous scenarios: the same scenario pinned to the bucket-ring
//     and to the binary-heap event queue — all three digests must match
//     bit-for-bit;
//   - every scenario: a replay through the family's generated Process path
//     (one heap Process per node) that must digest-match the production
//     run's flat kernel — both are generated from one algorithm definition;
//   - synchronous scenarios: a second identical run (determinism), plus a
//     replay with every round cut into trial_jobs > 1 chunks (inline
//     executor) that must digest-match;
//   - pure flooding under unit delays: the asynchronous run against the
//     lock-step engine, compared on the model-free digest.
//
// Trials execute on the campaign ThreadPool with slot-per-trial collection,
// so the whole report is bit-identical for any --jobs value; an optional
// final pass re-runs every trial serially and compares digests to *prove*
// that, rather than assume it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario.hpp"

namespace rise::check {

struct FuzzOptions {
  std::uint64_t trials = 100;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;  ///< worker threads; 0 = all hardware threads
  /// Synchronous trials are additionally replayed with every round cut
  /// into this many chunks (inline executor) and must digest-match the
  /// one-chunk run. 1 disables the differential.
  std::uint32_t trial_jobs = 3;
  GeneratorOptions generator;
  /// Injected into every trial's replays (kNone in production fuzzing).
  FaultKind fault = FaultKind::kNone;
  bool shrink = true;  ///< shrink failures to minimal repros
  /// After the parallel phase, re-run every trial on the calling thread and
  /// require digest-identical results (the 1-vs-N-threads differential).
  bool verify_threads = true;
  std::size_t max_failures = 8;  ///< failures recorded in full detail
  /// Regression-corpus files (check/corpus.hpp; typically tests/corpus/*)
  /// replayed before the sampled trials. An entry whose checked replay is
  /// unclean or whose digest drifts from the recorded one is a
  /// "corpus-divergence" failure.
  std::vector<std::string> corpus;
};

struct FuzzFailure {
  std::uint64_t trial = 0;
  Scenario scenario;        ///< as sampled
  Scenario shrunk;          ///< minimal still-failing form (== scenario when
                            ///< shrinking is off or made no progress)
  std::uint32_t shrunk_nodes = 0;  ///< node count of the shrunk scenario
  std::string kind;  ///< "violation" | "error" | "queue-divergence" |
                     ///< "sync-divergence" | "nondeterminism" |
                     ///< "parallel-divergence" | "dispatch-divergence" |
                     ///< "corpus-divergence"
  std::vector<std::string> details;
  std::string repro;  ///< repro_command(shrunk)
};

struct FuzzReport {
  std::uint64_t trials = 0;
  std::uint64_t failing_trials = 0;
  std::uint64_t queue_differentials = 0;  ///< bucket-vs-heap comparisons run
  std::uint64_t sync_differentials = 0;   ///< async-vs-lock-step comparisons
  std::uint64_t determinism_replays = 0;  ///< sync same-config replays
  std::uint64_t parallel_differentials = 0;  ///< sequential-vs-chunked replays
  std::uint64_t dispatch_differentials = 0;  ///< kernel-vs-Process replays
  std::uint64_t corpus_entries = 0;       ///< regression entries replayed
  std::uint64_t corpus_failures = 0;      ///< entries unclean or digest-drifted
  std::size_t jobs = 1;                   ///< resolved worker count
  bool threads_verified = false;  ///< serial re-run matched digest-for-digest
  std::vector<FuzzFailure> failures;  ///< first max_failures, trial order

  bool ok() const { return failing_trials == 0 && corpus_failures == 0; }
};

FuzzReport run_fuzz(const FuzzOptions& options = {});

/// Human-readable multi-line summary (campaign counters, then each recorded
/// failure with its shrunk repro).
std::string format_fuzz(const FuzzReport& report);

}  // namespace rise::check
