#include "check/fuzz.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "check/corpus.hpp"
#include "check/shrink.hpp"
#include "runner/thread_pool.hpp"
#include "support/check.hpp"

namespace rise::check {

namespace {

/// Everything one trial produces, independent of scheduling: a digest for
/// the thread-count differential plus the first failure found (if any).
struct TrialOutcome {
  std::uint64_t digest = 0;  ///< production-configuration digest (0 on error)
  bool failed = false;
  std::string kind;
  std::vector<std::string> details;
  bool ran_queue_differential = false;
  bool ran_sync_differential = false;
  bool ran_determinism_replay = false;
  bool ran_parallel_differential = false;
  bool ran_dispatch_differential = false;
};

void fail(TrialOutcome& out, std::string kind,
          std::vector<std::string> details) {
  if (out.failed) return;  // keep the first failure per trial
  out.failed = true;
  out.kind = std::move(kind);
  out.details = std::move(details);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// True when the scenario qualifies for the async-vs-lock-step cross-check:
/// pure flooding (broadcast-once, order-insensitive) under unit delays is
/// the one regime where both engines must produce the same communication
/// pattern, compared on the model-free digest.
bool sync_comparable(const Scenario& s) {
  return s.spec.algorithm == "flooding" && s.spec.delay == "unit";
}

TrialOutcome run_trial(const Scenario& s, FaultKind fault,
                       std::uint32_t trial_jobs) {
  TrialOutcome out;

  RunVariant base_variant;
  base_variant.fault = fault;
  const CheckedRun base = run_checked(s, base_variant);
  out.digest = base.digest;

  if (!base.error.empty()) {
    fail(out, "error", {base.error});
    return out;  // the scenario cannot run at all; no differentials
  }
  if (!base.violations.empty()) fail(out, "violation", base.violations);

  // The production run took the flat kernel; the family's generated Process
  // path runs the same definition and must be bit-identical to it.
  out.ran_dispatch_differential = true;
  RunVariant processes = base_variant;
  processes.virtual_processes = true;
  const CheckedRun via_processes = run_checked(s, processes);
  if (!via_processes.error.empty()) {
    fail(out, "dispatch-divergence",
         {"Process-path replay errored: " + via_processes.error});
  } else if (via_processes.digest != base.digest) {
    fail(out, "dispatch-divergence",
         {"flat kernel and generated Process disagree: kernel " +
          hex(base.digest) + " vs Process " + hex(via_processes.digest)});
  }

  if (base.report.synchronous) {
    // No event queue to vary: replay the identical configuration and demand
    // a bit-identical result (run-to-run determinism).
    out.ran_determinism_replay = true;
    const CheckedRun replay = run_checked(s, base_variant);
    if (replay.digest != base.digest) {
      fail(out, "nondeterminism",
           {"synchronous replay diverged: digest " + hex(base.digest) +
            " vs " + hex(replay.digest)});
    }
    // Round-parallel replay: the same rounds cut into trial_jobs chunks
    // (inline executor, so the comparison is threadless and deterministic)
    // must be bit-identical to the one-chunk run.
    if (trial_jobs > 1) {
      out.ran_parallel_differential = true;
      RunVariant par = base_variant;
      par.trial_jobs = trial_jobs;
      const CheckedRun parallel = run_checked(s, par);
      if (!parallel.error.empty()) {
        fail(out, "parallel-divergence",
             {"trial_jobs=" + std::to_string(trial_jobs) +
              " replay errored: " + parallel.error});
      } else if (parallel.digest != base.digest) {
        fail(out, "parallel-divergence",
             {"round-parallel replay diverged: trial_jobs=1 digest " +
              hex(base.digest) + " vs trial_jobs=" +
              std::to_string(trial_jobs) + " digest " +
              hex(parallel.digest)});
      }
    }
  } else {
    out.ran_queue_differential = true;
    RunVariant bucket = base_variant;
    bucket.queue_mode = sim::EventQueue::Mode::kBuckets;
    RunVariant heap = base_variant;
    heap.queue_mode = sim::EventQueue::Mode::kHeap;
    const CheckedRun b = run_checked(s, bucket);
    const CheckedRun h = run_checked(s, heap);
    if (!b.error.empty() || !h.error.empty()) {
      fail(out, "queue-divergence",
           {"pinned-queue replay errored: bucket='" + b.error + "' heap='" +
            h.error + "'"});
    } else if (b.digest != base.digest || h.digest != base.digest) {
      fail(out, "queue-divergence",
           {"event-queue backends disagree: auto=" + hex(base.digest) +
            " bucket=" + hex(b.digest) + " heap=" + hex(h.digest)});
    }
  }

  if (!base.report.synchronous && fault == FaultKind::kNone &&
      sync_comparable(s)) {
    out.ran_sync_differential = true;
    RunVariant sync_variant;
    sync_variant.force_sync_engine = true;
    const CheckedRun sync_run = run_checked(s, sync_variant);
    if (!sync_run.error.empty()) {
      fail(out, "sync-divergence",
           {"lock-step replay errored: " + sync_run.error});
    } else if (!sync_run.violations.empty()) {
      fail(out, "sync-divergence", sync_run.violations);
    } else if (model_free_digest(base.report.result) !=
               model_free_digest(sync_run.report.result)) {
      fail(out, "sync-divergence",
           {"async unit-delay and lock-step runs disagree: " +
            hex(model_free_digest(base.report.result)) + " vs " +
            hex(model_free_digest(sync_run.report.result))});
    }
  }
  return out;
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options) {
  RISE_CHECK(options.trials > 0);
  FuzzReport report;
  report.trials = options.trials;

  // Regression corpus first (serial; entry order is load order): every
  // recorded worst case must still replay clean and digest-stable before any
  // fresh sampling happens.
  for (const std::string& path : options.corpus) {
    for (const CorpusEntry& entry : load_corpus(path)) {
      const std::uint64_t index = report.corpus_entries++;
      const CheckedRun run = run_checked(entry.scenario);
      std::vector<std::string> details;
      if (!run.error.empty()) {
        details.push_back("replay errored: " + run.error);
      }
      for (const std::string& v : run.violations) details.push_back(v);
      if (run.error.empty() && run.digest != entry.digest) {
        details.push_back("digest drift: recorded " + hex(entry.digest) +
                          ", replay " + hex(run.digest));
      }
      if (details.empty()) continue;
      ++report.corpus_failures;
      if (report.failures.size() >= options.max_failures) continue;
      FuzzFailure f;
      f.trial = index;
      f.scenario = entry.scenario;
      f.shrunk = entry.scenario;  // corpus entries are kept verbatim
      f.shrunk_nodes = run.report.num_nodes;
      f.kind = "corpus-divergence";
      f.details = std::move(details);
      f.repro = repro_command(entry.scenario);
      report.failures.push_back(std::move(f));
    }
  }

  std::vector<Scenario> scenarios;
  scenarios.reserve(options.trials);
  for (std::uint64_t i = 0; i < options.trials; ++i) {
    scenarios.push_back(sample_scenario(options.seed, i, options.generator));
  }

  // Parallel phase: slot-per-trial, aggregated in index order afterwards, so
  // the report is independent of scheduling.
  std::vector<TrialOutcome> outcomes(options.trials);
  {
    runner::ThreadPool pool(options.jobs);
    report.jobs = pool.num_threads();
    for (std::uint64_t i = 0; i < options.trials; ++i) {
      pool.submit([&, i] {
        outcomes[i] = run_trial(scenarios[i], options.fault,
                                options.trial_jobs);
      });
    }
    pool.wait_idle();
  }

  for (std::uint64_t i = 0; i < options.trials; ++i) {
    const TrialOutcome& out = outcomes[i];
    report.queue_differentials += out.ran_queue_differential ? 1 : 0;
    report.sync_differentials += out.ran_sync_differential ? 1 : 0;
    report.determinism_replays += out.ran_determinism_replay ? 1 : 0;
    report.parallel_differentials += out.ran_parallel_differential ? 1 : 0;
    report.dispatch_differentials += out.ran_dispatch_differential ? 1 : 0;
    if (!out.failed) continue;
    ++report.failing_trials;
    if (report.failures.size() >= options.max_failures) continue;

    FuzzFailure f;
    f.trial = i;
    f.scenario = scenarios[i];
    f.shrunk = scenarios[i];
    f.kind = out.kind;
    f.details = out.details;

    if (options.shrink) {
      // Shrink against "still fails with the same kind", so the repro pins
      // the original bug rather than drifting onto a different one.
      const std::string kind = out.kind;
      const ShrinkResult shrunk = shrink_scenario(
          scenarios[i],
          [&](const Scenario& cand) {
            const TrialOutcome o =
                run_trial(cand, options.fault, options.trial_jobs);
            return o.failed && o.kind == kind;
          });
      f.shrunk = shrunk.scenario;
    }
    const CheckedRun final_run = run_checked(f.shrunk, {.fault = options.fault});
    f.shrunk_nodes = final_run.report.num_nodes;
    f.repro = repro_command(f.shrunk);
    report.failures.push_back(std::move(f));
  }

  // Thread-count differential: replay every trial serially on this thread
  // and require the digest vector to match the parallel phase exactly.
  if (options.verify_threads) {
    report.threads_verified = true;
    for (std::uint64_t i = 0; i < options.trials; ++i) {
      const TrialOutcome serial =
          run_trial(scenarios[i], options.fault, options.trial_jobs);
      if (serial.digest != outcomes[i].digest ||
          serial.failed != outcomes[i].failed) {
        report.threads_verified = false;
        ++report.failing_trials;
        if (report.failures.size() < options.max_failures) {
          FuzzFailure f;
          f.trial = i;
          f.scenario = scenarios[i];
          f.shrunk = scenarios[i];
          f.kind = "nondeterminism";
          f.details = {"serial replay diverged from the " +
                       std::to_string(report.jobs) + "-thread run: digest " +
                       hex(outcomes[i].digest) + " vs " + hex(serial.digest)};
          f.repro = repro_command(f.scenario);
          report.failures.push_back(std::move(f));
        }
      }
    }
  }
  return report;
}

std::string format_fuzz(const FuzzReport& report) {
  std::ostringstream os;
  os << "fuzz: " << report.trials << " trial(s), " << report.failing_trials
     << " failing, " << report.jobs << " job(s)\n";
  os << "  differentials: " << report.queue_differentials
     << " bucket-vs-heap, " << report.sync_differentials
     << " async-vs-lock-step, " << report.determinism_replays
     << " determinism replay(s), " << report.parallel_differentials
     << " round-parallel replay(s), " << report.dispatch_differentials
     << " kernel-vs-Process replay(s)\n";
  if (report.corpus_entries > 0) {
    os << "  corpus: " << report.corpus_entries << " entr"
       << (report.corpus_entries == 1 ? "y" : "ies") << " replayed, "
       << report.corpus_failures << " diverging\n";
  }
  if (report.threads_verified) {
    os << "  1-vs-" << report.jobs
       << "-thread serial replay: digest-identical\n";
  }
  for (const FuzzFailure& f : report.failures) {
    os << "  FAIL trial " << f.trial << " [" << f.kind << "] "
       << f.scenario.family << "\n";
    os << "    sampled: " << repro_command(f.scenario) << "\n";
    os << "    shrunk (" << f.shrunk_nodes << " nodes): " << f.repro << "\n";
    for (const std::string& d : f.details) os << "      " << d << "\n";
  }
  if (report.failing_trials > report.failures.size()) {
    os << "  ... and " << (report.failing_trials - report.failures.size())
       << " further failing trial(s) not recorded\n";
  }
  if (report.ok()) os << "  all invariants hold; all differentials agree\n";
  return os.str();
}

}  // namespace rise::check
