#include "search/hunt.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "app/spec.hpp"
#include "obs/probe.hpp"
#include "runner/prepared.hpp"
#include "runner/thread_pool.hpp"
#include "sim/workspace.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace rise::search {

namespace {

// Stream tags for the hunt's SplitMix64 streams; disjoint from the engine's
// per-run tags (0xA..0xD) and the fuzzer's 0xF022 block.
constexpr std::uint64_t kMutateTag = 0x507E000000ULL;
constexpr std::uint64_t kAcceptTag = 0x507E100000ULL;
constexpr std::uint64_t kBaselineTag = 0x507E200000ULL;

/// Entries the prepared cache may hold before the hunt drops it. Mutated
/// graphs/seeds rarely repeat, so the cache mostly bounds the window in
/// which an unchanged-graph lineage (schedule/delay/seed-stable) hits.
constexpr std::size_t kCacheCap = 128;

/// Per-worker engine storage, recycled across evaluations (same idiom as
/// runner/campaign.cpp — the workspace never changes results).
sim::RunWorkspace& worker_workspace() {
  static thread_local sim::RunWorkspace workspace;
  return workspace;
}

struct EvalResult {
  bool ok = false;
  double value = -1.0;  ///< failed evaluations sort below every real run
};

/// How evaluations parallelize *inside* one trial (sync runs only); the
/// executor fans round chunks out on the hunt pool. Bit-identical to the
/// serial evaluation for any job count, so objective values — and hence
/// the whole search trajectory — do not depend on it.
struct EvalParallel {
  std::uint32_t trial_jobs = 1;
  sim::ChunkExecutor* executor = nullptr;
};

EvalResult evaluate(const check::Scenario& scenario, Objective objective,
                    runner::PreparedConfigCache& cache,
                    const EvalParallel& parallel) {
  EvalResult out;
  try {
    const std::shared_ptr<const app::PreparedExperiment> prepared =
        cache.get_or_prepare(scenario.spec);
    obs::Probe probe;
    app::RunInstruments instruments;
    instruments.probe = &probe;
    instruments.trial_jobs = parallel.trial_jobs;
    instruments.trial_executor = parallel.executor;
    app::ExperimentReport report = app::execute_prepared(
        *prepared, scenario.spec, instruments, &worker_workspace());
    const obs::RunProfile profile =
        app::take_run_profile(probe, report, scenario.spec);
    out.value = objective_value(objective, profile);
    out.ok = true;
    worker_workspace().recycle_result(std::move(report.result));
  } catch (const std::exception&) {
    // Engine rejections (a mutated spec a generator refuses, an advice
    // precondition) are dead genomes, not hunt failures.
  }
  return out;
}

Rng stream_rng(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = mix_seed(seed, tag);
  return Rng(splitmix64(state));
}

/// Index of the best slot, lowest index on ties; failed slots never win
/// against an ok slot.
std::size_t argmax(const std::vector<EvalResult>& slots) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    const bool better =
        (slots[i].ok && !slots[best].ok) ||
        (slots[i].ok == slots[best].ok && slots[i].value > slots[best].value);
    if (better) best = i;
  }
  return best;
}

}  // namespace

HuntReport run_hunt(const HuntOptions& options) {
  RISE_CHECK_MSG(options.budget >= 2, "hunt: budget must be >= 2");
  RISE_CHECK_MSG(options.lambda >= 1, "hunt: lambda must be >= 1");
  const bool anneal = options.algorithm == "anneal";
  RISE_CHECK_MSG(anneal || options.algorithm == "ea",
                 "hunt: unknown search algorithm '"
                     << options.algorithm << "' (expected ea|anneal)");

  // The pool carries candidate-level AND round-level workers: trial_jobs
  // round chunks per in-flight evaluation, with the admission gate keeping
  // at most `jobs` evaluations in flight (as run_campaign does). Resolve
  // jobs before multiplying (0 = all hardware threads).
  const std::uint32_t trial_jobs =
      std::max<std::uint32_t>(1, options.trial_jobs);
  const std::size_t jobs = options.jobs == 0
                               ? runner::ThreadPool::hardware_threads()
                               : options.jobs;
  runner::ThreadPool pool(jobs * trial_jobs);
  runner::PoolChunkExecutor executor(&pool);
  runner::AdmissionGate gate(pool, trial_jobs > 1 ? jobs : 0);
  EvalParallel parallel;
  if (trial_jobs > 1) {
    parallel.trial_jobs = trial_jobs;
    parallel.executor = &executor;
  }
  runner::PreparedConfigCache cache;

  HuntReport report;
  report.objective = options.objective;
  report.algorithm = options.algorithm;
  report.jobs = jobs;  // candidate-level workers, not the raw pool size

  // Evaluation 1: the initial genome seeds both parent and best-so-far.
  check::Scenario parent = options.initial;
  EvalResult parent_eval =
      evaluate(parent, options.objective, cache, parallel);
  report.evaluations = 1;
  if (!parent_eval.ok) ++report.failed_runs;
  check::Scenario best = parent;
  double best_value = parent_eval.value;
  bool best_ok = parent_eval.ok;
  if (parent_eval.ok) {
    report.trajectory.push_back({report.evaluations, parent_eval.value});
  }

  const std::uint64_t generations =
      (options.budget - 1 + options.lambda - 1) / options.lambda;
  for (std::uint64_t gen = 0; report.evaluations < options.budget; ++gen) {
    const std::size_t batch = static_cast<std::size_t>(std::min<std::uint64_t>(
        options.lambda, options.budget - report.evaluations));

    // Candidates are built on this thread — worker threads never touch RNG
    // state, so the genome sequence is independent of the pool size.
    std::vector<check::Scenario> candidates;
    candidates.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      Rng rng = stream_rng(options.seed,
                           kMutateTag + (gen << 12) + i);
      candidates.push_back(mutate(parent, rng, options.limits));
    }

    std::vector<EvalResult> slots(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      gate.submit([&slots, &candidates, &cache, &options, &parallel, i] {
        slots[i] = evaluate(candidates[i], options.objective, cache, parallel);
      });
    }
    pool.wait_idle();
    report.evaluations += batch;
    for (const EvalResult& e : slots) {
      if (!e.ok) ++report.failed_runs;
    }

    const std::size_t pick = argmax(slots);
    const EvalResult& offer = slots[pick];

    // Best-so-far is monotone by construction, whatever acceptance does.
    if (offer.ok && (!best_ok || offer.value > best_value)) {
      best = candidates[pick];
      best_value = offer.value;
      best_ok = true;
      report.trajectory.push_back({report.evaluations, offer.value});
    }

    if (offer.ok && (!parent_eval.ok || offer.value >= parent_eval.value)) {
      // Uphill or sideways: both families take it (neutral drift keeps the
      // (1+lambda) EA moving across plateaus like flooding's exact 2m).
      parent = candidates[pick];
      parent_eval = offer;
    } else if (anneal && offer.ok) {
      // Metropolis acceptance on a linear temperature ramp, scale-free via
      // the relative shortfall; the draw comes from a per-generation stream
      // so acceptance is independent of thread count too.
      const double progress = generations > 1
                                  ? static_cast<double>(gen) /
                                        static_cast<double>(generations - 1)
                                  : 1.0;
      const double temperature = std::max(0.01, 0.25 * (1.0 - progress));
      const double scale = std::max(1.0, std::abs(parent_eval.value));
      const double prob =
          std::exp((offer.value - parent_eval.value) / (temperature * scale));
      Rng rng = stream_rng(options.seed, kAcceptTag + gen);
      if (rng.uniform_real() < prob) {
        parent = candidates[pick];
        parent_eval = offer;
      }
    }

    if (cache.size() > kCacheCap) cache.clear();
  }

  report.champion = best;
  report.champion_value = best_value;

  // Equal-budget uniform-random control over the same genome space.
  if (options.baseline) {
    report.baseline_run = true;
    const std::uint64_t total = report.evaluations;
    std::vector<check::Scenario> genomes;
    genomes.reserve(static_cast<std::size_t>(total));
    for (std::uint64_t i = 0; i < total; ++i) {
      Rng rng = stream_rng(options.seed, kBaselineTag + i);
      genomes.push_back(random_genome(options.initial, rng, options.limits));
    }
    std::vector<EvalResult> slots(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      gate.submit([&slots, &genomes, &cache, &options, &parallel, i] {
        slots[i] = evaluate(genomes[i], options.objective, cache, parallel);
      });
      if (i % kCacheCap == 0 && cache.size() > kCacheCap) {
        // Random genomes never repeat a key; keep the cache bounded while
        // the queue drains. clear() is safe under in-flight lookups.
        cache.clear();
      }
    }
    pool.wait_idle();
    const std::size_t pick = argmax(slots);
    if (slots[pick].ok) {
      report.baseline_champion = genomes[pick];
      report.baseline_value = slots[pick].value;
    }
  }

  // Finalize the champion: a checked replay (digest + invariant verdict for
  // the corpus entry) and a profiled replay (envelope inputs). Both are
  // bit-identical to the evaluation run.
  if (best_ok) {
    const check::CheckedRun checked = check::run_checked(best);
    report.champion_digest = checked.digest;
    report.champion_violations = checked.violations;
    if (!checked.error.empty()) {
      report.champion_violations.push_back("error: " + checked.error);
    }
    report.champion_clean = checked.clean();
    report.champion_profile = app::run_profiled(best.spec).profile;
    report.envelope = envelope_bound(options.objective, report.champion_profile);
  }
  return report;
}

check::CorpusEntry champion_entry(const HuntReport& report) {
  RISE_CHECK_MSG(report.champion_clean,
                 "hunt: champion replay was not clean; refusing to emit a "
                 "corpus entry");
  check::CorpusEntry entry;
  entry.scenario = report.champion;
  entry.objective = objective_name(report.objective);
  entry.value = report.champion_value;
  entry.digest = report.champion_digest;
  return entry;
}

std::string format_hunt(const HuntReport& report) {
  std::ostringstream os;
  os << "hunt: objective=" << objective_name(report.objective)
     << " algorithm=" << report.algorithm
     << " evaluations=" << report.evaluations << " jobs=" << report.jobs
     << " failed_runs=" << report.failed_runs << "\n";
  if (report.champion_value < 0.0) {
    os << "  no successful evaluation -- no champion\n";
    return os.str();
  }
  os << "  champion: value=" << report.champion_value;
  if (report.envelope > 0.0) {
    os << " envelope=" << report.envelope
       << " ratio=" << report.envelope_ratio();
  }
  os << "\n    " << check::repro_command(report.champion) << "\n"
     << "    digest=" << std::hex << report.champion_digest << std::dec
     << " clean=" << (report.champion_clean ? "yes" : "NO") << "\n";
  for (const std::string& v : report.champion_violations) {
    os << "    violation: " << v << "\n";
  }
  if (report.baseline_run) {
    os << "  baseline(random, equal budget): value=" << report.baseline_value;
    if (report.baseline_value > 0.0) {
      os << " champion/baseline="
         << report.champion_value / report.baseline_value;
    }
    os << "\n";
  }
  os << "  trajectory: " << report.trajectory.size() << " improvement(s)";
  for (const TrajectoryPoint& p : report.trajectory) {
    os << " [" << p.evaluations << "]=" << p.value;
  }
  os << "\n";
  return os.str();
}

std::string hunt_to_json(const HuntReport& report) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.kv("kind", "hunt_report");
  w.kv("objective", objective_name(report.objective));
  w.kv("algorithm", report.algorithm);
  w.kv("evaluations", report.evaluations);
  w.kv("jobs", static_cast<std::uint64_t>(report.jobs));
  w.kv("failed_runs", report.failed_runs);
  w.key("champion").begin_object();
  w.kv("graph", report.champion.spec.graph);
  w.kv("schedule", report.champion.spec.schedule);
  w.kv("algo", report.champion.spec.algorithm);
  w.kv("delay", report.champion.spec.delay);
  w.kv("seed", report.champion.spec.seed);
  w.kv("value", report.champion_value);
  w.kv("digest", report.champion_digest);
  w.kv("clean", report.champion_clean);
  w.end_object();
  w.kv("envelope", report.envelope);
  w.kv("envelope_ratio", report.envelope_ratio());
  w.kv("baseline_run", report.baseline_run);
  w.kv("baseline_value", report.baseline_value);
  w.key("trajectory").begin_array();
  for (const TrajectoryPoint& p : report.trajectory) {
    w.begin_object();
    w.kv("evaluations", p.evaluations);
    w.kv("value", p.value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

}  // namespace rise::search
