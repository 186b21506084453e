// Campaign-throughput micro-benchmark: the campaign's prepared/reuse hot
// path vs a rebuild-per-trial baseline, plus an allocation-count probe.
//
// Each case runs the same trials twice at jobs=1, best-of-N wall clock:
// once as a custom TrialFn that calls
// execute_prepared(prepare_experiment(prep_spec), spec) — every trial
// re-prepares its inputs and builds a fresh engine, with no workspace — and
// once through the campaign's default path (shared preparation cache under
// kSharedConfig, per-worker workspace always). The baseline prepares from
// the same seed the campaign would (the base seed under kSharedConfig), so
// per-trial results must be bit-identical; the bench folds every trial's
// scalar observables into a digest and fails (exit 1) on any mismatch.
//
// The global operator new override counts allocations per campaign, giving
// the allocs-per-trial figures recorded in BENCH_campaign.json. The gated
// case (gnp:1000:0.01 x flooding x unit, 200 trials) must reach the
// trials-per-second ratio enforced by tools/check_campaign_throughput.py.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "app/spec.hpp"
#include "runner/campaign.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting overrides (this binary only). The default operator new[] /
// delete[] forward here, so one pair covers both forms; nothing in the
// workload uses over-aligned types.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rise;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Order- and scheduling-independent only because trials are folded in
/// trial-index order — the same sequence run_campaign aggregates in.
std::uint64_t digest_trials(const runner::CampaignResult& result) {
  std::uint64_t h = 0x5EEDCA3Bu;
  auto fold = [&h](std::uint64_t v) {
    std::uint64_t s = h ^ v;
    h = splitmix64(s);
  };
  for (const runner::TrialResult& r : result.trials) {
    fold(r.trial.index);
    fold(r.ok ? 1 : 0);
    fold(r.messages);
    fold(r.bits);
    std::uint64_t time_bits = 0;
    static_assert(sizeof(time_bits) == sizeof(r.time_units));
    std::memcpy(&time_bits, &r.time_units, sizeof(time_bits));
    fold(time_bits);
    fold(r.rounds);
    fold(r.wakeup_span);
    fold(r.awake_node_ticks);
    fold(r.awake_count);
  }
  return h;
}

struct VariantStats {
  double best_wall_ms = 0.0;
  double trials_per_sec = 0.0;
  std::uint64_t allocs_per_trial = 0;
  std::uint64_t digest = 0;
};

struct CaseResult {
  std::string name;
  bool gate = false;
  runner::CampaignPlan plan;  // the prepared variant's plan
  VariantStats rebuild;
  VariantStats prepared;
  double ratio = 0.0;
  bool digest_match = false;
};

/// The rebuild baseline: the same trials as a custom TrialFn that prepares
/// and executes each one from scratch. A custom TrialFn runs under
/// kPerTrial; a kSharedConfig plan's trials prepare from the base seed.
runner::CampaignPlan rebuild_plan(runner::CampaignPlan plan) {
  const bool shared = plan.prepare_mode == runner::PrepareMode::kSharedConfig;
  const std::uint64_t base_seed = plan.base.seed;
  plan.prepare_mode = runner::PrepareMode::kPerTrial;
  plan.run = [shared, base_seed](const app::ExperimentSpec& spec) {
    app::ExperimentSpec prep_spec = spec;
    if (shared) prep_spec.seed = base_seed;
    return app::execute_prepared(app::prepare_experiment(prep_spec), spec);
  };
  return plan;
}

VariantStats run_variant(const runner::CampaignPlan& plan, std::size_t reps) {
  runner::CampaignOptions options;
  options.jobs = 1;
  VariantStats stats;
  const std::size_t trials = runner::expand_trials(plan).size();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    const runner::CampaignResult result = runner::run_campaign(plan, options);
    const double wall_ms = ms_between(t0, Clock::now());
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    const std::uint64_t digest = digest_trials(result);
    if (rep == 0) {
      stats.best_wall_ms = wall_ms;
      stats.allocs_per_trial = trials != 0 ? allocs / trials : 0;
      stats.digest = digest;
    } else {
      stats.best_wall_ms = std::min(stats.best_wall_ms, wall_ms);
      if (digest != stats.digest) {
        std::fprintf(stderr,
                     "FATAL: digest varies across repetitions (rep %zu)\n",
                     rep);
        std::exit(1);
      }
    }
  }
  stats.trials_per_sec = stats.best_wall_ms > 0.0
                             ? static_cast<double>(trials) /
                                   (stats.best_wall_ms / 1000.0)
                             : 0.0;
  return stats;
}

CaseResult run_case(CaseResult c, std::size_t reps) {
  std::fprintf(stderr, "case %s: rebuild...\n", c.name.c_str());
  c.rebuild = run_variant(rebuild_plan(c.plan), reps);
  std::fprintf(stderr, "case %s: prepared/reuse...\n", c.name.c_str());
  c.prepared = run_variant(c.plan, reps);
  c.ratio = c.rebuild.trials_per_sec > 0.0
                ? c.prepared.trials_per_sec / c.rebuild.trials_per_sec
                : 0.0;
  c.digest_match = c.rebuild.digest == c.prepared.digest;
  if (!c.digest_match) {
    std::fprintf(stderr, "FATAL: digest mismatch in case %s\n",
                 c.name.c_str());
    std::exit(1);
  }
  std::fprintf(stderr,
               "case %s: %.1f -> %.1f trials/s (%.2fx), "
               "allocs/trial %llu -> %llu\n",
               c.name.c_str(), c.rebuild.trials_per_sec,
               c.prepared.trials_per_sec, c.ratio,
               static_cast<unsigned long long>(c.rebuild.allocs_per_trial),
               static_cast<unsigned long long>(c.prepared.allocs_per_trial));
  return c;
}

void write_variant(std::FILE* out, const char* name,
                   const VariantStats& stats) {
  std::fprintf(out,
               "      \"%s\": {\"best_wall_ms\": %.3f, "
               "\"trials_per_sec\": %.1f, \"allocs_per_trial\": %llu, "
               "\"digest\": \"0x%016llx\"}",
               name, stats.best_wall_ms, stats.trials_per_sec,
               static_cast<unsigned long long>(stats.allocs_per_trial),
               static_cast<unsigned long long>(stats.digest));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 200;
  std::size_t reps = 5;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trials") {
      trials = static_cast<std::size_t>(std::strtoull(value().c_str(),
                                                      nullptr, 10));
    } else if (arg == "--reps") {
      reps = static_cast<std::size_t>(std::strtoull(value().c_str(),
                                                    nullptr, 10));
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::fprintf(stderr,
                   "usage: bench_campaign_micro [--trials N] [--reps N] "
                   "[--out PATH]\n");
      return 2;
    }
  }

  std::vector<CaseResult> cases;
  {
    // The acceptance-gate configuration (see EXPERIMENTS.md): shared
    // preparation makes the rebuild-vs-reuse comparison apples-to-apples —
    // both variants prepare from the base seed, one of them once per trial.
    CaseResult c;
    c.name = "gnp1000_flooding_unit_shared";
    c.gate = true;
    c.plan.base = {"gnp:1000:0.01", "single", "flooding", "unit", 7};
    c.plan.num_seeds = trials;
    c.plan.prepare_mode = runner::PrepareMode::kSharedConfig;
    cases.push_back(run_case(std::move(c), reps));
  }
  {
    // Default semantics: every trial draws its own graph, so only the
    // per-worker workspace (engine storage + payload arena) is reusable.
    // Digest equality here pins that workspace reuse is purely mechanical.
    CaseResult c;
    c.name = "gnp1000_flooding_unit_per_trial";
    c.plan.base = {"gnp:1000:0.01", "single", "flooding", "unit", 7};
    c.plan.num_seeds = trials;
    c.plan.prepare_mode = runner::PrepareMode::kPerTrial;
    cases.push_back(run_case(std::move(c), reps));
  }
  {
    // Advice-oracle amortization: fip06 precomputes a BFS tree per
    // preparation, so shared-config reuse removes the oracle from the hot
    // path entirely.
    CaseResult c;
    c.name = "cgnp600_fip06_advice_shared";
    c.plan.base = {"cgnp:600:0.02", "single", "fip06", "unit", 7};
    c.plan.num_seeds = std::max<std::size_t>(trials / 2, 1);
    c.plan.prepare_mode = runner::PrepareMode::kSharedConfig;
    cases.push_back(run_case(std::move(c), reps));
  }

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 2;
    }
  }
  std::fprintf(out,
               "{\n  \"tool\": \"bench_campaign_micro\",\n"
               "  \"trials\": %zu,\n  \"reps\": %zu,\n  \"jobs\": 1,\n"
               "  \"cases\": [\n",
               trials, reps);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(out,
                 "    {\n      \"name\": \"%s\",\n      \"gate\": %s,\n"
                 "      \"graph\": \"%s\",\n      \"algo\": \"%s\",\n"
                 "      \"schedule\": \"%s\",\n      \"delay\": \"%s\",\n"
                 "      \"prepare_mode\": \"%s\",\n",
                 c.name.c_str(), c.gate ? "true" : "false",
                 c.plan.base.graph.c_str(), c.plan.base.algorithm.c_str(),
                 c.plan.base.schedule.c_str(), c.plan.base.delay.c_str(),
                 c.plan.prepare_mode == runner::PrepareMode::kSharedConfig
                     ? "shared_config"
                     : "per_trial");
    write_variant(out, "rebuild", c.rebuild);
    std::fprintf(out, ",\n");
    write_variant(out, "prepared", c.prepared);
    std::fprintf(out,
                 ",\n      \"trials_per_sec_ratio\": %.3f,\n"
                 "      \"digest_match\": %s\n    }%s\n",
                 c.ratio, c.digest_match ? "true" : "false",
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}
