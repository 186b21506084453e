// Workloads that run one large trial at a time on a prepared instance:
//
//   million_flood         flooding, async kernel, cgnp n = 10^6, delays
//                         spread over 8 buckets; one thread.
//   fast_wakeup_parallel  FastWakeUp, sync round-parallel kernel on
//                         cgnp n = 2*10^5, trial_jobs = min(4, nproc) on a
//                         runner::ThreadPool through PoolChunkExecutor.
//
// Set-up (graph + Instance via app::prepare_experiment, the wake schedule
// and delay policy of each reference input, the pool, warm-up trials on a
// cold RunWorkspace) is repeated kSetupReps times and setup_s is the median;
// the last set-up serves the timed closed loop, which cycles through the
// kInputs reference inputs until --seconds have passed.
#include <malloc.h>

#include <algorithm>
#include <memory>

#include "app/spec.hpp"
#include "bench.hpp"
#include "check/scenario.hpp"
#include "obs/probe.hpp"
#include "runner/campaign.hpp"
#include "runner/thread_pool.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace rise;

constexpr std::size_t kInputs = 3;     ///< distinct trial inputs per seed
constexpr std::size_t kSetupReps = 3;  ///< set-ups per run (setup_s median)
constexpr std::size_t kSyncRuns = 3;   ///< traced: timed runs per sync mode

/// Which engine path a trial takes: the workload's own (async for flooding,
/// round-parallel sync for FastWakeUp), or the sync kernel with
/// trial_jobs = 1 or min(4, nproc) on the same instance and input.
enum class Mode { kWorkload, kSerialSync, kParallelSync };

struct Config {
  app::ExperimentSpec spec;
  bool parallel = false;  ///< sync round-parallel (else async, one thread)
  const char* family = "";
};

/// Everything a timed trial reads. Built by prepare(); trial i runs on
/// reference input i % kInputs.
struct State {
  Config cfg;
  app::PreparedExperiment prep;
  std::vector<std::uint64_t> seeds;  ///< engine seed of each input
  std::vector<sim::WakeSchedule> schedules;
  std::vector<std::unique_ptr<sim::DelayPolicy>> delays;  ///< async only
  std::uint32_t jobs = 1;
  std::unique_ptr<runner::ThreadPool> pool;
  std::unique_ptr<runner::PoolChunkExecutor> executor;
  sim::RunWorkspace workspace;
  /// Sync-kernel digests of an async family's inputs (serial and parallel
  /// sync runs must agree; they differ from the async digests).
  std::vector<std::uint64_t> sync_digests;
};

struct TrialStats {
  sim::Metrics metrics;
  std::uint64_t digest = 0;
  std::uint64_t allocs = 0;  ///< heap allocations inside the engine run
  double run_ms = 0.0;       ///< the engine run alone
  double digest_ms = 0.0;
  double trial_ms = 0.0;     ///< run + digest + output checks
};

app::ExperimentSpec input_spec(const State& s, std::size_t i) {
  app::ExperimentSpec spec = s.cfg.spec;
  spec.seed = s.seeds[i];
  return spec;
}

/// Schedule and delay policy of input `i`, exactly as
/// app::execute_prepared derives them from the input's seed.
void add_input(State& s, const graph::Graph& g, std::size_t i,
               SpanList* spans) {
  if (spans != nullptr) {
    spans->begin("setup.schedule", static_cast<std::int64_t>(i));
  }
  Rng schedule_rng(mix_seed(s.seeds[i], 0xC));
  s.schedules.push_back(
      app::parse_schedule_spec(s.cfg.spec.schedule, g, schedule_rng));
  sim::schedule_awake_distance(g, s.schedules.back());
  if (spans != nullptr) spans->end();
  if (!s.cfg.parallel) {
    s.delays.push_back(app::parse_delay_spec(
        s.cfg.spec.delay, app::delay_policy_seed(s.seeds[i])));
  }
}

/// Round chunks run on the pool's workers and on the calling thread, which
/// claims chunks too (ThreadPool::run_chunks); jobs - 1 workers keep the
/// trial within min(4, nproc) threads, as a campaign worker running a trial
/// with trial_jobs = jobs on its own pool does.
void start_pool(State& s) {
  s.jobs = static_cast<std::uint32_t>(bench_threads());
  if (s.jobs > 1) s.pool = std::make_unique<runner::ThreadPool>(s.jobs - 1);
  s.executor = std::make_unique<runner::PoolChunkExecutor>(s.pool.get());
}

std::unique_ptr<State> new_state(const Options& opt, const Config& cfg) {
  auto s = std::make_unique<State>();
  s->cfg = cfg;
  s->cfg.spec.seed = opt.seed;
  for (std::size_t i = 0; i < kInputs; ++i) {
    s->seeds.push_back(runner::trial_seed(opt.seed, i));
  }
  if (cfg.parallel) start_pool(*s);
  return s;
}

/// The production set-up: app::prepare_experiment, then every input.
std::unique_ptr<State> prepare(const Options& opt, const Config& cfg,
                               obs::Probe* probe, double* prepare_ms) {
  auto s = new_state(opt, cfg);
  const auto t0 = Clock::now();
  s->prep = app::prepare_experiment(s->cfg.spec, probe);
  if (prepare_ms != nullptr) *prepare_ms = ms_since(t0);
  for (std::size_t i = 0; i < kInputs; ++i) {
    add_input(*s, s->prep.instance->graph(), i, nullptr);
  }
  return s;
}

sim::RunResult run_engine(State& s, std::size_t i, Mode mode) {
  const sim::Instance& instance = *s.prep.instance;
  if (!s.cfg.parallel && mode == Mode::kWorkload) {
    sim::AsyncKernelArgs args;
    args.instance = &instance;
    args.delays = s.delays[i].get();
    args.schedule = &s.schedules[i];
    args.seed = s.seeds[i];
    args.workspace = &s.workspace;
    return s.prep.kernel.run_async(args);
  }
  sim::SyncKernelArgs args;
  args.instance = &instance;
  args.schedule = &s.schedules[i];
  args.seed = s.seeds[i];
  args.limits.sleeping_model = s.prep.sleeping;
  args.workspace = &s.workspace;
  if (mode == Mode::kParallelSync ||
      (s.cfg.parallel && mode == Mode::kWorkload)) {
    args.parallel.jobs = s.jobs;
    args.parallel.executor = s.executor.get();
  }
  return s.prep.kernel.run_sync(args);
}

/// One trial on input `i`: engine run, digest, output checks.
TrialStats run_trial(const Options& opt, Report& report, State& s,
                     std::size_t i, SpanList* spans, std::int64_t trial,
                     Mode mode = Mode::kWorkload) {
  TrialStats out;
  const auto t0 = Clock::now();
  if (spans != nullptr) spans->begin("trial", trial);
  if (spans != nullptr) spans->begin("engine.run", trial);
  // Process-wide: round chunks also allocate on the pool's workers.
  const std::uint64_t allocs0 = process_allocs();
  const auto r0 = Clock::now();
  sim::RunResult result = run_engine(s, i, mode);
  out.run_ms = ms_since(r0);
  out.allocs = process_allocs() - allocs0;
  if (spans != nullptr) spans->end();
  if (spans != nullptr) spans->begin("digest", trial);
  const auto d0 = Clock::now();
  out.digest = check::digest_run(result);
  out.digest_ms = ms_since(d0);
  if (spans != nullptr) spans->end();
  out.metrics = result.metrics;
  std::uint64_t expected = 0;
  if (s.cfg.parallel || mode == Mode::kWorkload) {
    expected = expected_digest(opt, report, i, out.digest);
  } else {
    s.sync_digests.resize(kInputs, 0);
    if (s.sync_digests[i] == 0) s.sync_digests[i] = out.digest;
    expected = s.sync_digests[i];
  }
  check_trial(report, std::string(s.cfg.family) + " input " + std::to_string(i),
              result.all_awake(), result.metrics.messages, out.digest,
              expected,
              std::string(s.cfg.family) == "flooding",
              s.prep.instance->graph().num_edges());
  s.workspace.recycle_result(std::move(result));
  if (spans != nullptr) spans->end();
  out.trial_ms = ms_since(t0);
  return out;
}

/// Warm-up on a cold workspace: sync kernels run twice because the inbox
/// ping-pong pair alternates roles between runs.
void warm_up(const Options& opt, Report& report, State& s) {
  run_trial(opt, report, s, 0, nullptr, -1);
  if (s.cfg.parallel) run_trial(opt, report, s, 1 % kInputs, nullptr, -1);
}

Report run_timed(const Options& opt, const Config& cfg) {
  Report report;
  std::vector<double> setup_ms;
  std::unique_ptr<State> s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous set-up and hand its pages back to the OS first, so
    // peak_rss_mb is one set-up plus the timed loop.
    s.reset();
    malloc_trim(0);
    const auto t0 = Clock::now();
    s = prepare(opt, cfg, nullptr, nullptr);
    warm_up(opt, report, *s);
    setup_ms.push_back(ms_since(t0));
  }
  report.threads = s->jobs;

  std::vector<double> trial_ms;
  const auto t0 = Clock::now();
  double elapsed_s = 0.0;
  // Every reference input runs at least once, however short the run.
  for (std::size_t t = 0; elapsed_s < opt.seconds || t < kInputs; ++t) {
    trial_ms.push_back(
        run_trial(opt, report, *s, t % kInputs, nullptr,
                  static_cast<std::int64_t>(t))
            .trial_ms);
    elapsed_s = ms_since(t0) / 1000.0;
  }
  report.metrics["setup_s"] = median(setup_ms) / 1000.0;
  report.metrics["trials_per_s"] =
      static_cast<double>(trial_ms.size()) / elapsed_s;
  report.metrics["trial_s"] = median(trial_ms) / 1000.0;
  return report;
}

/// The traced run. Part A runs the production calls untraced and keeps
/// their digests; part B rebuilds the same workload from the split calls
/// (parse_graph_spec -> Instance::create -> apply_oracle with the production
/// seed tags) under spans, and every digest must match part A.
Report run_traced(const Options& opt, const Config& cfg, Tracer& tracer) {
  Report report;
  auto& m = report.metrics;
  const std::string exec_metric =
      std::string("runner.exec_ms.") + cfg.family;

  // ---- A: production path, untraced ------------------------------------
  double untraced_ms = 0.0;
  std::vector<std::string> probe_timers;
  {
    obs::Probe probe;
    const auto t0 = Clock::now();
    double prepare_ms = 0.0;
    auto s = prepare(opt, cfg, &probe, &prepare_ms);
    untraced_ms += ms_since(t0);
    m["runner.prepare_ms"] = prepare_ms;
    report.threads = s->jobs;
    warm_up(opt, report, *s);
    for (std::size_t i = 0; i < kInputs; ++i) {
      untraced_ms += run_trial(opt, report, *s, i, nullptr, -1).trial_ms;
    }
    app::RunInstruments instruments;
    instruments.trial_jobs = s->jobs;
    instruments.trial_executor = s->executor.get();
    const auto e0 = Clock::now();
    app::ExperimentReport exec =
        app::execute_prepared(s->prep, input_spec(*s, 0), instruments,
                              &s->workspace);
    m[exec_metric] = ms_since(e0);
    const std::uint64_t digest = check::digest_run(exec.result);
    check_trial(report, "execute_prepared", exec.result.all_awake(),
                exec.result.metrics.messages, digest,
                expected_digest(opt, report, 0, digest),
                std::string(cfg.family) == "flooding", exec.num_edges);
    // The same call with the observability probe attached: its PhaseTimer
    // names are what the traced spans below must reproduce.
    instruments.probe = &probe;
    exec = app::execute_prepared(s->prep, input_spec(*s, 0), instruments,
                                 &s->workspace);
    for (const auto& timer : probe.take_profile(exec.result).timers) {
      probe_timers.push_back(timer.name);
    }
  }

  malloc_trim(0);

  // ---- B: split calls under spans ---------------------------------------
  SpanList spans(0);
  auto s = new_state(opt, cfg);
  const auto t0 = Clock::now();
  SplitPrepared prep = split_prepare(s->cfg.spec, spans, -1);
  const double num_edges =
      static_cast<double>(prep.instance->graph().num_edges());
  m["graph.gen_ms"] = prep.graph_ms;
  m["sim.instance.build_ms"] = prep.instance_ms;
  s->prep.instance = prep.instance;
  s->prep.advice = prep.advice;
  s->prep.kernel = std::move(prep.algo.kernel);
  s->prep.sleeping = prep.algo.sleeping;
  std::vector<double> schedule_ms;
  for (std::size_t i = 0; i < kInputs; ++i) {
    const auto s0 = Clock::now();
    add_input(*s, s->prep.instance->graph(), i, &spans);
    schedule_ms.push_back(ms_since(s0));
  }
  double traced_ms = ms_since(t0);
  m["graph.ns_per_edge"] = m["graph.gen_ms"] * 1e6 / num_edges;
  m["sim.instance.ns_per_edge"] = m["sim.instance.build_ms"] * 1e6 / num_edges;
  m["app.schedule_ms"] = median(schedule_ms);

  // Trial ids: 0 (and 1) warm up, kInputs + i are the steady trials,
  // 2 * kInputs onwards the sync runs.
  m["sim.engine.first_trial_ms"] =
      run_trial(opt, report, *s, 0, &spans, 0).run_ms;
  if (cfg.parallel) run_trial(opt, report, *s, 1 % kInputs, &spans, 1);
  std::vector<double> run_ms, digest_us;
  double run_total_ms = 0.0, events = 0.0, allocs = 0.0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    const TrialStats t = run_trial(opt, report, *s, i, &spans,
                                   static_cast<std::int64_t>(kInputs + i));
    traced_ms += t.trial_ms;
    run_ms.push_back(t.run_ms);
    digest_us.push_back(t.digest_ms * 1000.0);
    run_total_ms += t.run_ms;
    events += static_cast<double>(t.metrics.events);
    allocs += static_cast<double>(t.allocs);
    if (i == 0) {
      m["sim.engine.events"] = static_cast<double>(t.metrics.events);
      m["sim.engine.messages"] = static_cast<double>(t.metrics.messages);
    }
  }
  m["sim.engine.run_ms"] = median(run_ms);
  m["sim.engine.ns_per_event"] = run_total_ms * 1e6 / events;
  m["sim.engine.allocs_per_trial"] = allocs / static_cast<double>(kInputs);
  m["check.digest_us"] = median(digest_us);
  m["bench.trace_overhead_frac"] = traced_ms / untraced_ms - 1.0;

  // Serial base: the same instance and inputs through run_sync with
  // trial_jobs = 1. For flooding this is the lock-step engine (serial sync
  // vs async), and the round-parallel speed-up is measured on it too.
  auto sync_ms = [&](Mode mode, std::int64_t id) {
    run_trial(opt, report, *s, 0, &spans, id, mode);  // warm-up
    std::vector<double> ms;
    for (std::size_t i = 0; i < kSyncRuns; ++i) {
      ms.push_back(run_trial(opt, report, *s, i % kInputs, &spans,
                             id + 1 + static_cast<std::int64_t>(i), mode)
                       .run_ms);
    }
    return median(ms);
  };
  const auto sync_id = static_cast<std::int64_t>(2 * kInputs);
  m["sim.engine.sync_serial_ms"] = sync_ms(Mode::kSerialSync, sync_id);
  double parallel_ms = m["sim.engine.run_ms"];
  if (!cfg.parallel) {
    start_pool(*s);
    report.threads = s->jobs;
    parallel_ms = sync_ms(Mode::kParallelSync,
                          sync_id + 1 + static_cast<std::int64_t>(kSyncRuns));
  }
  m["sim.engine.parallel_speedup"] =
      m["sim.engine.sync_serial_ms"] / parallel_ms;

  tracer.merge(std::move(spans));
  cross_check_phases(report, tracer, {-1, 0}, probe_timers);
  return report;
}

Report run(const Options& opt, const Config& cfg, Tracer& tracer) {
  return opt.trace ? run_traced(opt, cfg, tracer) : run_timed(opt, cfg);
}

}  // namespace

Report run_million_flood(const Options& opt, Tracer& tracer) {
  Config cfg;
  cfg.spec.graph = "cgnp:1000000:0.000008";
  cfg.spec.schedule = "random:0.2";
  cfg.spec.algorithm = "flooding";
  cfg.spec.delay = "random:8";
  cfg.family = "flooding";
  return run(opt, cfg, tracer);
}

Report run_fast_wakeup_parallel(const Options& opt, Tracer& tracer) {
  Config cfg;
  cfg.spec.graph = "cgnp:200000:0.00004";
  cfg.spec.schedule = "random:0.2";
  cfg.spec.algorithm = "fast_wakeup";
  cfg.spec.delay = "unit";
  cfg.parallel = true;
  cfg.family = "fast_wakeup";
  return run(opt, cfg, tracer);
}

}  // namespace perfbench
