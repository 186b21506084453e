// table1_campaign: the inputs of bench_table1_summary run as a user runs
// them, through runner::run_campaign with jobs = min(4, nproc), the default
// per-trial preparation, a fresh write-through store::ResultStore and a
// JsonResultSink writing to a file.
//
// The closed loop cycles through kCampaigns campaigns, each the 7-family x
// kSeedsPerConfig grid with a base seed drawn from the workload seed, so
// every trial's digest is checked against its reference; a fresh store per
// campaign keeps the store from serving any trial. Set-up (store open, pool
// start-up and a one-seed warm-up campaign on cold workspaces) is repeated
// kSetupReps times and setup_s is the median.
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>

#include "app/spec.hpp"
#include "bench.hpp"
#include "check/scenario.hpp"
#include "obs/probe.hpp"
#include "runner/campaign.hpp"
#include "runner/result_sink.hpp"
#include "runner/thread_pool.hpp"
#include "store/digest.hpp"
#include "store/result_store.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace rise;
namespace fs = std::filesystem;

constexpr std::size_t kSeedsPerConfig = 16;  ///< as bench_table1_summary
constexpr std::size_t kCampaigns = 2;  ///< distinct campaigns per seed
/// Set-ups per run. One set-up is the makespan of seven trials on four
/// threads (~0.15 s), so a single descheduled thread moves it; setup_s is
/// the median of many.
constexpr std::size_t kSetupReps = 25;
constexpr std::size_t kUntracedReps = 3;  ///< traced run: untraced baseline

const char* const kFamilies[] = {"flooding", "ranked_dfs", "fast_wakeup",
                                 "fip06",    "sqrt",       "cen",
                                 "spanner:3"};

runner::CampaignPlan make_plan(std::uint64_t seed, std::size_t num_seeds) {
  runner::CampaignPlan plan;
  plan.base.graph = "cgnp:1000:0.008";
  plan.base.schedule = "random:0.2";
  plan.base.delay = "unit";
  plan.base.seed = seed;
  plan.grid.push_back({"algo", {std::begin(kFamilies), std::end(kFamilies)}});
  plan.num_seeds = num_seeds;
  return plan;
}

/// "spanner:3" -> "spanner3": the family's suffix in metric names.
std::string metric_family(const std::string& algo) {
  std::string out;
  for (char c : algo) {
    if (c != ':') out += c;
  }
  return out;
}

runner::SinkOptions sink_options() {
  runner::SinkOptions options;
  options.provenance = runner::collect_provenance();
  options.store_enabled = true;
  return options;
}

struct Paths {
  fs::path store;
  fs::path json;
};

Paths paths(const Options& opt, const std::string& tag) {
  const fs::path dir(opt.work_dir);
  Paths p{dir / ("store-" + tag), dir / ("campaign-" + tag + ".json")};
  fs::remove_all(p.store);
  return p;
}

void remove(const Paths& p) {
  fs::remove_all(p.store);
  fs::remove(p.json);
}

/// One campaign as rise_cli runs it: open the store and the sink, run,
/// close. Returns its wall time in ms.
double run_campaign_once(const runner::CampaignPlan& plan, std::size_t jobs,
                         const Paths& p, runner::CampaignResult& out) {
  const auto t0 = Clock::now();
  {
    store::ResultStore store(p.store.string(), "solo");
    std::ofstream os(p.json);
    runner::JsonResultSink sink(os, plan, jobs, sink_options());
    runner::CampaignOptions options;
    options.jobs = jobs;
    options.sink = &sink;
    options.store = &store;
    out = runner::run_campaign(plan, options);
  }
  return ms_since(t0);
}

/// Campaign `c` of the workload's reference set.
runner::CampaignPlan reference_plan(const Options& opt, std::size_t c) {
  return make_plan(runner::trial_seed(opt.seed, c), kSeedsPerConfig);
}

/// Checks every trial of a campaign; `reference` compares digests with the
/// workload's reference trial set, where trial t of campaign c is reference
/// input c * (trials per campaign) + t.
void verify(const Options& opt, Report& report,
            const runner::CampaignResult& result, bool reference,
            std::size_t campaign = 0) {
  const std::size_t offset = campaign * result.trials.size();
  for (const runner::TrialResult& r : result.trials) {
    const std::string what =
        r.trial.spec.algorithm + " trial " + std::to_string(r.trial.index);
    if (!r.ok || r.from_store) {
      ++report.attempted;
      ++report.failed;
      report.fail(what + (r.ok ? ": served from a fresh store"
                               : ": threw " + r.error));
      continue;
    }
    check_trial(report, what, r.all_awake, r.messages, r.result_digest,
                reference ? expected_digest(opt, report,
                                            offset + r.trial.index,
                                            r.result_digest)
                          : r.result_digest,
                r.trial.spec.algorithm == "flooding", r.num_edges);
  }
}

/// Set-up: store open, pool start-up and a one-seed warm-up campaign on
/// cold workspaces. Returns its wall time in ms.
double set_up(const Options& opt, Report& report) {
  const Paths p = paths(opt, "setup");
  runner::CampaignResult warm;
  const double ms =
      run_campaign_once(make_plan(opt.seed, 1), report.threads, p, warm);
  verify(opt, report, warm, false);
  remove(p);
  return ms;
}

Report run_timed(const Options& opt) {
  Report report;
  report.threads = bench_threads();
  std::vector<double> setup_ms;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    setup_ms.push_back(set_up(opt, report));
  }

  std::vector<runner::CampaignPlan> plans;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    plans.push_back(reference_plan(opt, c));
  }
  std::vector<double> trial_ms;
  double timed_ms = 0.0;
  std::size_t trials = 0;
  // Every reference campaign runs at least once, however short the run.
  for (std::size_t k = 0; timed_ms < opt.seconds * 1000.0 || k < kCampaigns;
       ++k) {
    const Paths p = paths(opt, "timed");
    runner::CampaignResult result;
    timed_ms +=
        run_campaign_once(plans[k % kCampaigns], report.threads, p, result);
    verify(opt, report, result, true, k % kCampaigns);
    trials += result.trials.size();
    for (const auto& r : result.trials) trial_ms.push_back(r.wall_ms);
    remove(p);
  }
  report.metrics["setup_s"] = median(setup_ms) / 1000.0;
  report.metrics["trials_per_s"] =
      static_cast<double>(trials) / (timed_ms / 1000.0);
  report.metrics["trial_s"] = median(trial_ms) / 1000.0;
  return report;
}

// ---- traced run -------------------------------------------------------------

/// Per-layer timings of one traced trial.
struct Layers {
  double prepare_ms = 0.0;
  double graph_ms = 0.0;
  double instance_ms = 0.0;
  double advice_ms = 0.0;
  double schedule_ms = 0.0;
  double exec_ms = 0.0;
  double run_ms = 0.0;
  double digest_us = 0.0;
  double append_us = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  bool cold = false;  ///< first engine run on its worker's workspace
};

/// What the campaign runner appends for an executed trial (a copy of the
/// runner's internal TrialResult -> store::TrialRecord mapping).
store::TrialRecord to_record(const runner::TrialResult& r) {
  store::TrialRecord rec;
  rec.graph = r.trial.spec.graph;
  rec.schedule = r.trial.spec.schedule;
  rec.algorithm = r.trial.spec.algorithm;
  rec.delay = r.trial.spec.delay;
  rec.seed = r.trial.spec.seed;
  rec.prepare_tag = store::prepare_tag_per_trial();
  rec.ok = r.ok;
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

/// One trial through the split calls app::prepare_experiment and
/// app::execute_prepared are made of, with the same seed tags, under spans.
/// Runs on a pool worker; spans go to the tracer when the trial ends.
void traced_trial(const runner::Trial& trial, store::ResultStore& store,
                  Tracer& tracer, runner::TrialResult& r, Layers& l) {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local const std::uint32_t tid = next_tid++;
  thread_local sim::RunWorkspace workspace;
  thread_local bool cold = true;

  const app::ExperimentSpec& spec = trial.spec;
  const auto id = static_cast<std::int64_t>(trial.index);
  SpanList spans(tid);
  r.trial = trial;
  const auto t0 = Clock::now();
  spans.begin("trial", id);

  spans.begin("prepare", id);
  const SplitPrepared prep = split_prepare(spec, spans, id);
  const sim::Instance& instance = *prep.instance;
  const app::AlgorithmSetup& algo = prep.algo;
  l.graph_ms = prep.graph_ms;
  l.instance_ms = prep.instance_ms;
  l.advice_ms = prep.advice_ms;
  l.prepare_ms = spans.end();

  spans.begin("execute", id);
  spans.begin("setup.schedule", id);
  Rng schedule_rng(mix_seed(spec.seed, 0xC));
  const sim::WakeSchedule schedule =
      app::parse_schedule_spec(spec.schedule, instance.graph(), schedule_rng);
  r.rho_awk = sim::schedule_awake_distance(instance.graph(), schedule);
  l.schedule_ms = spans.end();
  sim::RunResult result;
  std::unique_ptr<sim::DelayPolicy> delays;
  if (!algo.synchronous) {
    delays =
        app::parse_delay_spec(spec.delay, app::delay_policy_seed(spec.seed));
  }
  spans.begin("engine.run", id);
  const std::uint64_t allocs0 = thread_allocs();
  if (algo.synchronous) {
    sim::SyncKernelArgs args;
    args.instance = &instance;
    args.schedule = &schedule;
    args.seed = spec.seed;
    args.limits.sleeping_model = algo.sleeping;
    args.workspace = &workspace;
    result = algo.kernel.run_sync(args);
  } else {
    sim::AsyncKernelArgs args;
    args.instance = &instance;
    args.delays = delays.get();
    args.schedule = &schedule;
    args.seed = spec.seed;
    args.workspace = &workspace;
    result = algo.kernel.run_async(args);
  }
  l.allocs = thread_allocs() - allocs0;
  l.run_ms = spans.end();
  l.exec_ms = spans.end();
  l.cold = cold;
  cold = false;

  spans.begin("digest", id);
  r.result_digest = check::digest_run(result);
  l.digest_us = spans.end() * 1000.0;
  r.ok = true;
  r.num_nodes = instance.num_nodes();
  r.num_edges = instance.graph().num_edges();
  r.synchronous = algo.synchronous;
  r.all_awake = result.all_awake();
  r.awake_count = result.awake_count();
  r.messages = result.metrics.messages;
  r.bits = result.metrics.bits;
  r.time_units = result.metrics.time_units();
  r.rounds = result.metrics.rounds;
  r.wakeup_span = r.all_awake ? result.wakeup_span() : 0;
  r.awake_node_ticks = result.awake_node_ticks();
  r.advice_max_bits = prep.advice.max_bits;
  r.advice_avg_bits = prep.advice.avg_bits;
  l.events = result.metrics.events;
  workspace.recycle_result(std::move(result));

  // As in the runner: the trial's wall time excludes the store append.
  r.wall_ms = ms_since(t0);
  spans.begin("store.append", id);
  store.append(to_record(r));
  l.append_us = spans.end() * 1000.0;
  spans.end();
  tracer.merge(std::move(spans));
}

Report run_traced(const Options& opt, Tracer& tracer) {
  Report report;
  auto& m = report.metrics;
  const std::size_t jobs = report.threads = bench_threads();
  const runner::CampaignPlan plan = reference_plan(opt, 0);

  set_up(opt, report);

  // Untraced baseline: the production campaign path.
  std::vector<double> untraced_ms, busy;
  for (std::size_t k = 0; k < kUntracedReps; ++k) {
    const Paths p = paths(opt, "untraced");
    runner::CampaignResult result;
    untraced_ms.push_back(run_campaign_once(plan, jobs, p, result));
    verify(opt, report, result, true);
    double trial_ms = 0.0;
    for (const auto& r : result.trials) trial_ms += r.wall_ms;
    busy.push_back(trial_ms /
                   (static_cast<double>(jobs) * result.wall_ms));
    remove(p);
  }
  m["runner.pool_busy_frac"] = median(busy);

  // Traced pass: the same campaign from split calls on a pool of `jobs`.
  const Paths p = paths(opt, "traced");
  const std::vector<runner::Trial> trials = runner::expand_trials(plan);
  runner::CampaignResult result;
  result.jobs = jobs;
  result.trials.resize(trials.size());
  std::vector<Layers> layers(trials.size());
  SpanList main_spans(0);
  const auto t0 = Clock::now();
  main_spans.begin("campaign", -1);
  main_spans.begin("store.open", -1);
  auto store = std::make_unique<store::ResultStore>(p.store.string(), "solo");
  m["store.open_ms"] = main_spans.end();
  {
    main_spans.begin("trials", -1);
    runner::ThreadPool pool(jobs);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      pool.submit([&, i] {
        // As in the runner: a trial that throws is recorded, not fatal.
        try {
          traced_trial(trials[i], *store, tracer, result.trials[i],
                       layers[i]);
        } catch (const std::exception& e) {
          result.trials[i].trial = trials[i];
          result.trials[i].ok = false;
          result.trials[i].error = e.what();
        }
      });
    }
    pool.wait_idle();
    result.wall_ms = main_spans.end();
  }
  main_spans.begin("aggregate", -1);
  runner::aggregate_campaign(plan, result);
  m["runner.aggregate_ms"] = main_spans.end();
  main_spans.begin("sink", -1);
  {
    std::ofstream os(p.json);
    runner::JsonResultSink sink(os, plan, jobs, sink_options());
    for (const auto& r : result.trials) sink.trial(r);
    sink.summary(result);
  }
  m["runner.sink_ms"] = main_spans.end();
  main_spans.end();
  const double traced_ms = ms_since(t0);
  m["runner.sink_bytes"] = static_cast<double>(fs::file_size(p.json));
  m["bench.trace_overhead_frac"] = traced_ms / median(untraced_ms) - 1.0;
  verify(opt, report, result, true);

  // Warm replay: read every trial back from the store it was written to.
  std::vector<double> lookup_us;
  const std::string tag = store::prepare_tag_per_trial();
  for (const auto& r : result.trials) {
    main_spans.begin("store.lookup", static_cast<std::int64_t>(r.trial.index));
    const store::TrialRecord* rec =
        store->lookup(store::trial_key(r.trial.spec, tag), r.trial.spec, tag);
    lookup_us.push_back(main_spans.end() * 1000.0);
    if (rec == nullptr || rec->result_digest != r.result_digest) {
      report.fail("store lookup of trial " + std::to_string(r.trial.index) +
                  " did not return its record");
    }
  }
  tracer.merge(std::move(main_spans));
  store.reset();
  remove(p);

  // Cross-check: the first trial of each family through the production
  // calls with the obs::Probe attached must give the same digest and the
  // same PhaseTimer names as the traced split calls.
  for (std::size_t c = 0; c < std::size(kFamilies); ++c) {
    const runner::Trial& trial = trials[c * kSeedsPerConfig];
    obs::Probe probe;
    const app::PreparedExperiment prep =
        app::prepare_experiment(trial.spec, &probe);
    app::RunInstruments instruments;
    instruments.probe = &probe;
    const app::ExperimentReport exec =
        app::execute_prepared(prep, trial.spec, instruments);
    if (check::digest_run(exec.result) !=
        result.trials[trial.index].result_digest) {
      report.fail("production digest of trial " +
                  std::to_string(trial.index) + " differs from traced");
    }
    std::vector<std::string> names;
    for (const auto& timer : probe.take_profile(exec.result).timers) {
      names.push_back(timer.name);
    }
    cross_check_phases(report, tracer,
                       {static_cast<std::int64_t>(trial.index)}, names);
  }

  // Per-layer metrics.
  std::map<std::string, std::vector<double>> oracle, exec;
  std::vector<double> prepare, graph_ms, instance_ms, schedule, run, digest,
      append, first;
  double edges = 0.0, graph_total = 0.0, instance_total = 0.0;
  double run_total = 0.0, events = 0.0, messages = 0.0, allocs = 0.0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Layers& l = layers[i];
    const std::string family = metric_family(trials[i].spec.algorithm);
    if (l.advice_ms > 0.0) oracle[family].push_back(l.advice_ms);
    exec[family].push_back(l.exec_ms);
    prepare.push_back(l.prepare_ms);
    graph_ms.push_back(l.graph_ms);
    instance_ms.push_back(l.instance_ms);
    schedule.push_back(l.schedule_ms);
    run.push_back(l.run_ms);
    digest.push_back(l.digest_us);
    append.push_back(l.append_us);
    if (l.cold) first.push_back(l.run_ms);
    edges += static_cast<double>(result.trials[i].num_edges);
    graph_total += l.graph_ms;
    instance_total += l.instance_ms;
    run_total += l.run_ms;
    events += static_cast<double>(l.events);
    messages += static_cast<double>(result.trials[i].messages);
    allocs += static_cast<double>(l.allocs);
  }
  const auto n = static_cast<double>(trials.size());
  m["graph.gen_ms"] = median(graph_ms);
  m["graph.ns_per_edge"] = graph_total * 1e6 / edges;
  m["sim.instance.build_ms"] = median(instance_ms);
  m["sim.instance.ns_per_edge"] = instance_total * 1e6 / edges;
  for (const auto& [family, v] : oracle) {
    m["advice.oracle_ms." + family] = median(v);
  }
  m["app.schedule_ms"] = median(schedule);
  m["sim.engine.first_trial_ms"] = median(first);
  m["sim.engine.run_ms"] = median(run);
  m["sim.engine.ns_per_event"] = run_total * 1e6 / events;
  m["sim.engine.events"] = events;
  m["sim.engine.messages"] = messages;
  m["sim.engine.allocs_per_trial"] = allocs / n;
  m["runner.prepare_ms"] = median(prepare);
  for (const auto& [family, v] : exec) {
    m["runner.exec_ms." + family] = median(v);
  }
  m["check.digest_us"] = median(digest);
  m["store.append_us"] = median(append);
  m["store.lookup_us"] = median(lookup_us);
  return report;
}

}  // namespace

Report run_table1_campaign(const Options& opt, Tracer& tracer) {
  return opt.trace ? run_traced(opt, tracer) : run_timed(opt);
}

}  // namespace perfbench
