#include "app/spec.hpp"

#include <algorithm>
#include <sstream>

#include "advice/child_encoding.hpp"
#include "advice/fip06.hpp"
#include "advice/spanner_scheme.hpp"
#include "advice/sqrt_threshold.hpp"
#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "algo/gossip.hpp"
#include "algo/ranked_dfs.hpp"
#include "algo/ranked_dfs_congest.hpp"
#include "algo/sleeping.hpp"
#include "graph/cache.hpp"
#include "graph/generators.hpp"
#include "graph/high_girth.hpp"
#include "lb/beta_probing.hpp"
#include "lb/lower_bound_graphs.hpp"
#include "lb/time_restricted.hpp"
#include "runner/campaign.hpp"
#include "sim/kernel.hpp"
#include "support/check.hpp"

namespace rise::app {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(s);
  while (std::getline(is, field, sep)) out.push_back(field);
  return out;
}

std::uint64_t to_u64(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    RISE_CHECK_MSG(pos == s.size(), "trailing junk in " << what << ": " << s);
    return v;
  } catch (const std::exception&) {
    RISE_CHECK_MSG(false, "expected an integer for " << what << ", got '"
                                                     << s << "'");
  }
  return 0;
}

double to_double(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    RISE_CHECK_MSG(pos == s.size(), "trailing junk in " << what << ": " << s);
    return v;
  } catch (const std::exception&) {
    RISE_CHECK_MSG(false, "expected a number for " << what << ", got '" << s
                                                   << "'");
  }
  return 0;
}

void expect_fields(const std::vector<std::string>& f, std::size_t count,
                   const std::string& spec) {
  RISE_CHECK_MSG(f.size() == count,
                 "spec '" << spec << "' expects " << count - 1 << " argument(s)");
}

}  // namespace

graph::Graph parse_graph_spec(const std::string& spec, Rng& rng) {
  // cache:PATH:INNERSPEC — binary mmap graph cache (graph/cache.hpp). If
  // PATH exists it is mapped and validated against INNERSPEC (version,
  // endianness and stored-spec mismatches fail fast); otherwise INNERSPEC is
  // built with this call's rng and the result written to PATH. The file pins
  // one concrete topology: the generator seed is *not* part of the key, so a
  // cached random graph is the one built by whichever run created the file.
  // Delete the file to resample. PATH may not contain ':'.
  if (spec.rfind("cache:", 0) == 0) {
    const std::string rest = spec.substr(6);
    const auto sep = rest.find(':');
    RISE_CHECK_MSG(sep != std::string::npos && sep > 0 && sep + 1 < rest.size(),
                   "cache spec needs cache:PATH:INNERSPEC, got '" << spec
                                                                  << "'");
    const std::string path = rest.substr(0, sep);
    const std::string inner = rest.substr(sep + 1);
    if (graph::cache_file_exists(path)) {
      return graph::load_cache(path, inner);
    }
    graph::Graph g = parse_graph_spec(inner, rng);
    graph::write_cache(path, g, inner);
    return g;
  }
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!f.empty(), "empty graph spec");
  const std::string& kind = f[0];
  auto n_of = [&](std::size_t i) {
    return static_cast<graph::NodeId>(to_u64(f[i], "node count"));
  };
  if (kind == "path") {
    expect_fields(f, 2, spec);
    return graph::path(n_of(1));
  }
  if (kind == "cycle") {
    expect_fields(f, 2, spec);
    return graph::cycle(n_of(1));
  }
  if (kind == "star") {
    expect_fields(f, 2, spec);
    return graph::star(n_of(1));
  }
  if (kind == "complete") {
    expect_fields(f, 2, spec);
    return graph::complete(n_of(1));
  }
  if (kind == "grid" || kind == "torus") {
    expect_fields(f, 2, spec);
    const auto dims = split(f[1], 'x');
    RISE_CHECK_MSG(dims.size() == 2, "grid/torus spec needs RxC, got " << f[1]);
    const auto r = static_cast<graph::NodeId>(to_u64(dims[0], "rows"));
    const auto c = static_cast<graph::NodeId>(to_u64(dims[1], "cols"));
    return kind == "grid" ? graph::grid(r, c) : graph::torus(r, c);
  }
  if (kind == "hypercube") {
    expect_fields(f, 2, spec);
    return graph::hypercube(static_cast<unsigned>(to_u64(f[1], "dimension")));
  }
  if (kind == "tree") {
    expect_fields(f, 2, spec);
    return graph::random_tree(n_of(1), rng);
  }
  if (kind == "gnp" || kind == "cgnp") {
    expect_fields(f, 3, spec);
    const double p = to_double(f[2], "edge probability");
    return kind == "gnp" ? graph::gnp(n_of(1), p, rng)
                         : graph::connected_gnp(n_of(1), p, rng);
  }
  if (kind == "regular") {
    expect_fields(f, 3, spec);
    return graph::random_regular(n_of(1), n_of(2), rng);
  }
  if (kind == "lollipop") {
    expect_fields(f, 3, spec);
    return graph::lollipop(n_of(1), n_of(2));
  }
  if (kind == "barbell") {
    expect_fields(f, 3, spec);
    return graph::barbell(n_of(1), n_of(2));
  }
  if (kind == "ba") {
    expect_fields(f, 3, spec);
    return graph::barabasi_albert(n_of(1), n_of(2), rng);
  }
  if (kind == "pendant") {
    expect_fields(f, 2, spec);
    return graph::complete_plus_pendant(n_of(1));
  }
  if (kind == "dkq") {
    expect_fields(f, 3, spec);
    return graph::lazebnik_ustimenko_d(
               static_cast<unsigned>(to_u64(f[1], "k")), to_u64(f[2], "q"))
        .graph;
  }
  if (kind == "kt0family") {
    expect_fields(f, 2, spec);
    return lb::make_kt0_family(n_of(1)).graph;
  }
  if (kind == "kt1family") {
    expect_fields(f, 3, spec);
    return lb::make_kt1_family(static_cast<unsigned>(to_u64(f[1], "k")),
                               to_u64(f[2], "q"))
        .family.graph;
  }
  RISE_CHECK_MSG(false, "unknown graph spec kind '" << kind << "'");
  return {};
}

sim::WakeSchedule parse_schedule_spec(const std::string& spec,
                                      const graph::Graph& g, Rng& rng) {
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!f.empty(), "empty schedule spec");
  const std::string& kind = f[0];
  if (kind == "single") {
    graph::NodeId node = 0;
    if (f.size() == 2) {
      node = static_cast<graph::NodeId>(to_u64(f[1], "node"));
    } else {
      expect_fields(f, 1, spec);
    }
    RISE_CHECK_MSG(node < g.num_nodes(), "schedule node out of range");
    return sim::wake_single(node);
  }
  if (kind == "all") {
    expect_fields(f, 1, spec);
    return sim::wake_all(g.num_nodes());
  }
  if (kind == "set") {
    expect_fields(f, 2, spec);
    std::vector<graph::NodeId> nodes;
    for (const auto& tok : split(f[1], ',')) {
      const auto node = static_cast<graph::NodeId>(to_u64(tok, "node"));
      RISE_CHECK_MSG(node < g.num_nodes(), "schedule node out of range");
      nodes.push_back(node);
    }
    RISE_CHECK_MSG(!nodes.empty(), "set schedule needs at least one node");
    return sim::wake_set(std::move(nodes));
  }
  if (kind == "random") {
    expect_fields(f, 2, spec);
    return sim::wake_random_subset(g.num_nodes(),
                                   to_double(f[1], "probability"), rng);
  }
  if (kind == "staggered") {
    expect_fields(f, 3, spec);
    return sim::staggered_doubling(g.num_nodes(), to_u64(f[1], "gap"),
                                   to_double(f[2], "growth"), rng);
  }
  if (kind == "dominating") {
    expect_fields(f, 1, spec);
    return sim::dominating_set_wakeup(g);
  }
  RISE_CHECK_MSG(false, "unknown schedule spec kind '" << kind << "'");
  return {};
}

std::unique_ptr<sim::DelayPolicy> parse_delay_spec(const std::string& spec,
                                                   std::uint64_t seed) {
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!f.empty(), "empty delay spec");
  const std::string& kind = f[0];
  if (kind == "unit") {
    expect_fields(f, 1, spec);
    return sim::unit_delay();
  }
  if (kind == "fixed") {
    expect_fields(f, 2, spec);
    return sim::fixed_delay(to_u64(f[1], "tau"));
  }
  if (kind == "random") {
    expect_fields(f, 2, spec);
    return sim::random_delay(to_u64(f[1], "tau"), seed);
  }
  if (kind == "slow") {
    expect_fields(f, 3, spec);
    return sim::slow_channels_delay(to_u64(f[1], "tau"),
                                    to_u64(f[2], "one-in"), seed);
  }
  if (kind == "congestion") {
    expect_fields(f, 2, spec);
    return sim::congestion_delay(to_u64(f[1], "tau"));
  }
  RISE_CHECK_MSG(false, "unknown delay spec kind '" << kind << "'");
  return nullptr;
}

AlgorithmSetup parse_algorithm_spec(const std::string& spec) {
  const auto f = split(spec, ':');
  RISE_CHECK_MSG(!f.empty(), "empty algorithm spec");
  const std::string& kind = f[0];
  AlgorithmSetup setup;
  setup.name = spec;
  if (kind == "flooding") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.kernel = algo::flooding_kernel();
    return setup;
  }
  if (kind == "ranked_dfs" || kind == "ranked_dfs_nodiscard") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::LOCAL;
    setup.kernel = kind == "ranked_dfs" ? algo::ranked_dfs_kernel()
                                        : algo::ranked_dfs_no_discard_kernel();
    return setup;
  }
  if (kind == "ranked_dfs_congest") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.kernel = algo::ranked_dfs_congest_kernel();
    return setup;
  }
  if (kind == "leader") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::LOCAL;
    setup.kernel = algo::ranked_dfs_leader_kernel();
    return setup;
  }
  if (kind == "fast_wakeup") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT1;
    setup.bandwidth = sim::Bandwidth::LOCAL;
    setup.synchronous = true;
    setup.kernel = algo::fast_wakeup_kernel();
    return setup;
  }
  if (kind == "gossip") {
    expect_fields(f, 2, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.synchronous = true;
    const std::uint64_t budget = to_u64(f[1], "round budget");
    setup.kernel = algo::push_gossip_kernel(budget);
    return setup;
  }
  if (kind == "smis") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.synchronous = true;
    setup.sleeping = true;
    setup.kernel = algo::sleeping_mis_kernel();
    return setup;
  }
  if (kind == "smatching") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.synchronous = true;
    setup.sleeping = true;
    setup.kernel = algo::sleeping_matching_kernel();
    return setup;
  }
  if (kind == "ttl") {
    expect_fields(f, 2, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.kernel = lb::ttl_flood_kernel(
        static_cast<std::uint32_t>(to_u64(f[1], "ttl")));
    return setup;
  }
  if (kind == "fip06") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = advice::fip06_oracle();
    setup.kernel = advice::fip06_kernel();
    return setup;
  }
  if (kind == "sqrt") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = advice::sqrt_threshold_oracle();
    setup.kernel = advice::sqrt_threshold_kernel();
    return setup;
  }
  if (kind == "cen" || kind == "cen_chain") {
    expect_fields(f, 1, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = advice::child_encoding_oracle(0, kind == "cen" ? 2 : 1);
    setup.kernel = advice::child_encoding_kernel();
    return setup;
  }
  if (kind == "spanner") {
    expect_fields(f, 2, spec);
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle =
        advice::spanner_oracle(static_cast<unsigned>(to_u64(f[1], "k")));
    setup.kernel = advice::spanner_kernel();
    return setup;
  }
  if (kind == "cor2") {
    expect_fields(f, 1, spec);
    auto scheme = advice::corollary2_scheme();
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = std::move(scheme.oracle);
    setup.kernel = std::move(scheme.algorithm);
    return setup;
  }
  if (kind == "beta") {
    expect_fields(f, 2, spec);
    const auto beta = static_cast<unsigned>(to_u64(f[1], "beta"));
    setup.knowledge = sim::Knowledge::KT0;
    setup.bandwidth = sim::Bandwidth::CONGEST;
    setup.oracle = lb::beta_probing_oracle(beta);
    setup.kernel = lb::beta_probing_kernel(beta);
    return setup;
  }
  RISE_CHECK_MSG(false, "unknown algorithm '" << kind
                                              << "'; see algorithm_names()");
  return setup;
}

std::vector<std::string> algorithm_names() {
  return {"flooding", "ranked_dfs", "ranked_dfs_congest",
          "ranked_dfs_nodiscard", "leader", "fast_wakeup", "gossip:BUDGET",
          "smis", "smatching", "ttl:R", "fip06", "sqrt", "cen", "cen_chain",
          "spanner:K", "cor2", "beta:B"};
}

ExperimentReport run_experiment(const ExperimentSpec& spec) {
  return run_experiment(spec, RunInstruments{});
}

std::uint64_t delay_policy_seed(std::uint64_t experiment_seed) {
  return mix_seed(experiment_seed, 0xD);
}

PreparedExperiment prepare_experiment(const ExperimentSpec& spec,
                                      obs::Probe* probe) {
  PreparedExperiment prep;
  prep.spec = spec;

  Rng graph_rng(mix_seed(spec.seed, 0xA));
  graph::Graph g;
  {
    obs::PhaseTimer timer(probe, "setup.graph");
    g = parse_graph_spec(spec.graph, graph_rng);
  }

  AlgorithmSetup algorithm = parse_algorithm_spec(spec.algorithm);
  prep.algorithm = algorithm.name;
  prep.synchronous = algorithm.synchronous;
  prep.sleeping = algorithm.sleeping;
  prep.kernel = std::move(algorithm.kernel);

  sim::InstanceOptions options;
  options.knowledge = algorithm.knowledge;
  options.bandwidth = algorithm.bandwidth;
  std::shared_ptr<sim::Instance> instance;
  {
    obs::PhaseTimer timer(probe, "setup.instance");
    Rng instance_rng(mix_seed(spec.seed, 0xB));
    instance = std::make_shared<sim::Instance>(
        sim::Instance::create(std::move(g), options, instance_rng));
  }
  if (algorithm.oracle != nullptr) {
    obs::PhaseTimer timer(probe, "setup.advice");
    prep.advice = advice::apply_oracle(*instance, *algorithm.oracle);
  }
  // const from here on: the instance is complete (advice installed) and
  // every remaining access is a thread-safe read.
  prep.instance = std::move(instance);
  return prep;
}

ExperimentReport execute_prepared(const PreparedExperiment& prepared,
                                  const ExperimentSpec& spec,
                                  const RunInstruments& instruments,
                                  sim::RunWorkspace* workspace) {
  RISE_CHECK_MSG(
      spec.graph == prepared.spec.graph &&
          spec.algorithm == prepared.spec.algorithm,
      "spec (graph=" << spec.graph << ", algo=" << spec.algorithm
                     << ") does not match the prepared configuration (graph="
                     << prepared.spec.graph
                     << ", algo=" << prepared.spec.algorithm << ")");
  obs::Probe* probe = instruments.probe;
  const sim::Instance& instance = *prepared.instance;
  const graph::Graph& g = instance.graph();

  ExperimentReport report;
  report.algorithm = prepared.algorithm;
  report.synchronous = prepared.synchronous;
  report.num_nodes = g.num_nodes();
  report.num_edges = g.num_edges();
  report.advice = prepared.advice;

  sim::WakeSchedule schedule;
  {
    obs::PhaseTimer timer(probe, "setup.schedule");
    Rng schedule_rng(mix_seed(spec.seed, 0xC));
    schedule = parse_schedule_spec(spec.schedule, g, schedule_rng);
    report.rho_awk = sim::schedule_awake_distance(g, schedule);
  }

  RISE_CHECK_MSG(static_cast<bool>(prepared.kernel),
                 "prepared experiment has no algorithm handle");
  const bool synchronous =
      prepared.synchronous || instruments.force_sync_engine;
  if (synchronous) {
    report.synchronous = true;
    if (instruments.on_setup) {
      instruments.on_setup(instance, schedule, nullptr, true);
    }
    sim::SyncKernelArgs args;
    args.instance = &instance;
    args.schedule = &schedule;
    args.seed = spec.seed;
    args.limits.sleeping_model = prepared.sleeping;
    args.trace = instruments.trace;
    args.probe = probe;
    args.workspace = workspace;
    args.parallel = {instruments.trial_executor, instruments.trial_jobs};
    obs::PhaseTimer timer(probe, "engine.run");
    report.result = prepared.kernel.run_sync(args);
    timer.set_sim_span(report.result.metrics.rounds);
  } else {
    std::unique_ptr<sim::DelayPolicy> parsed;
    const sim::DelayPolicy* delays = instruments.delay_override;
    if (delays == nullptr) {
      parsed = parse_delay_spec(spec.delay, delay_policy_seed(spec.seed));
      delays = parsed.get();
    }
    if (instruments.on_setup) {
      instruments.on_setup(instance, schedule, delays, false);
    }
    sim::AsyncKernelArgs args;
    args.instance = &instance;
    args.delays = delays;
    args.schedule = &schedule;
    args.seed = spec.seed;
    args.trace = instruments.trace;
    args.probe = probe;
    args.queue_mode = instruments.queue_mode;
    args.workspace = workspace;
    obs::PhaseTimer timer(probe, "engine.run");
    report.result = prepared.kernel.run_async(args);
    timer.set_sim_span(std::max(report.result.metrics.last_delivery,
                                report.result.metrics.last_wake));
  }
  return report;
}

ExperimentReport run_experiment(const ExperimentSpec& spec,
                                const RunInstruments& instruments) {
  // The split is exhaustive: preparing and executing with the same spec is
  // the legacy single-shot path, bit for bit.
  const PreparedExperiment prepared =
      prepare_experiment(spec, instruments.probe);
  return execute_prepared(prepared, spec, instruments);
}

obs::RunProfile take_run_profile(obs::Probe& probe,
                                 const ExperimentReport& report,
                                 const ExperimentSpec& spec) {
  obs::RunProfile profile = probe.take_profile(report.result);
  profile.algorithm = spec.algorithm;
  profile.graph = spec.graph;
  profile.schedule = spec.schedule;
  profile.delay = spec.delay;
  profile.seed = spec.seed;
  profile.num_nodes = report.num_nodes;
  profile.num_edges = report.num_edges;
  profile.rho_awk = report.rho_awk;
  profile.synchronous = report.synchronous;
  return profile;
}

ProfiledReport run_profiled(const ExperimentSpec& spec,
                            const RunInstruments& instruments) {
  obs::Probe probe;
  RunInstruments probed = instruments;
  probed.probe = &probe;

  ProfiledReport out;
  out.report = run_experiment(spec, probed);
  out.profile = take_run_profile(probe, out.report, spec);
  return out;
}

SweepResult run_sweep(const ExperimentSpec& base, std::size_t num_seeds,
                      std::size_t jobs) {
  RISE_CHECK(num_seeds >= 1);
  runner::CampaignPlan plan;
  plan.base = base;
  plan.num_seeds = num_seeds;
  plan.seed_mode = runner::SeedMode::kSequential;  // seeds base, base+1, ...
  runner::CampaignOptions options;
  options.jobs = jobs;
  const runner::CampaignResult result = runner::run_campaign(plan, options);

  SweepResult sweep;
  sweep.runs = result.total.trials;
  // A trial that throws (e.g. a disconnected gnp graph rejected by an
  // algorithm's preconditions) counts as a failed run, like an incomplete
  // wake-up; errors no longer abort the remaining seeds.
  sweep.failures = result.total.failures + result.total.errors;
  sweep.messages = result.total.messages;
  sweep.time_units = result.total.time_units;
  sweep.wakeup_span = result.total.wakeup_span;
  return sweep;
}

std::string format_sweep(const SweepResult& sweep) {
  std::ostringstream os;
  os << "runs      : " << sweep.runs << " (" << sweep.failures
     << " incomplete)\n";
  if (sweep.messages.count() > 0) {
    os << "messages  : mean " << sweep.messages.mean() << "  sd "
       << sweep.messages.stddev() << "  min " << sweep.messages.min()
       << "  max " << sweep.messages.max() << "\n";
    os << "time      : mean " << sweep.time_units.mean() << "  sd "
       << sweep.time_units.stddev() << "  max " << sweep.time_units.max()
       << "\n";
    os << "wake span : mean " << sweep.wakeup_span.mean() << "  max "
       << sweep.wakeup_span.max() << "\n";
  }
  return os.str();
}

std::string format_report(const ExperimentReport& report) {
  std::ostringstream os;
  os << "algorithm : " << report.algorithm
     << (report.synchronous ? "  (synchronous)" : "  (asynchronous)") << "\n";
  os << "network   : n=" << report.num_nodes << "  m=" << report.num_edges
     << "  rho_awk=" << report.rho_awk << "\n";
  os << "outcome   : "
     << (report.result.all_awake() ? "all nodes awake"
                                   : "SOME NODES STILL ASLEEP")
     << " (" << report.result.awake_count() << "/" << report.num_nodes
     << ")\n";
  os << "time      : " << report.result.metrics.time_units() << " units";
  if (report.synchronous) {
    os << "  (" << report.result.metrics.rounds << " rounds)";
  }
  os << "\n";
  os << "messages  : " << report.result.metrics.messages << "  ("
     << report.result.metrics.bits << " bits)\n";
  if (report.advice.total_bits > 0) {
    os << "advice    : max " << report.advice.max_bits << " bits, avg "
       << report.advice.avg_bits << " bits per node\n";
  }
  return os.str();
}

}  // namespace rise::app
