// rise_cli — run any wake-up experiment from the command line.
//
//   rise_cli --graph gnp:1000:0.01 --algo ranked_dfs
//            --schedule staggered:10:2 --delay random:5 --seed 7
//   rise_cli --graph gnp:2000:0.005 --algo ranked_dfs --seeds 64
//            --jobs 8 --json out.json        # parallel campaign
//   rise_cli --seeds 16 --grid algo=flooding,ranked_dfs,cen
//   rise_cli --list                  # algorithm catalog
//   rise_cli --dot grid:4x4          # emit Graphviz DOT for a topology
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "app/spec.hpp"
#include "check/corpus.hpp"
#include "check/fuzz.hpp"
#include "graph/io.hpp"
#include "search/hunt.hpp"
#include "obs/profile.hpp"
#include "runner/campaign.hpp"
#include "runner/result_sink.hpp"
#include "runner/shard.hpp"
#include "runner/thread_pool.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace {

void usage() {
  std::printf(
      "usage: rise_cli [run] [--graph SPEC] [--schedule SPEC] [--algo SPEC]\n"
      "                [--delay SPEC] [--seed N] [--seeds COUNT] [--jobs N]\n"
      "                [--trial-jobs N] [--json PATH] [--grid PARAM=a,b,c]...\n"
      "                [--progress] [--profile[=PATH]] [--share-config]\n"
      "                [--store DIR] [--shard K/N]\n"
      "       rise_cli shard --workers N --store DIR [campaign flags]\n"
      "                      [--max-restarts N] [--json PATH]\n"
      "                      [--profile[=PATH]]\n"
      "       rise_cli --list\n"
      "       rise_cli --dot GRAPH_SPEC [--seed N]\n"
      "       rise_cli profile FILE [--top N]\n"
      "       rise_cli fuzz [--trials N] [--seed N] [--jobs N]\n"
      "                     [--trial-jobs N] [--max-nodes N] [--max-tau T]\n"
      "                     [--families a,b] [--fault late_delivery]\n"
      "                     [--no-shrink] [--no-thread-check]\n"
      "                     [--corpus FILE]...\n"
      "       rise_cli hunt [--graph SPEC] [--schedule SPEC] [--algo SPEC]\n"
      "                     [--delay SPEC] [--seed N] [--budget N]\n"
      "                     [--objective messages|time|rho_awk]\n"
      "                     [--search ea|anneal] [--lambda N] [--jobs N]\n"
      "                     [--trial-jobs N] [--baseline random|none]\n"
      "                     [--min-nodes N] [--max-nodes N] [--max-tau T]\n"
      "                     [--corpus FILE] [--json PATH]\n\n"
      "single run: every random choice derives from --seed (default 1).\n"
      "  --profile[=PATH]  attach the observability probe: print a per-phase\n"
      "                    breakdown and write a run_profile JSON document to\n"
      "                    PATH (default profile.json). The probe only\n"
      "                    observes: metrics and digests match an unprofiled\n"
      "                    run bit for bit. In campaign mode, profiles every\n"
      "                    trial and writes the merged profile_aggregate.\n\n"
      "profile FILE: pretty-print a profile JSON document written by\n"
      "  --profile (run_profile or profile_aggregate); --top N bounds the\n"
      "  per-section breakdown (default 8).\n\n"
      "campaigns (enabled by --seeds > 1, --grid, --json, or --jobs):\n"
      "  --seeds COUNT     trials per grid config. --seed is the base of the\n"
      "                    campaign: each trial's seed is derived from\n"
      "                    (seed, trial index) via SplitMix64, so changing\n"
      "                    --seed shifts every trial and results are\n"
      "                    bit-identical for any --jobs value.\n"
      "  --jobs N          worker threads (0 = all hardware threads;\n"
      "                    default 1)\n"
      "  --trial-jobs N    round-parallel workers INSIDE each synchronous\n"
      "                    trial (lock-step engine only; asynchronous runs\n"
      "                    ignore it). Orthogonal to --jobs: --jobs J runs J\n"
      "                    trials concurrently, --trial-jobs T splits each\n"
      "                    trial's rounds across T workers, and the pool\n"
      "                    carries J*T threads so the two never\n"
      "                    oversubscribe. Results are bit-identical for any\n"
      "                    value; use it to speed up few large trials where\n"
      "                    --jobs has nothing to parallelize over.\n"
      "  --json PATH       structured results: one record per trial plus a\n"
      "                    summary block (schema_version %llu)\n"
      "  --grid P=a,b,c    sweep spec param P in {graph, schedule, algo,\n"
      "                    delay}; repeatable, axes combine as a cartesian\n"
      "                    product\n"
      "  --progress        completed/total + trials/s + ETA on stderr\n"
      "                    (auto-enabled on a tty)\n"
      "  --share-config    prepare each grid config once from the base seed\n"
      "                    (graph + instance + oracle advice shared across\n"
      "                    its trials); only schedule/delay/engine\n"
      "                    randomness vary per trial. Changes what is\n"
      "                    measured — variance over runs on one topology —\n"
      "                    so it is opt-in; default rebuilds per trial seed.\n"

      "  --store DIR       content-addressed result store: trials already\n"
      "                    recorded (same spec + seed + prepare mode) are\n"
      "                    served from DIR without executing; every executed\n"
      "                    trial is appended. Makes interrupted campaigns\n"
      "                    resumable and repeated grid points free.\n"
      "  --shard K/N       execute only shard K of an N-way trial-index\n"
      "                    split (results keep global trial indices);\n"
      "                    normally set by `rise_cli shard`, not by hand\n\n"
      "shard: run a campaign as N worker processes against a shared result\n"
      "  store, restart crashed workers (they resume from the store), and\n"
      "  merge the workers' outputs into one results document whose\n"
      "  per-trial digests are bit-identical to a single-process run.\n"
      "  --workers N       worker process count (= shard count; default 2)\n"
      "  --store DIR       shared result store directory (required)\n"
      "  --max-restarts N  per-worker crash-restart budget (default 3)\n"
      "  --jobs N          threads per worker (default 1)\n"
      "  campaign flags (--graph, --seeds, --grid, --share-config, ...)\n"
      "  describe the plan exactly as in campaign mode.\n\n"
      "fuzz: sample deterministic scenarios, check run invariants, and\n"
      "  replay each on every engine configuration that must agree (bucket\n"
      "  vs heap event queue, async vs lock-step for unit-delay flooding,\n"
      "  1 vs N runner threads). Failures are shrunk to one-line repros.\n"
      "  --fault late_delivery injects a synthetic causality bug to prove\n"
      "  the checker bites. --corpus FILE (repeatable) first replays every\n"
      "  recorded regression scenario and requires it clean and\n"
      "  digest-stable. Exit 0 iff every trial and corpus entry is clean.\n\n"
      "hunt: optimizing adversary search. Starting from the --graph/--algo/\n"
      "  --schedule/--delay genome, a (1+lambda) evolutionary search (or\n"
      "  --search anneal) mutates graph parameters, wake schedule, delay\n"
      "  policy, and seed (the KT0 port-permutation axis), maximizing\n"
      "  --objective over --budget evaluations; --baseline random re-spends\n"
      "  the same budget on uniform random genomes as a control. The\n"
      "  champion is replayed through the invariant checker; --corpus FILE\n"
      "  appends it as a regression entry `rise_cli fuzz --corpus` replays\n"
      "  bit-identically. Deterministic for any --jobs value.\n\n"
      "(the library call app::run_sweep keeps the legacy sequential seeds\n"
      " base, base+1, ... for reproducing pre-campaign sweeps)\n\n"
      "spec grammars (see src/app/spec.hpp for the full list):\n"
      "  graph:    gnp:N:P | cgnp:N:P | grid:RxC | torus:RxC | star:N |\n"
      "            regular:N:D | dkq:K:Q | kt0family:N | kt1family:K:Q |\n"
      "            cache:PATH:INNERSPEC (mmap INNERSPEC from PATH, building\n"
      "            and writing the binary cache on first use) | ...\n"
      "  schedule: single[:NODE] | all | set:a,b,c | random:P |\n"
      "            staggered:GAP:GROWTH | dominating\n"
      "  delay:    unit | fixed:TAU | random:TAU | slow:TAU:ONE_IN |\n"
      "            congestion:TAU\n"
      "  algo:     flooding | ranked_dfs | fast_wakeup | fip06 | cen |\n"
      "            spanner:K | cor2 | beta:B | ...\n",
      static_cast<unsigned long long>(rise::runner::kResultsSchemaVersion));
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
                 flag.c_str(), text.c_str());
    std::exit(2);
  }
  return v;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(',', start);
    if (pos == std::string::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    if (pos > start) out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

/// The campaign-plan flags `run` and `shard` share, parsed in one place.
/// --jobs is not among them: it counts threads per campaign in `run` and
/// threads per worker process in `shard`.
struct PlanFlags {
  rise::app::ExperimentSpec spec;
  std::vector<std::string> grid_args;
  std::size_t seeds = 1;
  bool share_config = false;
  std::uint32_t trial_jobs = 1;
  rise::runner::ShardStrategy shard_strategy =
      rise::runner::ShardStrategy::kRoundRobin;
  bool profile = false;
  std::string profile_path;
  int progress_state = -1;  // -1 auto (tty), 0 off, 1 on

  /// Consumes `arg` (and its value, through `value`) if it is a plan flag;
  /// returns false otherwise. Exits with status 2 on a malformed value.
  template <class Value>
  bool parse(const std::string& arg, Value&& value) {
    if (arg == "--graph") {
      spec.graph = value();
    } else if (arg == "--schedule") {
      spec.schedule = value();
    } else if (arg == "--algo") {
      spec.algorithm = value();
    } else if (arg == "--delay") {
      spec.delay = value();
    } else if (arg == "--seed") {
      spec.seed = parse_count(arg, value());
    } else if (arg == "--seeds") {
      seeds = parse_count(arg, value());
    } else if (arg == "--grid") {
      grid_args.push_back(value());
    } else if (arg == "--share-config") {
      share_config = true;
    } else if (arg == "--trial-jobs") {
      trial_jobs = static_cast<std::uint32_t>(parse_count(arg, value()));
    } else if (arg == "--shard-strategy") {
      const std::string s = value();
      if (s == "block") {
        shard_strategy = rise::runner::ShardStrategy::kBlock;
      } else if (s == "roundrobin") {
        shard_strategy = rise::runner::ShardStrategy::kRoundRobin;
      } else {
        std::fprintf(stderr,
                     "error: --shard-strategy expects roundrobin|block\n");
        std::exit(2);
      }
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile = true;
      profile_path = arg.substr(std::strlen("--profile="));
    } else if (arg == "--progress") {
      progress_state = 1;
    } else if (arg == "--no-progress") {
      progress_state = 0;
    } else {
      return false;
    }
    return true;
  }

  /// The campaign plan these flags describe. Throws on a bad --grid axis.
  rise::runner::CampaignPlan plan() const {
    rise::runner::CampaignPlan plan;
    plan.base = spec;
    plan.num_seeds = seeds;
    plan.profile = profile;
    plan.prepare_mode = share_config ? rise::runner::PrepareMode::kSharedConfig
                                     : rise::runner::PrepareMode::kPerTrial;
    for (const auto& axis : grid_args) {
      plan.grid.push_back(rise::runner::parse_grid_axis(axis));
    }
    return plan;
  }

  std::string profile_out() const {
    return profile_path.empty() ? "profile.json" : profile_path;
  }
  bool progress() const {
    return progress_state == -1 ? isatty(fileno(stderr)) != 0
                                : progress_state == 1;
  }
};

int run_fuzz_command(int argc, char** argv) {
  using namespace rise;
  check::FuzzOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trials") {
      options.trials = parse_count(arg, value());
    } else if (arg == "--seed") {
      options.seed = parse_count(arg, value());
    } else if (arg == "--jobs") {
      options.jobs = parse_count(arg, value());
    } else if (arg == "--trial-jobs") {
      options.trial_jobs =
          static_cast<std::uint32_t>(parse_count(arg, value()));
    } else if (arg == "--max-nodes") {
      options.generator.max_nodes =
          static_cast<sim::NodeId>(parse_count(arg, value()));
    } else if (arg == "--max-tau") {
      options.generator.max_tau = parse_count(arg, value());
    } else if (arg == "--families") {
      options.generator.families = split_commas(value());
    } else if (arg == "--fault") {
      const std::string kind = value();
      if (kind != "late_delivery") {
        std::fprintf(stderr, "unknown fault '%s' (try: late_delivery)\n",
                     kind.c_str());
        return 2;
      }
      options.fault = check::FaultKind::kLateDelivery;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--no-thread-check") {
      options.verify_threads = false;
    } else if (arg == "--corpus") {
      options.corpus.push_back(value());
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown fuzz flag %s\n", arg.c_str());
      return 2;
    }
  }
  const check::FuzzReport report = check::run_fuzz(options);
  std::fputs(check::format_fuzz(report).c_str(), stdout);
  return report.ok() && (report.threads_verified || !options.verify_threads)
             ? 0
             : 1;
}

bool ensure_writable(const std::string& path);

int run_hunt_command(int argc, char** argv) {
  using namespace rise;
  search::HuntOptions options;
  options.initial.spec.graph = "cgnp:64:0.1";
  options.initial.spec.schedule = "single";
  options.initial.spec.algorithm = "flooding";
  options.initial.spec.delay = "unit";
  std::string corpus_path;
  std::string json_path;
  bool seed_set = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--graph") {
      options.initial.spec.graph = value();
    } else if (arg == "--schedule") {
      options.initial.spec.schedule = value();
    } else if (arg == "--algo") {
      options.initial.spec.algorithm = value();
    } else if (arg == "--delay") {
      options.initial.spec.delay = value();
    } else if (arg == "--seed") {
      options.seed = parse_count(arg, value());
      seed_set = true;
    } else if (arg == "--budget") {
      options.budget = parse_count(arg, value());
    } else if (arg == "--lambda") {
      options.lambda = parse_count(arg, value());
    } else if (arg == "--jobs") {
      options.jobs = parse_count(arg, value());
    } else if (arg == "--trial-jobs") {
      options.trial_jobs =
          static_cast<std::uint32_t>(parse_count(arg, value()));
    } else if (arg == "--objective") {
      options.objective = search::parse_objective(value());
    } else if (arg == "--search") {
      options.algorithm = value();
    } else if (arg == "--baseline") {
      const std::string kind = value();
      if (kind == "random") {
        options.baseline = true;
      } else if (kind == "none") {
        options.baseline = false;
      } else {
        std::fprintf(stderr, "unknown baseline '%s' (try: random|none)\n",
                     kind.c_str());
        return 2;
      }
    } else if (arg == "--min-nodes") {
      options.limits.min_nodes =
          static_cast<std::uint32_t>(parse_count(arg, value()));
    } else if (arg == "--max-nodes") {
      options.limits.max_nodes =
          static_cast<std::uint32_t>(parse_count(arg, value()));
    } else if (arg == "--max-tau") {
      options.limits.max_tau = parse_count(arg, value());
    } else if (arg == "--corpus") {
      corpus_path = value();
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown hunt flag %s\n", arg.c_str());
      return 2;
    }
  }
  // One --seed drives the whole hunt: the search streams AND the initial
  // genome's engine seed, so `hunt --seed S` is one reproducible experiment.
  if (seed_set) options.initial.spec.seed = options.seed;
  options.initial.family =
      check::scenario_family_of(options.initial.spec.algorithm);

  const search::HuntReport report = search::run_hunt(options);
  std::fputs(search::format_hunt(report).c_str(), stdout);
  if (!json_path.empty()) {
    if (!ensure_writable(json_path)) return 2;
    std::ofstream out(json_path);
    out << search::hunt_to_json(report) << "\n";
    std::printf("json      : %s\n", json_path.c_str());
  }
  if (report.champion_value < 0.0 || !report.champion_clean) return 1;
  if (!corpus_path.empty()) {
    check::append_corpus(corpus_path, search::champion_entry(report));
    std::printf("corpus    : %s (champion appended)\n", corpus_path.c_str());
  }
  return 0;
}

int run_profile_command(int argc, char** argv) {
  using namespace rise;
  std::string path;
  std::size_t top_n = 8;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --top\n");
        return 2;
      }
      top_n = parse_count(arg, argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown profile flag %s\n", arg.c_str());
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "profile takes exactly one FILE argument\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: rise_cli profile FILE [--top N]\n");
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  std::fputs(obs::format_profile_document(doc, top_n).c_str(), stdout);
  return 0;
}

/// Fail-fast output check: an output path the campaign cannot write must
/// kill the run before any trial executes, not after minutes of work.
/// Opens (creating/truncating) the file; prints an error naming the path on
/// failure. The caller overwrites the file with real content later.
bool ensure_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::binary | std::ios::trunc);
  if (!probe.good()) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  return true;
}

/// This binary's own path, for `rise_cli shard` to exec workers.
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int run_shard_command(int argc, char** argv) {
  using namespace rise;
  PlanFlags flags;
  runner::ShardCampaignOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flags.parse(arg, value)) continue;
    if (arg == "--workers") {
      options.workers = static_cast<std::uint32_t>(parse_count(arg, value()));
    } else if (arg == "--jobs") {
      options.jobs_per_worker = parse_count(arg, value());
    } else if (arg == "--store") {
      options.store_dir = value();
    } else if (arg == "--max-restarts") {
      options.max_restarts = static_cast<int>(parse_count(arg, value()));
    } else if (arg == "--json") {
      options.json_path = value();
    } else if (arg == "--die-once") {
      // Fault injection for the resume tests: K:N makes worker K (first
      // launch only) SIGKILL itself after N executed trials.
      const std::string kv = value();
      const auto colon = kv.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "error: --die-once expects WORKER:TRIALS\n");
        return 2;
      }
      options.die_worker = static_cast<std::uint32_t>(
          parse_count(arg, kv.substr(0, colon)));
      options.die_after =
          static_cast<int>(parse_count(arg, kv.substr(colon + 1)));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown shard flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.store_dir.empty()) {
    std::fprintf(stderr, "error: rise_cli shard requires --store DIR\n");
    return 2;
  }
  if (options.workers < 1) {
    std::fprintf(stderr, "error: --workers must be >= 1\n");
    return 2;
  }
  const runner::CampaignPlan plan = flags.plan();
  const bool profile = flags.profile;
  options.trial_jobs = flags.trial_jobs;
  options.strategy = flags.shard_strategy;
  options.exe = self_exe(argv[0]);
  options.progress = flags.progress();
  options.profile = profile;
  if (profile) {
    options.profile_path = flags.profile_out();
    if (!ensure_writable(options.profile_path)) return 2;
  }
  if (!options.json_path.empty() && !ensure_writable(options.json_path)) {
    return 2;
  }

  const runner::ShardCampaignReport report =
      runner::run_shard_campaign(plan, options);
  if (!report.ok) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 2;
  }
  std::fputs(runner::format_campaign(report.merged).c_str(), stdout);
  std::printf("shard     : %u worker(s), %llu restart(s)\n", options.workers,
              static_cast<unsigned long long>(report.restarts));
  std::printf("store     : %s (%llu hits, %llu misses)\n",
              options.store_dir.c_str(),
              static_cast<unsigned long long>(report.store_hits),
              static_cast<unsigned long long>(report.store_misses));
  if (profile) {
    std::fputs(obs::format_aggregate(report.merged.profile).c_str(), stdout);
    std::printf("profile   : %s (merged over %zu trials)\n",
                options.profile_path.c_str(), report.merged.profile.trials);
  }
  if (!options.json_path.empty()) {
    std::printf("json      : %s (%zu trial records, merged)\n",
                options.json_path.c_str(), report.merged.trials.size());
  }
  return report.merged.total.failures == 0 && report.merged.total.errors == 0
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rise;
  if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0) {
    try {
      return run_fuzz_command(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "hunt") == 0) {
    try {
      return run_hunt_command(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "profile") == 0) {
    try {
      return run_profile_command(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "shard") == 0) {
    try {
      return run_shard_command(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  PlanFlags flags;
  const app::ExperimentSpec& spec = flags.spec;
  std::string dot_graph;
  std::string json_path;
  std::string store_dir;
  runner::ShardSpec shard;
  bool list = false;
  bool campaign_mode = false;
  bool embed_profiles = false;
  int die_after = 0;
  std::size_t jobs = 1;
  // "run" is an optional subcommand alias for the default mode, symmetric
  // with "fuzz" and "profile".
  const int first_flag = argc > 1 && std::strcmp(argv[1], "run") == 0 ? 2 : 1;
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // --trial-jobs is among the plan flags: intra-trial parallelism applies
    // to single runs too, so it does not force campaign mode.
    if (flags.parse(arg, value)) continue;
    if (arg == "--jobs") {
      jobs = parse_count(arg, value());
      campaign_mode = true;
    } else if (arg == "--json") {
      json_path = value();
      campaign_mode = true;
    } else if (arg == "--store") {
      store_dir = value();
      campaign_mode = true;
    } else if (arg == "--shard") {
      try {
        shard = runner::parse_shard_spec(value());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      campaign_mode = true;
    } else if (arg == "--die-after") {
      die_after = static_cast<int>(parse_count(arg, value()));
    } else if (arg == "--embed-profiles") {
      embed_profiles = true;
    } else if (arg == "--dot") {
      dot_graph = value();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (flags.seeds > 1 || !flags.grid_args.empty() || flags.share_config) {
    campaign_mode = true;
  }

  try {
    if (list) {
      std::printf("algorithms:\n");
      for (const auto& name : app::algorithm_names()) {
        std::printf("  %s\n", name.c_str());
      }
      return 0;
    }
    if (!dot_graph.empty()) {
      Rng rng(spec.seed);
      graph::write_dot(std::cout, app::parse_graph_spec(dot_graph, rng));
      return 0;
    }
    const bool profile = flags.profile;
    const std::uint32_t trial_jobs = flags.trial_jobs;
    const std::string profile_out = flags.profile_out();
    // Fail fast: a doomed output path must kill the run before any trial
    // executes, not after the campaign finishes.
    if (profile && !ensure_writable(profile_out)) return 2;
    if (campaign_mode) {
      const runner::CampaignPlan plan = flags.plan();
      runner::CampaignOptions options;
      options.jobs = jobs == 0 ? runner::ThreadPool::hardware_threads() : jobs;
      options.trial_jobs = trial_jobs;
      options.progress = flags.progress();
      options.shard = shard;
      options.shard_strategy = flags.shard_strategy;
      options.die_after = die_after;

      // The store ctor throws a CheckError naming the path when DIR cannot
      // be created or written — caught below, nonzero exit.
      std::unique_ptr<rise::store::ResultStore> store;
      if (!store_dir.empty()) {
        const std::string writer_tag =
            shard.whole_campaign() ? "solo"
                                   : "shard-" + std::to_string(shard.index);
        store = std::make_unique<rise::store::ResultStore>(store_dir,
                                                           writer_tag);
        options.store = store.get();
      }

      std::ofstream json_out;
      std::unique_ptr<runner::JsonResultSink> sink;
      if (!json_path.empty()) {
        json_out.open(json_path);
        if (!json_out) {
          std::fprintf(stderr, "error: cannot open %s for writing\n",
                       json_path.c_str());
          return 2;
        }
        runner::SinkOptions sink_options;
        sink_options.provenance = runner::collect_provenance(shard);
        sink_options.embed_profiles = embed_profiles;
        sink_options.store_enabled = store != nullptr;
        sink = std::make_unique<runner::JsonResultSink>(
            json_out, plan, options.jobs, sink_options);
      }
      options.sink = sink.get();

      const auto result = runner::run_campaign(plan, options);
      std::fputs(runner::format_campaign(result).c_str(), stdout);
      if (store != nullptr) {
        std::printf("store     : %s (%llu hits, %llu misses)\n",
                    store_dir.c_str(),
                    static_cast<unsigned long long>(result.store_hits),
                    static_cast<unsigned long long>(result.store_misses));
      }
      if (profile) {
        std::fputs(obs::format_aggregate(result.profile).c_str(), stdout);
        std::ofstream out(profile_out);
        if (!out) {
          std::fprintf(stderr, "error: cannot open %s for writing\n",
                       profile_out.c_str());
          return 2;
        }
        out << obs::aggregate_to_json(result.profile);
        std::printf("profile   : %s (merged over %zu trials)\n",
                    profile_out.c_str(), result.profile.trials);
      }
      if (!json_path.empty()) {
        json_out << "\n";
        std::printf("json      : %s (%zu trial records)\n", json_path.c_str(),
                    result.trials.size());
      }
      return result.total.failures == 0 && result.total.errors == 0 ? 0 : 1;
    }
    // Single run. --trial-jobs N spins up a pool whose only purpose is
    // round-parallel chunk execution inside the (synchronous) engine;
    // results are bit-identical to the default serial run.
    app::RunInstruments instruments;
    std::unique_ptr<runner::ThreadPool> trial_pool;
    std::unique_ptr<runner::PoolChunkExecutor> trial_executor;
    if (trial_jobs > 1) {
      trial_pool = std::make_unique<runner::ThreadPool>(trial_jobs);
      trial_executor =
          std::make_unique<runner::PoolChunkExecutor>(trial_pool.get());
      instruments.trial_jobs = trial_jobs;
      instruments.trial_executor = trial_executor.get();
    }
    if (profile) {
      const app::ProfiledReport profiled = app::run_profiled(spec, instruments);
      std::fputs(app::format_report(profiled.report).c_str(), stdout);
      std::fputs(obs::format_profile(profiled.profile).c_str(), stdout);
      std::ofstream out(profile_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n",
                     profile_out.c_str());
        return 2;
      }
      out << obs::profile_to_json(profiled.profile);
      std::printf("profile   : %s\n", profile_out.c_str());
      return profiled.report.result.all_awake() ? 0 : 1;
    }
    const auto report = app::run_experiment(spec, instruments);
    std::fputs(app::format_report(report).c_str(), stdout);
    return report.result.all_awake() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
