#include "runner/shard.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/profile.hpp"
#include "runner/progress.hpp"
#include "runner/result_sink.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace rise::runner {

namespace {

std::string worker_json_path(const std::string& store_dir, std::uint32_t k) {
  return store_dir + "/worker-" + std::to_string(k) + ".json";
}

std::string worker_profile_path(const std::string& store_dir,
                                std::uint32_t k) {
  return store_dir + "/worker-" + std::to_string(k) + ".profile.json";
}

std::uint64_t get_u64(const json::Value& v, std::string_view key) {
  return v.at(key).u64;
}

/// Inverse of JsonResultSink::trial for one worker-document trial record.
TrialResult trial_from_json(const json::Value& v) {
  TrialResult r;
  r.trial.index = static_cast<std::size_t>(get_u64(v, "trial"));
  r.trial.config_index = static_cast<std::size_t>(get_u64(v, "config"));
  r.trial.seed_index = static_cast<std::size_t>(get_u64(v, "seed_index"));
  r.trial.spec.seed = get_u64(v, "seed");
  r.trial.spec.graph = v.at("graph").string;
  r.trial.spec.schedule = v.at("schedule").string;
  r.trial.spec.algorithm = v.at("algo").string;
  r.trial.spec.delay = v.at("delay").string;
  if (const json::Value* err = v.find("error")) {
    r.ok = false;
    r.error = err->string;
  } else {
    r.ok = true;
    r.num_nodes = static_cast<std::uint32_t>(get_u64(v, "n"));
    r.num_edges = static_cast<std::size_t>(get_u64(v, "m"));
    r.rho_awk = static_cast<std::uint32_t>(get_u64(v, "rho_awk"));
    r.synchronous = v.at("synchronous").boolean;
    r.all_awake = v.at("all_awake").boolean;
    r.awake_count = static_cast<std::uint32_t>(get_u64(v, "awake_count"));
    r.messages = get_u64(v, "messages");
    r.bits = get_u64(v, "bits");
    r.time_units = v.at("time_units").number;
    r.rounds = get_u64(v, "rounds");
    r.wakeup_span = get_u64(v, "wakeup_span");
    r.awake_node_ticks = get_u64(v, "awake_node_ticks");
    r.advice_max_bits = static_cast<std::size_t>(get_u64(v, "advice_max_bits"));
    r.advice_avg_bits = v.at("advice_avg_bits").number;
    r.result_digest = get_u64(v, "digest");
  }
  r.from_store = v.at("cached").boolean;
  r.wall_ms = v.at("wall_ms").number;
  if (const json::Value* p = v.find("run_profile")) {
    r.profile =
        std::make_shared<const obs::RunProfile>(obs::profile_from_json(*p));
  }
  return r;
}

json::Value parse_document(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RISE_CHECK_MSG(in.good(), "cannot read worker document " << path);
  std::ostringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

}  // namespace

ShardSpec parse_shard_spec(const std::string& text) {
  const auto slash = text.find('/');
  RISE_CHECK_MSG(slash != std::string::npos && slash > 0 &&
                     slash + 1 < text.size(),
                 "shard spec '" << text << "' is not K/N");
  char* end = nullptr;
  errno = 0;
  const unsigned long index = std::strtoul(text.c_str(), &end, 10);
  RISE_CHECK_MSG(errno == 0 && end == text.c_str() + slash,
                 "shard spec '" << text << "' has a malformed index");
  errno = 0;
  const char* count_text = text.c_str() + slash + 1;
  const unsigned long count = std::strtoul(count_text, &end, 10);
  RISE_CHECK_MSG(errno == 0 && *end == '\0' && end != count_text,
                 "shard spec '" << text << "' has a malformed count");
  RISE_CHECK_MSG(count >= 1 && index < count,
                 "shard spec '" << text << "' needs 0 <= K < N");
  ShardSpec shard;
  shard.index = static_cast<std::uint32_t>(index);
  shard.count = static_cast<std::uint32_t>(count);
  return shard;
}

bool shard_owns(const ShardSpec& shard, std::size_t trial_index,
                std::size_t total, ShardStrategy strategy) {
  if (shard.whole_campaign()) return true;
  if (trial_index >= total) return false;
  if (strategy == ShardStrategy::kRoundRobin) {
    return trial_index % shard.count == shard.index;
  }
  // Block: contiguous runs of ceil(total/count) indices. Every index lands
  // in [0, count) because index < total <= per_shard * count.
  const std::size_t per_shard = (total + shard.count - 1) / shard.count;
  return trial_index / per_shard == shard.index;
}

std::vector<Trial> shard_trials(const std::vector<Trial>& trials,
                                const ShardSpec& shard,
                                ShardStrategy strategy) {
  std::vector<Trial> owned;
  for (const Trial& t : trials) {
    if (shard_owns(shard, t.index, trials.size(), strategy)) {
      owned.push_back(t);
    }
  }
  return owned;
}

std::vector<std::string> worker_command(const CampaignPlan& plan,
                                        const ShardCampaignOptions& options,
                                        std::uint32_t shard,
                                        bool first_launch) {
  std::vector<std::string> cmd;
  cmd.push_back(options.exe);
  cmd.push_back("run");
  cmd.push_back("--graph");
  cmd.push_back(plan.base.graph);
  cmd.push_back("--schedule");
  cmd.push_back(plan.base.schedule);
  cmd.push_back("--algo");
  cmd.push_back(plan.base.algorithm);
  cmd.push_back("--delay");
  cmd.push_back(plan.base.delay);
  cmd.push_back("--seed");
  cmd.push_back(std::to_string(plan.base.seed));
  cmd.push_back("--seeds");
  cmd.push_back(std::to_string(plan.num_seeds));
  for (const GridAxis& axis : plan.grid) {
    std::string arg = axis.param + "=";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) arg += ',';
      arg += axis.values[i];
    }
    cmd.push_back("--grid");
    cmd.push_back(std::move(arg));
  }
  cmd.push_back("--jobs");
  cmd.push_back(std::to_string(options.jobs_per_worker));
  if (options.trial_jobs > 1) {
    cmd.push_back("--trial-jobs");
    cmd.push_back(std::to_string(options.trial_jobs));
  }
  cmd.push_back("--shard");
  cmd.push_back(std::to_string(shard) + "/" +
                std::to_string(options.workers));
  if (options.strategy == ShardStrategy::kBlock) {
    cmd.push_back("--shard-strategy");
    cmd.push_back("block");
  }
  cmd.push_back("--store");
  cmd.push_back(options.store_dir);
  cmd.push_back("--json");
  cmd.push_back(worker_json_path(options.store_dir, shard));
  cmd.push_back("--no-progress");
  if (plan.prepare_mode == PrepareMode::kSharedConfig) {
    cmd.push_back("--share-config");
  }
  if (options.profile) {
    cmd.push_back("--profile=" + worker_profile_path(options.store_dir,
                                                     shard));
    cmd.push_back("--embed-profiles");
  }
  if (first_launch && options.die_after > 0 && shard == options.die_worker) {
    cmd.push_back("--die-after");
    cmd.push_back(std::to_string(options.die_after));
  }
  return cmd;
}

ShardCampaignReport run_shard_campaign(const CampaignPlan& plan,
                                       const ShardCampaignOptions& options) {
  ShardCampaignReport report;
  try {
    RISE_CHECK_MSG(!plan.run,
                   "a sharded campaign requires the default trial function "
                   "(workers re-derive the plan from the command line)");
    RISE_CHECK_MSG(plan.seed_mode == SeedMode::kSplitMix,
                   "a sharded campaign requires SeedMode::kSplitMix");
    RISE_CHECK_MSG(plan.require_all_awake,
                   "a sharded campaign cannot express require_all_awake == "
                   "false as rise_cli flags");
    RISE_CHECK_MSG(!options.exe.empty(), "shard campaign needs a worker exe");
    RISE_CHECK_MSG(!options.store_dir.empty(),
                   "shard campaign needs a result store directory");
    RISE_CHECK_MSG(options.workers >= 1, "shard campaign needs >= 1 worker");

    const std::size_t total = expand_trials(plan).size();
    // Create (or validate) the store before forking anything, so a bad
    // --store path fails fast here rather than in every worker, and the
    // directory exists for the progress poll below.
    { store::ResultStore init(options.store_dir, ""); }

    struct WorkerState {
      std::uint32_t shard = 0;
      pid_t pid = -1;
      int restarts = 0;
      bool done = false;
    };

    auto launch = [&](std::uint32_t shard, bool first_launch) -> pid_t {
      const std::vector<std::string> args =
          worker_command(plan, options, shard, first_launch);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Child. Silence stdout — N workers' human summaries would
        // interleave; everything that matters lands in worker JSON files
        // and the store. stderr stays through for real errors.
        const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
        if (devnull >= 0) {
          ::dup2(devnull, STDOUT_FILENO);
          ::close(devnull);
        }
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "exec %s failed: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);  // >= 2, so the orchestrator treats this as a crash
      }
      return pid;
    };

    std::vector<WorkerState> workers(options.workers);
    for (std::uint32_t k = 0; k < options.workers; ++k) {
      workers[k].shard = k;
      workers[k].pid = launch(k, /*first_launch=*/true);
      RISE_CHECK_MSG(workers[k].pid > 0,
                     "cannot fork worker " << k << ": "
                                           << std::strerror(errno));
    }

    ProgressReporter progress(total, options.progress);
    std::string fatal;
    std::size_t running = workers.size();
    while (running > 0) {
      for (WorkerState& w : workers) {
        if (w.done) continue;
        int status = 0;
        const pid_t waited = ::waitpid(w.pid, &status, WNOHANG);
        if (waited == 0) continue;
        if (waited < 0) {
          w.done = true;
          --running;
          if (fatal.empty()) {
            fatal = "waitpid on worker " + std::to_string(w.shard) +
                    " failed: " + std::strerror(errno);
          }
          continue;
        }
        // Exit 0 (all awake) and 1 (some trials failed) are both completed
        // campaigns; >= 2 (usage/exception/exec failure) or a signal is a
        // crash. A restarted worker serves its finished trials from the
        // store, so it resumes where the dead one stopped.
        const bool crashed = WIFSIGNALED(status) ||
                             (WIFEXITED(status) && WEXITSTATUS(status) >= 2);
        if (!crashed) {
          w.done = true;
          --running;
          continue;
        }
        if (w.restarts >= options.max_restarts) {
          w.done = true;
          --running;
          if (fatal.empty()) {
            fatal = "worker " + std::to_string(w.shard) + " crashed " +
                    std::to_string(w.restarts + 1) +
                    " times, exceeding the restart budget";
          }
          continue;
        }
        ++w.restarts;
        ++report.restarts;
        w.pid = launch(w.shard, /*first_launch=*/false);
        if (w.pid <= 0) {
          w.done = true;
          --running;
          if (fatal.empty()) {
            fatal = "cannot restart worker " + std::to_string(w.shard) +
                    ": " + std::string(std::strerror(errno));
          }
        }
      }
      if (running > 0) {
        // Aggregate progress across every worker: records on disk are
        // exactly the executed trials (cache hits were counted at append
        // time by whichever earlier run produced them).
        const std::uint64_t done =
            store::ResultStore::count_records(options.store_dir);
        progress.update(static_cast<std::size_t>(
            done > total ? static_cast<std::uint64_t>(total) : done));
        const timespec nap{0, 50'000'000};  // 50 ms
        ::nanosleep(&nap, nullptr);
      }
    }
    progress.finish();
    if (!fatal.empty()) {
      report.error = fatal;
      return report;
    }

    // Merge: reassemble the full trial vector from the worker documents,
    // then aggregate with exactly the single-process algebra.
    CampaignResult merged;
    merged.trials.assign(total, TrialResult{});
    std::vector<bool> seen(total, false);
    for (std::uint32_t k = 0; k < options.workers; ++k) {
      const std::string path = worker_json_path(options.store_dir, k);
      const json::Value doc = parse_document(path);
      RISE_CHECK_MSG(get_u64(doc, "schema_version") == kResultsSchemaVersion,
                     path << " has schema version "
                          << get_u64(doc, "schema_version") << ", expected "
                          << kResultsSchemaVersion);
      ShardSpec shard;
      shard.index = k;
      shard.count = options.workers;
      for (const json::Value& t : doc.at("trials").array) {
        TrialResult r = trial_from_json(t);
        const std::size_t idx = r.trial.index;
        RISE_CHECK_MSG(idx < total,
                       path << " names trial " << idx << " of a campaign with "
                            << total);
        RISE_CHECK_MSG(shard_owns(shard, idx, total, options.strategy),
                       path << " reports trial " << idx
                            << ", which shard " << k << " does not own");
        RISE_CHECK_MSG(!seen[idx],
                       "trial " << idx << " appears twice across workers");
        seen[idx] = true;
        merged.trials[idx] = std::move(r);
      }
      const json::Value& store_block = doc.at("summary").at("store");
      merged.store_hits += get_u64(store_block, "hits");
      merged.store_misses += get_u64(store_block, "misses");
    }
    for (std::size_t i = 0; i < total; ++i) {
      RISE_CHECK_MSG(seen[i], "the shard split lost trial " << i);
    }
    merged.jobs = static_cast<std::size_t>(options.workers) *
                  (options.jobs_per_worker == 0 ? 1 : options.jobs_per_worker);
    aggregate_campaign(plan, merged);
    report.store_hits = merged.store_hits;
    report.store_misses = merged.store_misses;

    if (!options.json_path.empty()) {
      std::ofstream out(options.json_path, std::ios::binary | std::ios::trunc);
      RISE_CHECK_MSG(out.good(), "cannot open " << options.json_path
                                                << " for writing");
      SinkOptions sink_options;
      sink_options.provenance = collect_provenance();
      sink_options.provenance.shard_count = options.workers;
      sink_options.provenance.merged = true;
      sink_options.store_enabled = true;
      JsonResultSink sink(out, plan, merged.jobs, sink_options);
      for (const TrialResult& r : merged.trials) sink.trial(r);
      sink.summary(merged);
      out << "\n";
      RISE_CHECK_MSG(out.good(), "cannot write " << options.json_path);
    }
    if (options.profile && !options.profile_path.empty()) {
      std::ofstream out(options.profile_path,
                        std::ios::binary | std::ios::trunc);
      RISE_CHECK_MSG(out.good(), "cannot open " << options.profile_path
                                                << " for writing");
      out << obs::aggregate_to_json(merged.profile);
      RISE_CHECK_MSG(out.good(), "cannot write " << options.profile_path);
    }

    report.merged = std::move(merged);
    report.ok = true;
  } catch (const std::exception& e) {
    report.ok = false;
    report.error = e.what();
  }
  return report;
}

}  // namespace rise::runner
