#include "runner/result_sink.hpp"

#include <unistd.h>

#include <cstdlib>
#include <ctime>
#include <utility>

#include "obs/profile.hpp"
#include "runner/thread_pool.hpp"

namespace rise::runner {

Provenance collect_provenance(const ShardSpec& shard) {
  Provenance p;
  char host[256] = {};
  p.hostname = ::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0'
                   ? host
                   : "unknown";
  const char* commit = std::getenv("RISE_COMMIT");
  if (commit == nullptr || commit[0] == '\0') {
    commit = std::getenv("GITHUB_SHA");
  }
  p.commit = commit != nullptr && commit[0] != '\0' ? commit : "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc = {};
  char stamp[32] = {};
  if (::gmtime_r(&now, &utc) != nullptr &&
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc) > 0) {
    p.started_at = stamp;
  } else {
    p.started_at = "unknown";
  }
  p.shard_index = shard.index;
  p.shard_count = shard.count;
  return p;
}

JsonResultSink::JsonResultSink(std::ostream& os, const CampaignPlan& plan,
                               std::size_t jobs, SinkOptions options)
    : writer_(os), options_(std::move(options)) {
  writer_.begin_object();
  writer_.kv("schema_version", kResultsSchemaVersion);
  writer_.kv("tool", "rise_campaign");
  writer_.key("base").begin_object();
  writer_.kv("graph", plan.base.graph);
  writer_.kv("schedule", plan.base.schedule);
  writer_.kv("algo", plan.base.algorithm);
  writer_.kv("delay", plan.base.delay);
  writer_.kv("seed", plan.base.seed);
  writer_.end_object();
  writer_.kv("seed_mode", plan.seed_mode == SeedMode::kSplitMix
                              ? "splitmix"
                              : "sequential");
  writer_.kv("num_seeds", static_cast<std::uint64_t>(plan.num_seeds));
  writer_.kv("prepare_mode", plan.prepare_mode == PrepareMode::kSharedConfig
                                 ? "shared_config"
                                 : "per_trial");
  writer_.kv("jobs", static_cast<std::uint64_t>(
                         jobs == 0 ? ThreadPool::hardware_threads() : jobs));
  writer_.key("provenance").begin_object();
  writer_.kv("hostname", options_.provenance.hostname);
  writer_.kv("commit", options_.provenance.commit);
  writer_.kv("started_at", options_.provenance.started_at);
  writer_.kv("shard_index", options_.provenance.shard_index);
  writer_.kv("shard_count", options_.provenance.shard_count);
  writer_.kv("merged", options_.provenance.merged);
  writer_.end_object();
  writer_.key("grid").begin_array();
  for (const GridAxis& axis : plan.grid) {
    writer_.begin_object();
    writer_.kv("param", axis.param);
    writer_.key("values").begin_array();
    for (const auto& v : axis.values) writer_.value(v);
    writer_.end_array();
    writer_.end_object();
  }
  writer_.end_array();
  writer_.key("trials").begin_array();
}

void JsonResultSink::trial(const TrialResult& r) {
  writer_.begin_object();
  writer_.kv("trial", static_cast<std::uint64_t>(r.trial.index));
  writer_.kv("config", static_cast<std::uint64_t>(r.trial.config_index));
  writer_.kv("seed_index", static_cast<std::uint64_t>(r.trial.seed_index));
  writer_.kv("seed", r.trial.spec.seed);
  writer_.kv("graph", r.trial.spec.graph);
  writer_.kv("schedule", r.trial.spec.schedule);
  writer_.kv("algo", r.trial.spec.algorithm);
  writer_.kv("delay", r.trial.spec.delay);
  if (!r.ok) {
    writer_.kv("error", r.error);
  } else {
    writer_.kv("n", r.num_nodes);
    writer_.kv("m", static_cast<std::uint64_t>(r.num_edges));
    writer_.kv("rho_awk", r.rho_awk);
    writer_.kv("synchronous", r.synchronous);
    writer_.kv("all_awake", r.all_awake);
    writer_.kv("awake_count", r.awake_count);
    writer_.kv("messages", r.messages);
    writer_.kv("bits", r.bits);
    writer_.kv("time_units", r.time_units);
    writer_.kv("rounds", r.rounds);
    writer_.kv("wakeup_span", r.wakeup_span);
    writer_.kv("awake_node_ticks", r.awake_node_ticks);
    writer_.kv("advice_max_bits",
               static_cast<std::uint64_t>(r.advice_max_bits));
    writer_.kv("advice_avg_bits", r.advice_avg_bits);
    writer_.kv("digest", r.result_digest);
  }
  writer_.kv("cached", r.from_store);
  if (options_.embed_profiles && r.profile != nullptr) {
    writer_.key("run_profile");
    obs::write_profile(writer_, *r.profile);
  }
  writer_.kv("wall_ms", r.wall_ms);
  writer_.end_object();
}

void JsonResultSink::write_stats(const char* name, const SampleStats& stats) {
  writer_.key(name).begin_object();
  writer_.kv("count", static_cast<std::uint64_t>(stats.count()));
  if (stats.count() > 0) {
    writer_.kv("mean", stats.mean());
    writer_.kv("stddev", stats.stddev());
    writer_.kv("min", stats.min());
    writer_.kv("median", stats.median());
    writer_.kv("max", stats.max());
  }
  writer_.end_object();
}

void JsonResultSink::write_config_stats(const ConfigStats& stats) {
  writer_.kv("trials", static_cast<std::uint64_t>(stats.trials));
  writer_.kv("failures", static_cast<std::uint64_t>(stats.failures));
  writer_.kv("errors", static_cast<std::uint64_t>(stats.errors));
  write_stats("messages", stats.messages);
  write_stats("bits", stats.bits);
  write_stats("time_units", stats.time_units);
  write_stats("wakeup_span", stats.wakeup_span);
  write_stats("awake_node_ticks", stats.awake_node_ticks);
}

void JsonResultSink::summary(const CampaignResult& result) {
  writer_.end_array();  // trials
  writer_.key("summary").begin_object();
  writer_.key("configs").begin_array();
  for (const ConfigStats& config : result.configs) {
    writer_.begin_object();
    writer_.kv("graph", config.spec.graph);
    writer_.kv("schedule", config.spec.schedule);
    writer_.kv("algo", config.spec.algorithm);
    writer_.kv("delay", config.spec.delay);
    write_config_stats(config);
    writer_.end_object();
  }
  writer_.end_array();
  writer_.key("total").begin_object();
  write_config_stats(result.total);
  writer_.end_object();
  writer_.key("store").begin_object();
  writer_.kv("enabled", options_.store_enabled);
  writer_.kv("hits", result.store_hits);
  writer_.kv("misses", result.store_misses);
  writer_.end_object();
  writer_.end_object();  // summary
  writer_.key("timing").begin_object();
  writer_.kv("wall_ms", result.wall_ms);
  writer_.kv("trials_per_sec", result.trials_per_sec);
  writer_.kv("jobs", static_cast<std::uint64_t>(result.jobs));
  writer_.end_object();
  writer_.end_object();  // root
}

}  // namespace rise::runner
