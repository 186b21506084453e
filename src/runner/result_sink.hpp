// ResultSink implementations for the campaign runner. JsonResultSink writes
// one machine-readable record per trial plus a summary block:
//
//   { "schema_version": 2,
//     "tool": "rise_campaign",
//     "base": { graph/schedule/algo/delay/seed },
//     "seed_mode": "splitmix" | "sequential",
//     "num_seeds": N,
//     "prepare_mode": "per_trial" | "shared_config",
//     "jobs": J,
//     "provenance": { hostname, commit, started_at (ISO-8601 UTC),
//                     shard_index, shard_count, merged },
//     "grid": [ {"param": ..., "values": [...]}, ... ],
//     "trials": [ { trial, config, seed_index, seed, specs, n, m, rho_awk,
//                   outcome, messages, bits, time_units, rounds,
//                   wakeup_span, awake_node_ticks, advice, digest, cached,
//                   run_profile (opt-in), wall_ms }, ... ],
//     "summary": { per-config and total SampleStats — deterministic —
//                  plus "store": {enabled, hits, misses} },
//     "timing":  { wall_ms, trials_per_sec — nondeterministic } }
//
// Everything outside "provenance", "timing", the per-trial "wall_ms" /
// "cached" fields, and the summary "store" counters is a pure function of
// the plan, so two runs of the same campaign at different --jobs values (or
// shard splits, or resumed from the result store) differ only in those
// fields. In particular the per-trial "digest" stream is the invariant the
// shard orchestrator's merge is checked against.
//
// Schema history: v2 added provenance, per-trial digest/cached, the summary
// store block, and optional embedded run_profile objects (v1 had none).
// Older v2 documents also carry a "reuse" boolean in the header; nothing
// reads it, and it is no longer written.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "runner/campaign.hpp"
#include "support/json.hpp"

namespace rise::runner {

/// Version of the JSON results schema above. Bump on breaking changes.
inline constexpr std::uint64_t kResultsSchemaVersion = 2;

/// Where and by whom a results document was produced. Nondeterministic by
/// nature (host, time) — kept in its own header block so deterministic
/// comparisons can skip it wholesale.
struct Provenance {
  std::string hostname;    ///< gethostname(); "unknown" on failure
  std::string commit;      ///< $RISE_COMMIT or $GITHUB_SHA; "unknown" else
  std::string started_at;  ///< ISO-8601 UTC, e.g. "2026-08-08T12:34:56Z"
  std::uint32_t shard_index = 0;  ///< writing process's shard (0 unsharded)
  std::uint32_t shard_count = 1;
  bool merged = false;  ///< true for the orchestrator's merged document
};

/// Fills hostname/commit/started_at from the environment and stamps the
/// given shard identity.
Provenance collect_provenance(const ShardSpec& shard = {});

struct SinkOptions {
  Provenance provenance;
  /// Write each profiled trial's full run_profile object into its trial
  /// record. Off by default (documents get large); shard workers turn it on
  /// so the orchestrator can re-merge profiles with the exact in-process
  /// algebra (obs::profile_from_json + ProfileAggregate::merge).
  bool embed_profiles = false;
  /// Reflected into the summary "store" block (the hit/miss counters come
  /// from CampaignResult).
  bool store_enabled = false;
};

class JsonResultSink : public ResultSink {
 public:
  /// Writes the header immediately; summary() closes the document. The
  /// stream must outlive the sink. The default options collect provenance
  /// for an unsharded local run.
  JsonResultSink(std::ostream& os, const CampaignPlan& plan, std::size_t jobs,
                 SinkOptions options = {.provenance = collect_provenance()});

  void trial(const TrialResult& result) override;
  void summary(const CampaignResult& result) override;

 private:
  void write_stats(const char* name, const SampleStats& stats);
  void write_config_stats(const ConfigStats& stats);

  json::Writer writer_;
  SinkOptions options_;
};

}  // namespace rise::runner
