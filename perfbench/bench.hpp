// Shared pieces of the repository benchmark (perfbench): run options, the
// per-run report, the in-memory span recorder behind the traced run, and
// the allocation / memory probes. Each workload lives in its own source file
// and fills one Report; bench.cpp prints it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "app/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files and the trace (inside the checkout)
  /// Reference per-trial digests for this seed (empty = none recorded: each
  /// input is then checked against its own first run in this process).
  std::vector<std::uint64_t> expect;
};

/// Worker threads a workload may use: min(4, hardware threads).
std::size_t bench_threads();

/// What one run of one workload produced.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digests of the workload's reference trial set, in trial order.
  std::vector<std::uint64_t> digests;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::map<std::string, double> metrics;
  std::size_t threads = 1;

  void fail(const std::string& why);
};

/// Checks one finished trial: it must wake every node, match the expected
/// digest for its input, and (flooding) send exactly 2m messages. Counts it
/// as attempted, and as failed on any mismatch.
void check_trial(Report& report, const std::string& what, bool all_awake,
                 std::uint64_t messages, std::uint64_t digest,
                 std::uint64_t expected_digest, bool flooding,
                 std::size_t num_edges);

/// Expected digest of reference input `i` given `observed`: the recorded
/// reference when the seed has one, else the first digest seen for `i`
/// (kept in report.digests).
std::uint64_t expected_digest(const Options& opt, Report& report,
                              std::size_t i, std::uint64_t observed);

// ---- probes ---------------------------------------------------------------

/// Heap allocations made by the calling thread so far (operator new calls).
std::uint64_t thread_allocs();

/// Heap allocations made by all threads of this process so far.
std::uint64_t process_allocs();

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

double ms_since(Clock::time_point t0);
double median(std::vector<double> v);

// ---- tracing --------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the same SpanList (-1 for
/// a root); `trial` is the trial id (-1 for set-up work).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::int64_t trial = -1;
  std::uint32_t tid = 0;
};

/// Spans of one thread's work, nested by a stack of open spans. Kept in
/// memory; merged into the Tracer when the unit of work ends.
class SpanList {
 public:
  explicit SpanList(std::uint32_t tid = 0) : tid_(tid) {}

  void begin(const char* name, std::int64_t trial);
  /// Closes the innermost open span and returns its duration in ms.
  double end();

  std::vector<Span>& spans() { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Collects every span of a traced run and writes them once, at the end, as
/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
class Tracer {
 public:
  void merge(SpanList&& list);
  /// Names of the spans recorded for any of `trials`.
  std::vector<std::string> names_for_trials(
      const std::vector<std::int64_t>& trials) const;
  void write_chrome_json(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Fails the report unless `probe_names` (the obs::PhaseTimer names a
/// production run recorded) equal the spans with PhaseTimer names that the
/// traced run recorded for `trials`: the traced spans around the same calls
/// carry the same names.
void cross_check_phases(Report& report, const Tracer& tracer,
                        const std::vector<std::int64_t>& trials,
                        const std::vector<std::string>& probe_names);

/// app::prepare_experiment split into its calls with the production seed
/// tags (graph mix_seed(seed, 0xA), instance 0xB), each under a span named
/// after its obs::PhaseTimer.
struct SplitPrepared {
  std::shared_ptr<rise::sim::Instance> instance;
  rise::app::AlgorithmSetup algo;
  rise::sim::Instance::AdviceStats advice;
  double graph_ms = 0.0;
  double instance_ms = 0.0;
  double advice_ms = 0.0;  ///< 0 when the family has no oracle
};

SplitPrepared split_prepare(const rise::app::ExperimentSpec& spec,
                            SpanList& spans, std::int64_t trial);

// ---- workloads ------------------------------------------------------------

Report run_table1_campaign(const Options& opt, Tracer& tracer);
Report run_million_flood(const Options& opt, Tracer& tracer);
Report run_fast_wakeup_parallel(const Options& opt, Tracer& tracer);

}  // namespace perfbench
