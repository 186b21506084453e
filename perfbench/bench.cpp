// perfbench — the repository benchmark driver. Runs one named workload for a
// fixed time from a workload seed, checks every trial's output, and prints
// the metrics as one JSON line (see perfbench/README.md):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--expect HEX,HEX,...]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// variant of the workload and reports the per-layer metrics, writing the
// spans to DIR/trace_<workload>.json. Exit 0 when every check passed, 1 when
// a check failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

// Allocation counters. The campaign workload runs trials on several threads
// at once, so it attributes allocations with the per-thread count. A
// single-trial run can spread over the pool's workers, so it reads the
// process-wide count: the sum of per-thread slots, each on its own cache
// line so the workers do not contend. Threads beyond kSlots share a slot,
// which stays exact because the slots are atomic.
constexpr std::size_t kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local std::uint64_t t_allocs = 0;
thread_local Slot* t_slot =
    &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];

}  // namespace

// Counting overrides (this binary only), as in bench/bench_million_node.cpp.
// operator new[] forwards here; nothing measured uses over-aligned types.
void* operator new(std::size_t n) {
  ++t_allocs;
  t_slot->n.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

void Report::fail(const std::string& why) {
  if (errors.size() < 8) errors.push_back(why);
}

void check_trial(Report& report, const std::string& what, bool all_awake,
                 std::uint64_t messages, std::uint64_t digest,
                 std::uint64_t expected, bool flooding, std::size_t num_edges) {
  ++report.attempted;
  std::string why;
  if (!all_awake) {
    why = "left nodes asleep";
  } else if (digest != expected) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "digest %016llx != reference %016llx",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(expected));
    why = buf;
  } else if (flooding && messages != 2 * num_edges) {
    why = "flooding sent " + std::to_string(messages) +
          " messages, expected 2m = " + std::to_string(2 * num_edges);
  }
  if (!why.empty()) {
    ++report.failed;
    report.fail(what + ": " + why);
  }
}

std::uint64_t expected_digest(const Options& opt, Report& report,
                              std::size_t i, std::uint64_t observed) {
  if (!opt.expect.empty()) {
    // A reference list too short for the input is a mismatch.
    return i < opt.expect.size() ? opt.expect[i] : ~observed;
  }
  if (report.digests.size() <= i) report.digests.resize(i + 1, 0);
  if (report.digests[i] == 0) report.digests[i] = observed;
  return report.digests[i];
}

std::uint64_t thread_allocs() { return t_allocs; }

std::uint64_t process_allocs() {
  std::uint64_t sum = 0;
  for (const Slot& s : g_slots) sum += s.n.load(std::memory_order_relaxed);
  return sum;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

void SpanList::begin(const char* name, std::int64_t trial) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.trial = trial;
  s.tid = tid_;
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(std::move(s));
  spans_.back().start = Clock::now();
}

double SpanList::end() {
  Span& s = spans_[static_cast<std::size_t>(open_.back())];
  open_.pop_back();
  s.end = Clock::now();
  return std::chrono::duration<double, std::milli>(s.end - s.start).count();
}

void Tracer::merge(SpanList&& list) {
  std::lock_guard<std::mutex> lock(mu_);
  const int offset = static_cast<int>(spans_.size());
  for (Span& s : list.spans()) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
  list.spans().clear();
}

std::vector<std::string> Tracer::names_for_trials(
    const std::vector<std::int64_t>& trials) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const Span& s : spans_) {
    if (std::find(trials.begin(), trials.end(), s.trial) != trials.end()) {
      out.push_back(s.name);
    }
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  rise::json::Writer w(os, /*pretty=*/false);
  Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .kv("name", s.name)
        .kv("cat", "perfbench")
        .kv("ph", "X")
        .kv("ts", us(s.start))
        .kv("dur", us(s.end) - us(s.start))
        .kv("pid", 1)
        .kv("tid", s.tid);
    w.key("args")
        .begin_object()
        .kv("span", static_cast<std::uint64_t>(i))
        .kv("parent", static_cast<std::int64_t>(s.parent))
        .kv("trial", s.trial)
        .end_object();
    w.end_object();
  }
  w.end_array().kv("displayTimeUnit", "ms").end_object();
  os << "\n";
}

void cross_check_phases(Report& report, const Tracer& tracer,
                        const std::vector<std::int64_t>& trials,
                        const std::vector<std::string>& probe_names) {
  static const std::set<std::string> kPhaseTimerNames = {
      "setup.graph", "setup.instance", "setup.advice", "setup.schedule",
      "engine.run"};
  std::set<std::string> spans;
  for (const std::string& n : tracer.names_for_trials(trials)) {
    if (kPhaseTimerNames.count(n) != 0) spans.insert(n);
  }
  const std::set<std::string> timers(probe_names.begin(), probe_names.end());
  if (spans != timers) {
    std::string a, b;
    for (const auto& n : spans) a += n + " ";
    for (const auto& n : timers) b += n + " ";
    report.fail("trial " + std::to_string(trials.back()) +
                ": traced spans {" + a +
                "} differ from obs::PhaseTimer names {" + b + "}");
  }
}

SplitPrepared split_prepare(const rise::app::ExperimentSpec& spec,
                            SpanList& spans, std::int64_t trial) {
  using namespace rise;
  SplitPrepared out;
  Rng graph_rng(mix_seed(spec.seed, 0xA));
  spans.begin("setup.graph", trial);
  graph::Graph g = app::parse_graph_spec(spec.graph, graph_rng);
  out.graph_ms = spans.end();
  out.algo = app::parse_algorithm_spec(spec.algorithm);
  RISE_CHECK_MSG(static_cast<bool>(out.algo.kernel),
                 spec.algorithm << " has no kernel");
  sim::InstanceOptions options;
  options.knowledge = out.algo.knowledge;
  options.bandwidth = out.algo.bandwidth;
  spans.begin("setup.instance", trial);
  Rng instance_rng(mix_seed(spec.seed, 0xB));
  out.instance = std::make_shared<sim::Instance>(
      sim::Instance::create(std::move(g), options, instance_rng));
  out.instance_ms = spans.end();
  if (out.algo.oracle != nullptr) {
    spans.begin("setup.advice", trial);
    out.advice = advice::apply_oracle(*out.instance, *out.algo.oracle);
    out.advice_ms = spans.end();
  }
  return out;
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics BENCHMARK.json names (perfbench/run.py
// checks the printed keys against it).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"trials_per_s", "1/s"},
    {"trial_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"graph.gen_ms", "ms"},
    {"graph.ns_per_edge", "ns"},
    {"sim.instance.build_ms", "ms"},
    {"sim.instance.ns_per_edge", "ns"},
    {"advice.oracle_ms.fip06", "ms"},
    {"advice.oracle_ms.sqrt", "ms"},
    {"advice.oracle_ms.cen", "ms"},
    {"advice.oracle_ms.spanner3", "ms"},
    {"app.schedule_ms", "ms"},
    {"sim.engine.first_trial_ms", "ms"},
    {"sim.engine.run_ms", "ms"},
    {"sim.engine.ns_per_event", "ns"},
    {"sim.engine.events", "count"},
    {"sim.engine.messages", "count"},
    {"sim.engine.allocs_per_trial", "count"},
    {"sim.engine.sync_serial_ms", "ms"},
    {"sim.engine.parallel_speedup", "ratio"},
    {"runner.prepare_ms", "ms"},
    {"runner.exec_ms.flooding", "ms"},
    {"runner.exec_ms.ranked_dfs", "ms"},
    {"runner.exec_ms.fast_wakeup", "ms"},
    {"runner.exec_ms.fip06", "ms"},
    {"runner.exec_ms.sqrt", "ms"},
    {"runner.exec_ms.cen", "ms"},
    {"runner.exec_ms.spanner3", "ms"},
    {"runner.pool_busy_frac", "ratio"},
    {"runner.aggregate_ms", "ms"},
    {"runner.sink_ms", "ms"},
    {"runner.sink_bytes", "bytes"},
    {"check.digest_us", "us"},
    {"store.open_ms", "ms"},
    {"store.append_us", "us"},
    {"store.lookup_us", "us"},
    {"bench.trace_overhead_frac", "ratio"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table1_campaign|million_flood|"
               "fast_wakeup_parallel --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--expect HEX,HEX,...]\n",
               argv0);
  return 2;
}

bool parse_expect(const std::string& text, std::vector<std::uint64_t>& out) {
  std::istringstream is(text);
  std::string field;
  while (std::getline(is, field, ',')) {
    char* end = nullptr;
    out.push_back(std::strtoull(field.c_str(), &end, 16));
    if (field.empty() || *end != '\0') return false;
  }
  return !out.empty();
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = !val.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = !val.empty() && *end == '\0' && opt.seconds > 0.0;
    } else if (flag == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = val;
    } else if (flag == "--expect") {
      if (!parse_expect(val, opt.expect)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      opt.work_dir.empty()) {
    return usage(argv[0]);
  }

  perfbench::Tracer tracer;
  Report report;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "table1_campaign") {
      report = perfbench::run_table1_campaign(opt, tracer);
    } else if (opt.workload == "million_flood") {
      report = perfbench::run_million_flood(opt, tracer);
    } else if (opt.workload == "fast_wakeup_parallel") {
      report = perfbench::run_fast_wakeup_parallel(opt, tracer);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();

  std::printf("workload %s  seed %llu  threads %zu of %u  reference %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              report.threads, std::thread::hardware_concurrency(),
              opt.expect.empty() ? "none recorded (self-consistency only)"
                                 : "recorded");
  std::printf("host cpu \"%s\"  build %s  %s  flags: %s\n",
              cpu_model().c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              PERFBENCH_CXX_FLAGS);
  if (opt.trace) {
    const std::string path =
        (std::filesystem::path(opt.work_dir) / ("trace_" + opt.workload +
                                                ".json"))
            .string();
    tracer.write_chrome_json(path);
    std::printf("trace: %zu spans -> %s\n", tracer.size(), path.c_str());
  }
  std::string digests;
  for (std::uint64_t d : report.digests) {
    digests += (digests.empty() ? "" : ",") + hex(d);
  }
  std::printf("digests: %s\n", digests.c_str());
  for (const std::string& e : report.errors) {
    std::printf("FAIL: %s\n", e.c_str());
  }
  std::printf("failed_frac %.6f ratio (%llu of %llu trials)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 1.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  const bool correct = report.errors.empty() && report.failed == 0 &&
                       report.attempted > 0;
  std::ostringstream line;
  rise::json::Writer w(line, /*pretty=*/false);
  w.begin_object()
      .kv("correct", correct)
      .kv("attempted", report.attempted)
      .kv("failed", report.failed);
  w.key("metrics").begin_object();
  const auto emit = [&](const MetricDef& m) {
    const auto it = report.metrics.find(m.name);
    // Layers the workload does not exercise read 0 (no calls were made).
    const double v = it != report.metrics.end() ? it->second : 0.0;
    std::printf("%-28s %.6g %s%s\n", m.name, v, m.unit,
                it == report.metrics.end() ? " (layer not exercised)" : "");
    w.key(m.name).begin_object().kv("value", v).kv("unit", m.unit).end_object();
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  w.end_object().end_object();
  std::printf("%s\n", line.str().c_str());
  return correct ? 0 : 1;
}
