#include "obs/profile.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/check.hpp"
#include "support/json.hpp"

namespace rise::obs {

namespace {

void write_histogram(json::Writer& w, const LogHistogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum", h.sum());
  w.kv("min", h.min());
  w.kv("max", h.max());
  // Sparse: only occupied buckets, as [bucket_lo, count] pairs.
  w.key("buckets").begin_array();
  for (unsigned b = 0; b < LogHistogram::kBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    w.begin_array()
        .value(LogHistogram::bucket_lo(b))
        .value(h.bucket_count(b))
        .end_array();
  }
  w.end_array();
  w.end_object();
}

void write_stats(json::Writer& w, const SampleStats& s) {
  w.begin_object();
  w.kv("count", static_cast<std::uint64_t>(s.count()));
  if (s.count() > 0) {
    w.kv("mean", s.mean());
    w.kv("stddev", s.stddev());
    w.kv("min", s.min());
    w.kv("p50", s.quantile(0.5));
    w.kv("p90", s.quantile(0.9));
    w.kv("max", s.max());
  }
  w.end_object();
}

void write_engine(json::Writer& w, const EngineProfile& e) {
  w.begin_object();
  w.kv("backend", e.backend);
  w.kv("events_popped", e.events_popped);
  w.kv("queue_high_water", e.queue_high_water);
  w.kv("ring_high_water", e.ring_high_water);
  w.kv("overflow_high_water", e.overflow_high_water);
  w.key("queue_depth");
  write_histogram(w, e.queue_depth);
  w.kv("rounds_stepped", e.rounds_stepped);
  w.key("round_active");
  write_histogram(w, e.round_active);
  w.end_object();
}

void write_counters(
    json::Writer& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  w.begin_object();
  for (const auto& [name, v] : counters) w.kv(name, v);
  w.end_object();
}

// ---- helpers for the generic (parsed-JSON) pretty-printer ---------------

std::uint64_t get_u64(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return (f != nullptr && f->is_integer) ? f->u64 : 0;
}

double get_num(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return (f != nullptr && f->type == json::Value::Type::kNumber) ? f->number
                                                                 : 0.0;
}

std::string get_str(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return (f != nullptr && f->type == json::Value::Type::kString) ? f->string
                                                                 : std::string();
}

std::string fmt_double(double v, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void append_row(std::ostringstream& os, const std::string& name,
                const std::string& rest) {
  os << "  " << std::left << std::setw(18) << name << ' ' << rest << '\n';
}

}  // namespace

std::uint64_t RunProfile::phase_message_sum() const {
  std::uint64_t sum = 0;
  for (const PhaseProfile& ph : phases) sum += ph.messages;
  return sum;
}

std::uint64_t RunProfile::phase_bit_sum() const {
  std::uint64_t sum = 0;
  for (const PhaseProfile& ph : phases) sum += ph.bits;
  return sum;
}

const PhaseProfile* RunProfile::find_phase(const std::string& name) const {
  for (const PhaseProfile& ph : phases) {
    if (ph.name == name) return &ph;
  }
  return nullptr;
}

std::uint64_t RunProfile::counter(const std::string& name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

void write_profile(json::Writer& w, const RunProfile& p) {
  w.begin_object();
  w.kv("kind", "run_profile");
  w.kv("algorithm", p.algorithm);
  w.kv("graph", p.graph);
  w.kv("schedule", p.schedule);
  w.kv("delay", p.delay);
  w.kv("seed", p.seed);
  w.kv("num_nodes", p.num_nodes);
  w.kv("num_edges", p.num_edges);
  w.kv("rho_awk", p.rho_awk);
  w.kv("synchronous", p.synchronous);

  w.key("totals").begin_object();
  w.kv("messages", p.messages);
  w.kv("bits", p.bits);
  w.kv("deliveries", p.deliveries);
  w.kv("events", p.events);
  w.kv("rounds", p.rounds);
  w.kv("time_units", p.time_units);
  w.kv("awake_total", p.awake_total);
  w.kv("awake_max", p.awake_max);
  w.kv("sleep_dropped", p.sleep_dropped);
  w.end_object();

  w.key("awake_rounds");
  write_histogram(w, p.awake_rounds);

  w.key("phases").begin_array();
  for (const PhaseProfile& ph : p.phases) {
    w.begin_object();
    w.kv("name", ph.name);
    w.kv("marks", ph.marks);
    w.kv("messages", ph.messages);
    w.kv("bits", ph.bits);
    if (ph.messages > 0) {
      w.kv("first_send", ph.first_send);
      w.kv("last_send", ph.last_send);
    } else {
      w.key("first_send").null();
      w.key("last_send").null();
    }
    w.key("message_bits");
    write_histogram(w, ph.message_bits);
    w.end_object();
  }
  w.end_array();

  w.key("classes").begin_array();
  for (const ClassProfile& c : p.classes) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("nodes", c.nodes);
    w.kv("messages", c.messages);
    w.key("sent_per_node");
    write_histogram(w, c.sent_per_node);
    w.end_object();
  }
  w.end_array();

  w.key("counters");
  write_counters(w, p.counters);

  w.key("engine");
  write_engine(w, p.engine);

  w.key("timers").begin_array();
  for (const TimerProfile& t : p.timers) {
    w.begin_object();
    w.kv("name", t.name);
    w.kv("calls", t.calls);
    w.kv("wall_seconds", t.wall_seconds);
    w.kv("sim_ticks", t.sim_ticks);
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

std::string profile_to_json(const RunProfile& p) {
  std::ostringstream os;
  json::Writer w(os);
  write_profile(w, p);
  RISE_CHECK(w.complete());
  os << '\n';
  return os.str();
}

namespace {

// ---- helpers for profile_from_json (inverse of the writers above) -------

LogHistogram read_histogram(const json::Value& v) {
  RISE_CHECK_MSG(v.is_object(), "histogram is not a JSON object");
  std::uint64_t counts[LogHistogram::kBuckets] = {};
  const json::Value* buckets = v.find("buckets");
  if (buckets != nullptr && buckets->is_array()) {
    for (const json::Value& pair : buckets->array) {
      RISE_CHECK_MSG(pair.is_array() && pair.size() == 2,
                     "histogram bucket is not a [lo, count] pair");
      // The serialized lo is bucket_lo(b), and bucket_of(bucket_lo(b)) == b
      // for every b, so the bucket index round-trips through its lo value.
      const unsigned b = LogHistogram::bucket_of(pair.at(0).u64);
      counts[b] = pair.at(1).u64;
    }
  }
  return LogHistogram::restore(counts, get_u64(v, "count"), get_u64(v, "sum"),
                               get_u64(v, "min"), get_u64(v, "max"));
}

EngineProfile read_engine(const json::Value& v) {
  EngineProfile e;
  e.backend = get_str(v, "backend");
  e.events_popped = get_u64(v, "events_popped");
  e.queue_high_water = get_u64(v, "queue_high_water");
  e.ring_high_water = get_u64(v, "ring_high_water");
  e.overflow_high_water = get_u64(v, "overflow_high_water");
  if (const json::Value* h = v.find("queue_depth")) {
    e.queue_depth = read_histogram(*h);
  }
  e.rounds_stepped = get_u64(v, "rounds_stepped");
  if (const json::Value* h = v.find("round_active")) {
    e.round_active = read_histogram(*h);
  }
  return e;
}

}  // namespace

RunProfile profile_from_json(const json::Value& doc) {
  RISE_CHECK_MSG(doc.is_object() && get_str(doc, "kind") == "run_profile",
                 "not a run_profile document");
  RunProfile p;
  p.algorithm = get_str(doc, "algorithm");
  p.graph = get_str(doc, "graph");
  p.schedule = get_str(doc, "schedule");
  p.delay = get_str(doc, "delay");
  p.seed = get_u64(doc, "seed");
  p.num_nodes = static_cast<std::uint32_t>(get_u64(doc, "num_nodes"));
  p.num_edges = get_u64(doc, "num_edges");
  p.rho_awk = static_cast<std::uint32_t>(get_u64(doc, "rho_awk"));
  if (const json::Value* f = doc.find("synchronous")) p.synchronous = f->boolean;

  const json::Value& totals = doc.at("totals");
  p.messages = get_u64(totals, "messages");
  p.bits = get_u64(totals, "bits");
  p.deliveries = get_u64(totals, "deliveries");
  p.events = get_u64(totals, "events");
  p.rounds = get_u64(totals, "rounds");
  p.time_units = get_num(totals, "time_units");
  p.awake_total = get_u64(totals, "awake_total");
  p.awake_max = get_u64(totals, "awake_max");
  p.sleep_dropped = get_u64(totals, "sleep_dropped");

  if (const json::Value* h = doc.find("awake_rounds")) {
    p.awake_rounds = read_histogram(*h);
  }

  if (const json::Value* phases = doc.find("phases")) {
    for (const json::Value& v : phases->array) {
      PhaseProfile ph;
      ph.name = get_str(v, "name");
      ph.marks = get_u64(v, "marks");
      ph.messages = get_u64(v, "messages");
      ph.bits = get_u64(v, "bits");
      const json::Value* first = v.find("first_send");
      if (first != nullptr && !first->is_null()) {
        ph.first_send = first->u64;
        ph.last_send = get_u64(v, "last_send");
      }
      ph.message_bits = read_histogram(v.at("message_bits"));
      p.phases.push_back(std::move(ph));
    }
  }

  if (const json::Value* classes = doc.find("classes")) {
    for (const json::Value& v : classes->array) {
      ClassProfile c;
      c.name = get_str(v, "name");
      c.nodes = get_u64(v, "nodes");
      c.messages = get_u64(v, "messages");
      c.sent_per_node = read_histogram(v.at("sent_per_node"));
      p.classes.push_back(std::move(c));
    }
  }

  if (const json::Value* counters = doc.find("counters")) {
    for (const auto& [name, v] : counters->object) {
      p.counters.emplace_back(name, v.u64);
    }
  }

  if (const json::Value* engine = doc.find("engine")) {
    p.engine = read_engine(*engine);
  }

  if (const json::Value* timers = doc.find("timers")) {
    for (const json::Value& v : timers->array) {
      TimerProfile t;
      t.name = get_str(v, "name");
      t.calls = get_u64(v, "calls");
      t.wall_seconds = get_num(v, "wall_seconds");
      t.sim_ticks = get_u64(v, "sim_ticks");
      p.timers.push_back(std::move(t));
    }
  }
  return p;
}

void ProfileAggregate::merge(const RunProfile& p) {
  ++trials;
  messages += p.messages;
  bits += p.bits;
  events += p.events;
  awake_total += p.awake_total;
  awake_max = std::max(awake_max, p.awake_max);
  sleep_dropped += p.sleep_dropped;
  awake_rounds.merge(p.awake_rounds);
  messages_per_trial.add(static_cast<double>(p.messages));
  time_units.add(p.time_units);
  awake_max_per_trial.add(static_cast<double>(p.awake_max));

  for (const PhaseProfile& ph : p.phases) {
    auto it = std::lower_bound(
        phases.begin(), phases.end(), ph.name,
        [](const PhaseAggregate& a, const std::string& n) { return a.name < n; });
    if (it == phases.end() || it->name != ph.name) {
      PhaseAggregate fresh;
      fresh.name = ph.name;
      it = phases.insert(it, std::move(fresh));
    }
    it->marks += ph.marks;
    it->messages += ph.messages;
    it->bits += ph.bits;
    it->message_bits.merge(ph.message_bits);
    it->messages_per_trial.add(static_cast<double>(ph.messages));
  }

  for (const auto& [name, v] : p.counters) {
    auto it = std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const std::pair<std::string, std::uint64_t>& a,
           const std::string& n) { return a.first < n; });
    if (it == counters.end() || it->first != name) {
      counters.insert(it, {name, v});
    } else {
      it->second += v;
    }
  }

  if (engine.backend.empty()) {
    engine.backend = p.engine.backend;
  } else if (!p.engine.backend.empty() &&
             engine.backend != p.engine.backend) {
    engine.backend = "mixed";
  }
  engine.events_popped += p.engine.events_popped;
  engine.queue_high_water =
      std::max(engine.queue_high_water, p.engine.queue_high_water);
  engine.ring_high_water =
      std::max(engine.ring_high_water, p.engine.ring_high_water);
  engine.overflow_high_water =
      std::max(engine.overflow_high_water, p.engine.overflow_high_water);
  engine.queue_depth.merge(p.engine.queue_depth);
  engine.rounds_stepped += p.engine.rounds_stepped;
  engine.round_active.merge(p.engine.round_active);
}

void write_aggregate(json::Writer& w, const ProfileAggregate& a) {
  w.begin_object();
  w.kv("kind", "profile_aggregate");
  w.kv("trials", static_cast<std::uint64_t>(a.trials));

  w.key("totals").begin_object();
  w.kv("messages", a.messages);
  w.kv("bits", a.bits);
  w.kv("events", a.events);
  w.kv("awake_total", a.awake_total);
  w.kv("awake_max", a.awake_max);
  w.kv("sleep_dropped", a.sleep_dropped);
  w.end_object();

  w.key("awake_rounds");
  write_histogram(w, a.awake_rounds);

  w.key("messages_per_trial");
  write_stats(w, a.messages_per_trial);
  w.key("time_units");
  write_stats(w, a.time_units);
  w.key("awake_max_per_trial");
  write_stats(w, a.awake_max_per_trial);

  w.key("phases").begin_array();
  for (const PhaseAggregate& ph : a.phases) {
    w.begin_object();
    w.kv("name", ph.name);
    w.kv("marks", ph.marks);
    w.kv("messages", ph.messages);
    w.kv("bits", ph.bits);
    w.key("messages_per_trial");
    write_stats(w, ph.messages_per_trial);
    w.key("message_bits");
    write_histogram(w, ph.message_bits);
    w.end_object();
  }
  w.end_array();

  w.key("counters");
  write_counters(w, a.counters);

  w.key("engine");
  write_engine(w, a.engine);

  w.end_object();
}

std::string aggregate_to_json(const ProfileAggregate& a) {
  std::ostringstream os;
  json::Writer w(os);
  write_aggregate(w, a);
  RISE_CHECK(w.complete());
  os << '\n';
  return os.str();
}

namespace {

/// Shared top-N phase table: rows of (name, line), sorted by `weight` desc,
/// stable on name for equal weights.
template <typename Row>
void append_top(std::ostringstream& os, std::vector<Row> rows,
                std::size_t top_n) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.name < b.name;
  });
  std::size_t shown = std::min(rows.size(), top_n);
  for (std::size_t i = 0; i < shown; ++i) {
    append_row(os, rows[i].name, rows[i].line);
  }
  if (shown < rows.size()) {
    os << "  ... " << (rows.size() - shown) << " more\n";
  }
}

struct TextRow {
  std::string name;
  std::uint64_t weight = 0;
  std::string line;
};

}  // namespace

std::string format_profile(const RunProfile& p, std::size_t top_n) {
  std::ostringstream os;
  os << "run profile: " << p.algorithm << " on " << p.graph << " (n="
     << p.num_nodes << ", m=" << p.num_edges << ", schedule=" << p.schedule
     << ", delay=" << p.delay << ", seed=" << p.seed << ", "
     << (p.synchronous ? "sync" : "async") << ")\n";
  os << "totals: messages=" << p.messages << " bits=" << p.bits
     << " deliveries=" << p.deliveries << " events=" << p.events
     << " rounds=" << p.rounds << " time_units=" << fmt_double(p.time_units)
     << '\n';
  if (p.awake_rounds.count() > 0) {
    os << "awake_rounds: total=" << p.awake_total
       << " p50=" << p.awake_rounds.approx_quantile(0.5)
       << " p90=" << p.awake_rounds.approx_quantile(0.9)
       << " max=" << p.awake_max << " sleep_dropped=" << p.sleep_dropped
       << '\n';
  }

  os << "phases (by messages):\n";
  std::vector<TextRow> rows;
  for (const PhaseProfile& ph : p.phases) {
    if (ph.messages == 0 && ph.marks == 0) continue;
    std::ostringstream line;
    line << "messages=" << ph.messages << " bits=" << ph.bits
         << " marks=" << ph.marks;
    if (ph.messages > 0) {
      line << " span=[" << ph.first_send << "," << ph.last_send << "]";
    }
    rows.push_back({ph.name, ph.messages, line.str()});
  }
  append_top(os, std::move(rows), top_n);

  if (p.classes.size() > 1 || (!p.classes.empty() && p.classes[0].nodes > 0)) {
    os << "classes:\n";
    for (const ClassProfile& c : p.classes) {
      if (c.nodes == 0 && c.messages == 0) continue;
      std::ostringstream line;
      line << "nodes=" << c.nodes << " messages=" << c.messages
           << " sent/node p50=" << c.sent_per_node.approx_quantile(0.5)
           << " max=" << c.sent_per_node.max();
      append_row(os, c.name, line.str());
    }
  }

  if (!p.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, v] : p.counters) {
      append_row(os, name, std::to_string(v));
    }
  }

  const EngineProfile& e = p.engine;
  os << "engine: backend=" << (e.backend.empty() ? "?" : e.backend)
     << " popped=" << e.events_popped << " queue_hw=" << e.queue_high_water
     << " ring_hw=" << e.ring_high_water
     << " overflow_hw=" << e.overflow_high_water
     << " rounds_stepped=" << e.rounds_stepped << '\n';

  if (!p.timers.empty()) {
    os << "timers:\n";
    for (const TimerProfile& t : p.timers) {
      std::ostringstream line;
      line << "calls=" << t.calls << " wall="
           << fmt_double(t.wall_seconds * 1e3, 3) << "ms";
      if (t.sim_ticks > 0) line << " sim_ticks=" << t.sim_ticks;
      append_row(os, t.name, line.str());
    }
  }
  return os.str();
}

std::string format_aggregate(const ProfileAggregate& a, std::size_t top_n) {
  std::ostringstream os;
  os << "profile aggregate over " << a.trials << " trials\n";
  os << "totals: messages=" << a.messages << " bits=" << a.bits
     << " events=" << a.events << '\n';
  if (a.messages_per_trial.count() > 0) {
    os << "messages/trial: mean=" << fmt_double(a.messages_per_trial.mean())
       << " p50=" << fmt_double(a.messages_per_trial.quantile(0.5))
       << " p90=" << fmt_double(a.messages_per_trial.quantile(0.9))
       << " max=" << fmt_double(a.messages_per_trial.max()) << '\n';
  }
  if (a.time_units.count() > 0) {
    os << "time_units: mean=" << fmt_double(a.time_units.mean())
       << " p50=" << fmt_double(a.time_units.quantile(0.5))
       << " max=" << fmt_double(a.time_units.max()) << '\n';
  }
  if (a.awake_rounds.count() > 0) {
    os << "awake_rounds: total=" << a.awake_total
       << " p50=" << a.awake_rounds.approx_quantile(0.5)
       << " p90=" << a.awake_rounds.approx_quantile(0.9)
       << " max=" << a.awake_max << " sleep_dropped=" << a.sleep_dropped
       << " max/trial p50=" << fmt_double(a.awake_max_per_trial.quantile(0.5))
       << '\n';
  }

  os << "phases (by messages):\n";
  std::vector<TextRow> rows;
  for (const PhaseAggregate& ph : a.phases) {
    if (ph.messages == 0 && ph.marks == 0) continue;
    std::ostringstream line;
    line << "messages=" << ph.messages << " bits=" << ph.bits
         << " marks=" << ph.marks;
    if (ph.messages_per_trial.count() > 0) {
      line << " per-trial p50=" << fmt_double(ph.messages_per_trial.quantile(0.5))
           << " p90=" << fmt_double(ph.messages_per_trial.quantile(0.9));
    }
    rows.push_back({ph.name, ph.messages, line.str()});
  }
  append_top(os, std::move(rows), top_n);

  if (!a.counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, v] : a.counters) {
      append_row(os, name, std::to_string(v));
    }
  }

  const EngineProfile& e = a.engine;
  os << "engine: backend=" << (e.backend.empty() ? "?" : e.backend)
     << " popped=" << e.events_popped << " queue_hw=" << e.queue_high_water
     << " rounds_stepped=" << e.rounds_stepped << '\n';
  return os.str();
}

std::string format_profile_document(const json::Value& doc,
                                    std::size_t top_n) {
  RISE_CHECK_MSG(doc.is_object(), "profile document is not a JSON object");
  const std::string kind = get_str(doc, "kind");
  if (kind == "run_profile") {
    return format_profile(profile_from_json(doc), top_n);
  }
  RISE_CHECK_MSG(kind == "profile_aggregate",
                 "not a profile document (kind=" << kind << ")");

  // An aggregate's SampleStats cannot be rebuilt from the quantiles its
  // JSON keeps, so this kind is printed from the document itself.
  std::ostringstream os;
  os << "profile aggregate over " << get_u64(doc, "trials") << " trials\n";
  const json::Value* totals = doc.find("totals");
  if (totals != nullptr) {
    os << "totals: messages=" << get_u64(*totals, "messages")
       << " bits=" << get_u64(*totals, "bits")
       << " events=" << get_u64(*totals, "events") << '\n';
  }
  const json::Value* mpt = doc.find("messages_per_trial");
  if (mpt != nullptr && get_u64(*mpt, "count") > 0) {
    os << "messages/trial: mean=" << fmt_double(get_num(*mpt, "mean"))
       << " p50=" << fmt_double(get_num(*mpt, "p50"))
       << " p90=" << fmt_double(get_num(*mpt, "p90"))
       << " max=" << fmt_double(get_num(*mpt, "max")) << '\n';
  }
  const json::Value* awake = doc.find("awake_rounds");
  if (awake != nullptr && get_u64(*awake, "count") > 0 && totals != nullptr) {
    const LogHistogram h = read_histogram(*awake);
    os << "awake_rounds: total=" << get_u64(*totals, "awake_total")
       << " p50=" << h.approx_quantile(0.5)
       << " p90=" << h.approx_quantile(0.9)
       << " max=" << get_u64(*totals, "awake_max")
       << " sleep_dropped=" << get_u64(*totals, "sleep_dropped") << '\n';
  }

  const json::Value* phases = doc.find("phases");
  if (phases != nullptr && phases->is_array()) {
    os << "phases (by messages):\n";
    std::vector<TextRow> rows;
    for (const json::Value& ph : phases->array) {
      std::uint64_t messages = get_u64(ph, "messages");
      std::uint64_t marks = get_u64(ph, "marks");
      if (messages == 0 && marks == 0) continue;
      std::ostringstream line;
      line << "messages=" << messages << " bits=" << get_u64(ph, "bits")
           << " marks=" << marks;
      rows.push_back({get_str(ph, "name"), messages, line.str()});
    }
    append_top(os, std::move(rows), top_n);
  }

  const json::Value* counters = doc.find("counters");
  if (counters != nullptr && counters->is_object() && counters->size() > 0) {
    os << "counters:\n";
    for (const auto& [name, v] : counters->object) {
      append_row(os, name, v.is_integer ? std::to_string(v.u64)
                                        : fmt_double(v.number));
    }
  }

  const json::Value* engine = doc.find("engine");
  if (engine != nullptr && engine->is_object()) {
    os << "engine: backend=" << get_str(*engine, "backend")
       << " popped=" << get_u64(*engine, "events_popped")
       << " queue_hw=" << get_u64(*engine, "queue_high_water")
       << " rounds_stepped=" << get_u64(*engine, "rounds_stepped") << '\n';
  }

  return os.str();
}

}  // namespace rise::obs
