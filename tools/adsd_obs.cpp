// adsd_obs: reader and schema validator for every observability artifact
// the solve stack emits (see DESIGN.md "Observability"):
//
//   adsd_obs <file> [--check] [--expect-run-id <id>]
//
// The artifact kind is detected from the content:
//   - adsd-log-v1 JSONL (--log-file, the bundle's log.jsonl): every line
//     must be a complete record (schema / ts / level / thread / component
//     / run_id / msg, typed optionals parent_id, suppressed, fields) with
//     a level from the roster. Prints per-component level counts.
//   - Chrome trace (--trace): "traceEvents". Validates event fields and
//     per-thread B/E balance and nesting; prints per-span totals.
//   - Run report (--report): "meta" + "spans". Validates quantile fields
//     and their order; prints the latency, counter and thread tables.
//   - QoR record (--qor, schema "adsd-qor-v1"): validates the counters /
//     samples / decisions / curves / finals sections; prints the finals.
//   - Prometheus text v0.0.4 (--metrics): every sample line must parse
//     and belong to a # TYPE family; histogram series must carry le bounds
//     strictly increasing, cumulative counts non-decreasing, and a +Inf
//     bucket equal to _count. `# EXEMPLAR <series> run_id="..." value=<v>`
//     comment lines must parse.
//   - Flight postmortem (--postmortem, schema "adsd-flight-v1"): record
//     fields and strictly increasing sequence numbers.
//
// --check suppresses the tables (validation only). --expect-run-id <id>
// is the provenance join: the trace, report and QoR stamps and every log
// record must carry exactly that run_id; for Prometheus text and flight
// dumps at least one exemplar or record must. Empty files fail with a
// plain message; a trace or report with zero events/spans is reported
// and fails only under --check. Exit status: 0 valid, 1 invalid or
// unreadable, 2 usage.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

namespace {

using adsd::Table;
using adsd::json::Value;

[[noreturn]] void invalid(const std::string& what) {
  throw std::runtime_error(what);
}

void require(bool ok, const std::string& what) {
  if (!ok) {
    invalid(what);
  }
}

struct Options {
  bool check_only = false;
  /// Non-empty = the artifact must carry this run_id (provenance join).
  std::string expect_run_id;
};

/// The run_id string at `obj[key]`, or "" when `obj` is null or has none.
std::string run_id_of(const Value* obj, const char* key = "run_id") {
  const Value* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

/// The --expect-run-id join: a no-op without an expectation, otherwise at
/// least one of the run_ids carried at `where` must match ("" stands for
/// a carrier without one). Single-stamp kinds pass their one stamp and
/// logs check each record alone, so there every carrier must match.
void check_run_id(const Options& opts, const std::vector<std::string>& ids,
                  const std::string& where) {
  const std::string& want = opts.expect_run_id;
  if (want.empty() || std::find(ids.begin(), ids.end(), want) != ids.end()) {
    return;
  }
  require(!ids.empty() && !ids.front().empty(),
          where + ": missing run_id (expected '" + want + "')");
  invalid(where + ": run_id '" + ids.front() + "' does not match expected '" +
          want + "'");
}

// ---------------------------------------------------------------------------
// adsd-log-v1 JSONL stream.

struct ComponentAgg {
  std::map<std::string, std::size_t> per_level;
  std::size_t count = 0;
};

int summarize_log(const std::string& text, const Options& opts) {
  std::map<std::string, ComponentAgg> components;
  std::map<std::string, std::size_t> per_level;
  std::uint64_t suppressed = 0;
  std::size_t records = 0;

  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string line = text.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    start = nl == std::string::npos ? text.size() : nl + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.find_first_not_of(" \t") == std::string::npos) {
      continue;
    }
    const std::string where = "line " + std::to_string(lineno);
    Value rec = [&] {
      try {
        return adsd::json::parse(line);
      } catch (const std::exception& e) {
        throw std::runtime_error(where + ": not a JSON object (" + e.what() +
                                 ")");
      }
    }();
    require(rec.is_object(), where + ": record must be a JSON object");
    require(rec.find("schema") != nullptr && rec.at("schema").is_string() &&
                rec.at("schema").as_string() == "adsd-log-v1",
            where + ": schema must be \"adsd-log-v1\"");
    require(rec.find("ts") != nullptr && rec.at("ts").is_number(),
            where + ": missing numeric ts");
    require(rec.find("thread") != nullptr && rec.at("thread").is_number(),
            where + ": missing numeric thread");
    for (const char* key : {"level", "component", "run_id", "msg"}) {
      require(rec.find(key) != nullptr && rec.at(key).is_string(),
              where + ": missing string " + key);
    }
    const std::string& level = rec.at("level").as_string();
    require(adsd::parse_log_level(level).has_value() && level != "off",
            where + ": unknown level '" + level + "'");
    if (const Value* pid = rec.find("parent_id")) {
      require(pid->is_string(), where + ": parent_id must be a string");
    }
    if (const Value* sup = rec.find("suppressed")) {
      require(sup->is_number() && sup->as_number() > 0.0,
              where + ": suppressed must be a positive count");
      suppressed += static_cast<std::uint64_t>(sup->as_number());
    }
    if (const Value* fields = rec.find("fields")) {
      require(fields->is_object(), where + ": fields must be an object");
    }
    check_run_id(opts, {rec.at("run_id").as_string()}, where);

    ++records;
    ++per_level[level];
    ComponentAgg& agg = components[rec.at("component").as_string()];
    ++agg.count;
    ++agg.per_level[level];
  }
  require(records > 0, "no log records (every line blank)");

  if (opts.check_only) {
    std::cout << "log OK: " << records << " records, " << components.size()
              << " components, " << suppressed << " suppressed\n";
    return 0;
  }

  std::cout << "adsd-log-v1 stream: " << records << " records across "
            << components.size() << " components";
  if (suppressed > 0) {
    std::cout << " (" << suppressed << " suppressed by rate limits)";
  }
  std::cout << "\n\n";
  Table level_table({"level", "records"});
  for (const char* level : {"debug", "info", "warn", "error"}) {
    const auto it = per_level.find(level);
    if (it != per_level.end()) {
      level_table.add_row({level, std::to_string(it->second)});
    }
  }
  level_table.print(std::cout);
  std::cout << "\n";
  Table component_table({"component", "records", "debug", "info", "warn",
                         "error"});
  for (const auto& [component, agg] : components) {
    auto count = [&](const char* level) {
      const auto it = agg.per_level.find(level);
      return std::to_string(it == agg.per_level.end() ? 0 : it->second);
    };
    component_table.add_row({component, std::to_string(agg.count),
                             count("debug"), count("info"), count("warn"),
                             count("error")});
  }
  component_table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Chrome trace_event timeline.

struct SpanAgg {
  std::size_t count = 0;
  double total_us = 0.0;
};

int summarize_chrome_trace(const Value& doc, const Options& opts) {
  check_run_id(opts, {run_id_of(doc.find("otherData"))}, "otherData.run_id");
  const Value& events = doc.at("traceEvents");
  require(events.is_array(), "traceEvents must be an array");
  if (events.as_array().empty()) {
    // Structurally valid but useless — a recorder that dropped everything
    // or a run that never entered the solve stack. Informational on a
    // plain read; a failure for the CI smoke check.
    std::cout << "trace has zero events (nothing was recorded)\n";
    return opts.check_only ? 1 : 0;
  }

  // Per-tid begin stacks (name sequence) for balance/nesting validation,
  // plus span aggregates keyed by name.
  std::map<double, std::vector<std::pair<std::string, double>>> stacks;
  std::map<double, std::size_t> events_per_tid;
  std::map<std::string, SpanAgg> spans;
  std::size_t counters = 0;
  std::size_t instants = 0;

  for (const Value& e : events.as_array()) {
    require(e.is_object(), "trace event must be an object");
    const std::string& ph = e.at("ph").as_string();
    require(e.at("pid").is_number(), "event missing pid");
    const double tid = e.at("tid").as_number();
    require(e.at("name").is_string(), "event missing name");
    if (ph == "M") {
      continue;  // metadata carries no timestamp
    }
    require(e.at("ts").is_number(), "event missing ts");
    const double ts = e.at("ts").as_number();
    ++events_per_tid[tid];
    const std::string& name = e.at("name").as_string();
    if (ph == "B") {
      stacks[tid].emplace_back(name, ts);
    } else if (ph == "E") {
      auto& stack = stacks[tid];
      require(!stack.empty(), "unbalanced E event (tid " +
                                  std::to_string(tid) + ", name " + name +
                                  ")");
      require(stack.back().first == name,
              "mis-nested span: E '" + name + "' closes B '" +
                  stack.back().first + "'");
      SpanAgg& agg = spans[name];
      agg.count += 1;
      agg.total_us += ts - stack.back().second;
      stack.pop_back();
    } else if (ph == "C") {
      require(e.at("args").is_object(), "counter event missing args");
      ++counters;
    } else if (ph == "i") {
      ++instants;
    } else {
      invalid("unknown event phase '" + ph + "'");
    }
  }
  for (const auto& [tid, stack] : stacks) {
    require(stack.empty(), "unclosed B events on tid " + std::to_string(tid));
  }

  if (opts.check_only) {
    std::cout << "trace OK: " << events.as_array().size() << " events, "
              << events_per_tid.size() << " threads, balanced spans\n";
    return 0;
  }

  std::cout << "Chrome trace: " << events.as_array().size() << " events on "
            << events_per_tid.size() << " threads (" << counters
            << " counter samples, " << instants << " instants)\n\n";
  Table span_table({"span", "count", "total ms", "mean us"});
  for (const auto& [name, agg] : spans) {
    span_table.add_row(
        {name, std::to_string(agg.count), Table::num(agg.total_us / 1e3, 3),
         Table::num(agg.total_us / static_cast<double>(agg.count), 1)});
  }
  span_table.print(std::cout);
  std::cout << "\n";
  Table thread_table({"tid", "events"});
  for (const auto& [tid, count] : events_per_tid) {
    thread_table.add_row({std::to_string(static_cast<long long>(tid)),
                          std::to_string(count)});
  }
  thread_table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Run report.

int summarize_report(const Value& doc, const Options& opts) {
  const Value& meta = doc.at("meta");
  check_run_id(opts, {run_id_of(&meta)}, "meta.run_id");
  for (const char* key :
       {"threads", "events", "dropped", "duration_s", "unmatched_begins",
        "unmatched_ends"}) {
    require(meta.at(key).is_number(), std::string("meta.") + key);
  }
  require(meta.at("unmatched_begins").as_number() == 0.0,
          "report has unmatched begin events");
  require(meta.at("unmatched_ends").as_number() == 0.0,
          "report has unmatched end events");

  const Value& spans = doc.at("spans");
  require(spans.is_object(), "spans must be an object");
  if (spans.as_object().empty()) {
    std::cout << "report has zero spans (nothing was recorded)\n";
    return opts.check_only ? 1 : 0;
  }
  for (const auto& [path, span] : spans.as_object()) {
    for (const char* key : {"count", "total_s", "mean_s", "min_s", "max_s",
                            "p50_s", "p95_s", "p99_s"}) {
      require(span.find(key) != nullptr && span.at(key).is_number(),
              "span '" + path + "' missing " + key);
    }
    require(span.at("min_s").as_number() <= span.at("p50_s").as_number() &&
                span.at("p50_s").as_number() <=
                    span.at("p95_s").as_number() &&
                span.at("p95_s").as_number() <=
                    span.at("p99_s").as_number() &&
                span.at("p99_s").as_number() <= span.at("max_s").as_number(),
            "span '" + path + "' quantiles not monotone");
  }
  const Value& counters = doc.at("counters");
  require(counters.is_object(), "counters must be an object");
  for (const auto& [name, c] : counters.as_object()) {
    for (const char* key : {"samples", "first", "last", "min", "max",
                            "mean"}) {
      require(c.find(key) != nullptr && c.at(key).is_number(),
              "counter '" + name + "' missing " + key);
    }
  }
  require(doc.at("threads").is_array(), "threads must be an array");

  if (opts.check_only) {
    std::cout << "report OK: " << spans.as_object().size() << " span paths, "
              << counters.as_object().size() << " counters, "
              << doc.at("threads").as_array().size() << " threads\n";
    return 0;
  }

  std::cout << "Run report: "
            << static_cast<std::size_t>(meta.at("events").as_number())
            << " events, "
            << static_cast<std::size_t>(meta.at("threads").as_number())
            << " threads, duration "
            << Table::num(meta.at("duration_s").as_number(), 3)
            << " s, dropped "
            << static_cast<std::size_t>(meta.at("dropped").as_number())
            << "\n\n";
  Table span_table({"span path", "count", "mean ms", "p50 ms", "p95 ms",
                    "p99 ms", "max ms"});
  for (const auto& [path, s] : spans.as_object()) {
    auto ms = [&](const char* key) {
      return Table::num(s.at(key).as_number() * 1e3, 3);
    };
    span_table.add_row(
        {path,
         std::to_string(static_cast<std::size_t>(s.at("count").as_number())),
         ms("mean_s"), ms("p50_s"), ms("p95_s"), ms("p99_s"), ms("max_s")});
  }
  span_table.print(std::cout);
  if (!counters.as_object().empty()) {
    std::cout << "\n";
    Table counter_table({"counter", "samples", "first", "last", "min",
                         "max"});
    for (const auto& [name, c] : counters.as_object()) {
      counter_table.add_row(
          {name,
           std::to_string(
               static_cast<std::size_t>(c.at("samples").as_number())),
           Table::num(c.at("first").as_number(), 4),
           Table::num(c.at("last").as_number(), 4),
           Table::num(c.at("min").as_number(), 4),
           Table::num(c.at("max").as_number(), 4)});
    }
    counter_table.print(std::cout);
  }
  std::cout << "\n";
  Table thread_table({"tid", "events", "busy s", "utilization"});
  for (const Value& t : doc.at("threads").as_array()) {
    thread_table.add_row(
        {std::to_string(static_cast<long long>(t.at("tid").as_number())),
         std::to_string(
             static_cast<std::size_t>(t.at("events").as_number())),
         Table::num(t.at("busy_s").as_number(), 3),
         Table::num(t.at("utilization").as_number(), 3)});
  }
  thread_table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// adsd-qor-v1 record.

int summarize_qor(const Value& doc, const Options& opts) {
  check_run_id(opts, {run_id_of(&doc)}, "qor run_id");
  require(doc.at("counters").is_object(), "qor counters must be an object");
  require(doc.at("samples").is_object(), "qor samples must be an object");
  require(doc.at("decisions").is_array(), "qor decisions must be an array");
  require(doc.at("curves").is_array(), "qor curves must be an array");
  require(doc.at("dropped").is_number(), "qor missing dropped");
  const Value& finals = doc.at("finals");
  require(finals.is_array(), "qor finals must be an array");
  for (const Value& fin : finals.as_array()) {
    require(fin.is_object() && fin.find("stage") != nullptr &&
                fin.at("stage").is_string(),
            "qor final missing stage");
    for (const char* key : {"med", "error_rate", "lut_bits", "flat_bits"}) {
      require(fin.find(key) != nullptr && fin.at(key).is_number(),
              std::string("qor final missing ") + key);
    }
  }
  if (opts.check_only) {
    std::cout << "qor OK: " << doc.at("counters").as_object().size()
              << " counters, " << doc.at("decisions").as_array().size()
              << " decisions, " << finals.as_array().size() << " finals\n";
    return 0;
  }
  std::cout << "adsd-qor-v1 record: "
            << doc.at("decisions").as_array().size() << " decisions, "
            << doc.at("curves").as_array().size() << " curves\n\n";
  Table final_table({"stage", "MED", "error rate", "LUT bits", "flat bits"});
  for (const Value& fin : finals.as_array()) {
    final_table.add_row(
        {fin.at("stage").as_string(), Table::num(fin.at("med").as_number(), 6),
         Table::num(fin.at("error_rate").as_number(), 6),
         std::to_string(
             static_cast<std::uint64_t>(fin.at("lut_bits").as_number())),
         std::to_string(
             static_cast<std::uint64_t>(fin.at("flat_bits").as_number()))});
  }
  final_table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (v0.0.4).

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

bool valid_prom_name(const std::string& name) {
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (name.empty() || !head(name[0])) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

double parse_prom_value(const std::string& text, const std::string& where) {
  if (text == "+Inf" || text == "Inf") {
    return std::numeric_limits<double>::infinity();
  }
  if (text == "-Inf") {
    return -std::numeric_limits<double>::infinity();
  }
  if (text == "NaN") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  require(end != nullptr && *end == '\0' && end != text.c_str(),
          where + ": bad sample value '" + text + "'");
  return v;
}

/// Parses one `name{k="v",...} value` sample line (labels optional).
PromSample parse_prom_sample(const std::string& line,
                             const std::string& where) {
  PromSample sample;
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') {
    ++i;
  }
  sample.name = line.substr(0, i);
  require(valid_prom_name(sample.name),
          where + ": bad metric name '" + sample.name + "'");
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      require(eq != std::string::npos, where + ": label missing '='");
      const std::string key = line.substr(i, eq - i);
      require(valid_prom_name(key), where + ": bad label key '" + key + "'");
      require(eq + 1 < line.size() && line[eq + 1] == '"',
              where + ": label value must be quoted");
      std::string value;
      std::size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\') {
          require(j + 1 < line.size(), where + ": dangling escape");
          ++j;
          if (line[j] == 'n') {
            value += '\n';
          } else if (line[j] == '\\' || line[j] == '"') {
            value += line[j];
          } else {
            invalid(where + ": unknown escape '\\" + line[j] + "'");
          }
        } else {
          value += line[j];
        }
      }
      require(j < line.size(), where + ": unterminated label value");
      require(sample.labels.emplace(key, value).second,
              where + ": duplicate label '" + key + "'");
      i = j + 1;
      if (i < line.size() && line[i] == ',') {
        ++i;
      }
    }
    require(i < line.size(), where + ": unterminated label set");
    ++i;  // consume '}'
  }
  require(i < line.size() && line[i] == ' ',
          where + ": missing value after metric name");
  sample.value = parse_prom_value(line.substr(i + 1), where);
  return sample;
}

/// Serializes the labels minus `drop` — the series identity used to group
/// one histogram's _bucket/_sum/_count samples.
std::string label_key(const std::map<std::string, std::string>& labels,
                      const std::string& drop = "") {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (k != drop) {
      key += k + "=" + v + ";";
    }
  }
  return key;
}

struct PromHistogram {
  std::vector<std::pair<double, double>> cumulative;  // (le, count)
  bool has_sum = false;
  bool has_count = false;
  double sum = 0.0;
  double count = 0.0;
};

int summarize_prometheus(const std::string& text, const Options& opts) {
  std::map<std::string, std::string> family_type;  // name -> counter|gauge|…
  std::vector<PromSample> scalars;  // counter and gauge samples
  std::map<std::string, std::map<std::string, PromHistogram>> histograms;
  std::set<std::string> series_seen;
  std::vector<std::string> exemplar_run_ids;
  std::size_t samples = 0;

  // Maps a sample name to its declared family: exact match, or the
  // histogram suffixes on a histogram-typed family.
  auto family_of = [&](const std::string& name,
                       std::string* suffix) -> std::string {
    if (family_type.count(name) != 0) {
      *suffix = "";
      return name;
    }
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      const std::string tail(s);
      if (name.size() > tail.size() &&
          name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
        const std::string base = name.substr(0, name.size() - tail.size());
        auto it = family_type.find(base);
        if (it != family_type.end() && it->second == "histogram") {
          *suffix = tail;
          return base;
        }
      }
    }
    return "";
  };

  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string line = text.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    start = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    const std::string where = "line " + std::to_string(lineno);
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::size_t sp = line.find(' ', 7);
        require(sp != std::string::npos, where + ": malformed # TYPE");
        const std::string name = line.substr(7, sp - 7);
        const std::string kind = line.substr(sp + 1);
        require(valid_prom_name(name),
                where + ": bad family name '" + name + "'");
        require(kind == "counter" || kind == "gauge" || kind == "histogram" ||
                    kind == "summary" || kind == "untyped",
                where + ": unknown family type '" + kind + "'");
        require(family_type.emplace(name, kind).second,
                where + ": duplicate # TYPE for '" + name + "'");
      } else if (line.rfind("# EXEMPLAR ", 0) == 0) {
        // `# EXEMPLAR <series> run_id="..." value=<num>` — the provenance
        // join emitted next to a histogram's _count (a comment line, so
        // plain v0.0.4 consumers skip it).
        const std::string body = line.substr(11);
        const std::size_t rid = body.find(" run_id=\"");
        require(rid != std::string::npos && rid > 0,
                where + ": EXEMPLAR missing series or run_id");
        const std::size_t id_begin = rid + 9;
        const std::size_t id_end = body.find('"', id_begin);
        require(id_end != std::string::npos,
                where + ": EXEMPLAR unterminated run_id");
        const std::size_t val = body.find(" value=", id_end);
        require(val != std::string::npos, where + ": EXEMPLAR missing value");
        (void)parse_prom_value(body.substr(val + 7), where);
        exemplar_run_ids.push_back(body.substr(id_begin, id_end - id_begin));
      }
      continue;  // HELP and other comments pass through
    }
    const PromSample sample = parse_prom_sample(line, where);
    ++samples;
    require(series_seen.insert(sample.name + "|" + label_key(sample.labels))
                .second,
            where + ": duplicate series '" + sample.name + "'");
    std::string suffix;
    const std::string family = family_of(sample.name, &suffix);
    require(!family.empty(),
            where + ": sample '" + sample.name + "' has no # TYPE family");
    const std::string& kind = family_type.at(family);
    if (kind == "histogram") {
      PromHistogram& h = histograms[family][label_key(sample.labels, "le")];
      if (suffix == "_bucket") {
        auto le = sample.labels.find("le");
        require(le != sample.labels.end(),
                where + ": _bucket sample missing le label");
        h.cumulative.emplace_back(parse_prom_value(le->second, where),
                                  sample.value);
      } else if (suffix == "_sum") {
        h.has_sum = true;
        h.sum = sample.value;
      } else if (suffix == "_count") {
        h.has_count = true;
        h.count = sample.value;
      } else {
        invalid(where + ": bare sample for histogram family '" + family +
                "'");
      }
    } else {
      require(suffix.empty(), where + ": suffixed sample '" + sample.name +
                                  "' on non-histogram family");
      if (kind == "counter") {
        require(sample.value >= 0.0 && std::isfinite(sample.value),
                where + ": counter '" + sample.name + "' must be a finite "
                        "non-negative value");
      }
      scalars.push_back(sample);
    }
  }
  require(samples > 0, "no samples in exposition");
  check_run_id(opts, exemplar_run_ids, "exemplars");

  for (const auto& [family, series] : histograms) {
    for (const auto& [key, h] : series) {
      require(!h.cumulative.empty(),
              "histogram '" + family + "' series has no buckets");
      require(h.has_sum && h.has_count,
              "histogram '" + family + "' series missing _sum or _count");
      for (std::size_t i = 1; i < h.cumulative.size(); ++i) {
        require(h.cumulative[i].first > h.cumulative[i - 1].first,
                "histogram '" + family + "' le bounds not increasing");
        require(h.cumulative[i].second >= h.cumulative[i - 1].second,
                "histogram '" + family + "' cumulative counts decrease");
      }
      require(std::isinf(h.cumulative.back().first),
              "histogram '" + family + "' missing the +Inf bucket");
      require(h.cumulative.back().second == h.count,
              "histogram '" + family + "' +Inf bucket != _count");
    }
  }

  if (opts.check_only) {
    std::cout << "metrics OK: " << samples << " samples, "
              << family_type.size() << " families (" << histograms.size()
              << " histogram)\n";
    return 0;
  }

  std::cout << "Prometheus exposition: " << samples << " samples, "
            << family_type.size() << " families\n\n";
  Table scalar_table({"metric", "type", "value"});
  for (const PromSample& s : scalars) {
    std::string name = s.name;
    const std::string labels = label_key(s.labels);
    if (!labels.empty()) {
      name += "{" + labels.substr(0, labels.size() - 1) + "}";
    }
    scalar_table.add_row({name, family_type.at(s.name),
                          Table::num(s.value, 6)});
  }
  scalar_table.print(std::cout);
  if (!histograms.empty()) {
    std::cout << "\n";
    Table hist_table({"histogram", "count", "sum", "mean", "buckets"});
    for (const auto& [family, series] : histograms) {
      for (const auto& [key, h] : series) {
        std::string name = family;
        if (!key.empty()) {
          name += "{" + key.substr(0, key.size() - 1) + "}";
        }
        hist_table.add_row(
            {name, std::to_string(static_cast<std::uint64_t>(h.count)),
             Table::num(h.sum, 3),
             Table::num(h.count > 0 ? h.sum / h.count : 0.0, 3),
             std::to_string(h.cumulative.size())});
      }
    }
    hist_table.print(std::cout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// adsd-flight-v1 postmortem.

int summarize_flight(const Value& doc, const Options& opts) {
  require(doc.at("reason").is_string(), "missing reason");
  require(doc.at("total_recorded").is_number(), "missing total_recorded");
  const Value& solves = doc.at("solves");
  require(solves.is_array(), "solves must be an array");
  std::vector<std::string> record_run_ids;
  double last_seq = -1.0;
  for (const Value& rec : solves.as_array()) {
    require(rec.is_object(), "solve record must be an object");
    for (const char* key : {"spec", "engine", "stop_reason"}) {
      require(rec.find(key) != nullptr && rec.at(key).is_string(),
              std::string("solve record missing ") + key);
    }
    for (const char* key :
         {"seq", "n", "rounds", "final_energy", "med", "duration_s"}) {
      require(rec.find(key) != nullptr && rec.at(key).is_number(),
              std::string("solve record missing ") + key);
    }
    if (const Value* rid = rec.find("run_id")) {
      require(rid->is_string(), "solve record run_id must be a string");
      record_run_ids.push_back(rid->as_string());
    }
    require(rec.at("seq").as_number() > last_seq,
            "solve record sequence numbers not increasing");
    last_seq = rec.at("seq").as_number();
  }
  if (const Value* tail = doc.find("log_tail")) {
    // Last-N structured-log replay embedded by the recorder when the
    // logger was armed at dump time; each entry is one parsed adsd-log-v1
    // record.
    require(tail->is_array(), "log_tail must be an array");
    for (const Value& entry : tail->as_array()) {
      require(entry.is_object(), "log_tail entry must be an object");
    }
  }
  check_run_id(opts, record_run_ids, "flight records");

  if (opts.check_only) {
    std::cout << "flight OK: " << solves.as_array().size()
              << " solve records, reason " << doc.at("reason").as_string()
              << "\n";
    return 0;
  }
  std::cout << "adsd-flight-v1 postmortem: reason "
            << doc.at("reason").as_string() << ", "
            << solves.as_array().size() << " of "
            << static_cast<std::uint64_t>(
                   doc.at("total_recorded").as_number())
            << " records retained\n\n";
  Table solve_table({"seq", "spec", "engine", "stop", "n", "rounds",
                     "energy", "MED", "duration s"});
  for (const Value& rec : solves.as_array()) {
    solve_table.add_row(
        {std::to_string(
             static_cast<std::uint64_t>(rec.at("seq").as_number())),
         rec.at("spec").as_string(), rec.at("engine").as_string(),
         rec.at("stop_reason").as_string(),
         std::to_string(static_cast<std::uint64_t>(rec.at("n").as_number())),
         std::to_string(
             static_cast<std::uint64_t>(rec.at("rounds").as_number())),
         Table::num(rec.at("final_energy").as_number(), 4),
         Table::num(rec.at("med").as_number(), 6),
         Table::num(rec.at("duration_s").as_number(), 3)});
  }
  solve_table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Kind detection.

bool is_log_record(const Value& doc) {
  const Value* schema = doc.find("schema");
  return schema != nullptr && schema->is_string() &&
         schema->as_string() == "adsd-log-v1";
}

int summarize(const std::string& text, const Options& opts) {
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (text[first] != '{') {
    return summarize_prometheus(text, opts);
  }
  Value doc;
  try {
    doc = adsd::json::parse(text);
  } catch (const std::exception&) {
    // Not one document: a JSONL log if its first record says so (the log
    // validator then names the offending line), else the parse error.
    const std::size_t eol = text.find('\n', first);
    bool log = false;
    try {
      log = is_log_record(adsd::json::parse(
          text.substr(first, eol == std::string::npos ? eol : eol - first)));
    } catch (const std::exception&) {
    }
    if (!log) {
      throw;
    }
    return summarize_log(text, opts);
  }
  if (is_log_record(doc)) {
    return summarize_log(text, opts);
  }
  if (doc.contains("traceEvents")) {
    return summarize_chrome_trace(doc, opts);
  }
  if (doc.contains("meta") && doc.contains("spans")) {
    return summarize_report(doc, opts);
  }
  if (const Value* schema = doc.find("schema");
      schema != nullptr && schema->is_string()) {
    if (schema->as_string() == "adsd-qor-v1") {
      return summarize_qor(doc, opts);
    }
    if (schema->as_string() == "adsd-flight-v1") {
      return summarize_flight(doc, opts);
    }
  }
  invalid(
      "unrecognized document (expected adsd-log-v1 JSONL, a Chrome trace, "
      "a run report, an adsd-qor-v1 record, Prometheus text, or an "
      "adsd-flight-v1 dump)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  Options opts;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      opts.check_only = true;
    } else if (arg == "--expect-run-id" && i + 1 < argc) {
      opts.expect_run_id = argv[++i];
    } else if (path.empty() && arg != "--expect-run-id") {
      path = arg;
    } else {
      usage_error = true;
    }
  }
  if (path.empty() || usage_error) {
    std::cerr << "usage: adsd_obs <file> [--check] [--expect-run-id <id>]\n";
    return 2;
  }
  try {
    std::ifstream f(path);
    if (!f) {
      invalid("cannot open '" + path + "'");
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();
    // A truncated or never-written artifact; say so plainly instead of
    // surfacing the parser's "unexpected end of input at offset 0".
    require(text.find_first_not_of(" \t\r\n") != std::string::npos,
            "file is empty (no document)");
    return summarize(text, opts);
  } catch (const std::exception& e) {
    std::cerr << "adsd_obs: " << path << ": " << e.what() << "\n";
    return 1;
  }
}
