#include "report/run_report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "common/error.h"

namespace acdn {

namespace {

/// JSON string escaping for the characters our names and paths can
/// actually contain (plus full control-character coverage for safety).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip double formatting; JSON has no Infinity/NaN, so
/// non-finite values (possible in min/max of empty histograms) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  require(ec == std::errc{}, "manifest: double format failed");
  return std::string(buf, ptr);
}

class JsonWriter {
 public:
  explicit JsonWriter(const std::string& path)
      : path_(path), out_(path, std::ios::trunc) {
    if (!out_) throw Error("manifest: cannot open " + path);
    // Shares the "csv/write" fail point with CsvWriter: the manifest is
    // an output artifact like any figure CSV. Fires after the trigger
    // counts were snapshotted into the manifest body, which is fine —
    // a failed manifest write produces no manifest to disagree with.
    static const FailPoint write_fault("csv/write");
    if (const auto fault = write_fault.fire(0, fault_coordinate(path))) {
      if (fault->kind == FaultKind::kError) {
        throw Error("manifest: injected write failure: " + path);
      }
    }
  }

  void line(int indent, std::string_view text) {
    out_ << std::string(std::size_t(indent) * 2, ' ') << text << '\n';
    check();
  }

  void close() {
    out_.flush();
    check();
  }

 private:
  void check() const {
    if (!out_) throw Error("manifest: write failed (disk full?): " + path_);
  }

  std::string path_;
  std::ofstream out_;
};

std::string quoted(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

/// Emits `"name": {...}` object entries for a name-sorted map, handling
/// the trailing-comma bookkeeping JSON demands.
template <typename Map, typename BodyFn>
void write_object_map(JsonWriter& w, int indent, std::string_view key,
                      const Map& map, bool trailing_comma, BodyFn&& body) {
  w.line(indent, quoted(key) + ": {");
  std::size_t i = 0;
  for (const auto& [name, value] : map) {
    const bool last = ++i == map.size();
    body(indent + 1, name, value, !last);
  }
  w.line(indent, trailing_comma ? "}," : "}");
}

}  // namespace

FaultInjectionRecord FaultInjectionRecord::from_registry() {
  const FailPointRegistry& registry = FailPointRegistry::global();
  FaultInjectionRecord record;
  record.armed = fail_points_armed();
  const FaultSchedule schedule = registry.schedule();
  record.seed = schedule.seed;
  record.rules = schedule.rules;
  record.trigger_counts = registry.trigger_counts();
  return record;
}

std::string format_fault_injection(const FaultInjectionRecord& record,
                                   int indent) {
  const std::string pad(std::size_t(indent) * 2, ' ');
  std::string out;
  auto line = [&](int extra, const std::string& text) {
    out += pad + std::string(std::size_t(extra) * 2, ' ') + text + '\n';
  };
  line(0, "\"fault_injection\": {");
  line(1, std::string("\"armed\": ") + (record.armed ? "true" : "false") +
              ",");
  line(1, "\"seed\": " + std::to_string(record.seed) + ",");
  if (record.rules.empty()) {
    line(1, "\"rules\": [],");
  } else {
    line(1, "\"rules\": [");
    for (std::size_t i = 0; i < record.rules.size(); ++i) {
      const FaultRule& rule = record.rules[i];
      line(2, "{\"point\": " + quoted(rule.point) + ", \"kind\": " +
                  quoted(to_string(rule.kind)) + ", \"probability\": " +
                  json_number(rule.probability) + ", \"first_day\": " +
                  std::to_string(rule.first_day) + ", \"last_day\": " +
                  std::to_string(rule.last_day) + ", \"magnitude\": " +
                  json_number(rule.magnitude) + "}" +
                  (i + 1 == record.rules.size() ? "" : ","));
    }
    line(1, "],");
  }
  line(1, "\"trigger_counts\": {");
  std::size_t i = 0;
  for (const auto& [point, count] : record.trigger_counts) {
    const bool last = ++i == record.trigger_counts.size();
    line(2, quoted(point) + ": " + std::to_string(count) +
                (last ? "" : ","));
  }
  line(1, "},");
  line(1, "\"stale_train_days\": " + std::to_string(record.stale_train_days) +
              ",");
  line(1, "\"stale_eval_days\": " + std::to_string(record.stale_eval_days));
  line(0, "}");
  return out;
}

void write_run_manifest(const RunManifest& manifest,
                        const std::string& path) {
  JsonWriter w(path);
  w.line(0, "{");
  w.line(1, "\"tool\": " + quoted(manifest.tool) + ",");
  w.line(1, "\"config_digest\": " + quoted(manifest.config_digest) + ",");
  w.line(1, "\"seed\": " + std::to_string(manifest.seed) + ",");
  w.line(1, "\"days\": " + std::to_string(manifest.days) + ",");
  w.line(1, "\"start_date\": " + quoted(manifest.start_date) + ",");
  w.line(1, "\"end_date\": " + quoted(manifest.end_date) + ",");

  w.line(1, "\"outputs\": [");
  for (std::size_t i = 0; i < manifest.outputs.size(); ++i) {
    const bool last = i + 1 == manifest.outputs.size();
    w.line(2, quoted(manifest.outputs[i]) + (last ? "" : ","));
  }
  w.line(1, "],");

  // The fault_injection section is rendered by format_fault_injection so
  // the golden-fragment test pins exactly the bytes the manifest holds.
  {
    std::string section =
        format_fault_injection(manifest.fault_injection, 1);
    if (!section.empty() && section.back() == '\n') section.pop_back();
    section += ",";  // not the manifest's final key
    std::size_t begin = 0;
    while (begin <= section.size()) {
      std::size_t end = section.find('\n', begin);
      if (end == std::string::npos) end = section.size();
      w.line(0, section.substr(begin, end - begin));
      begin = end + 1;
    }
  }

  const MetricsSnapshot& m = manifest.metrics;
  write_object_map(w, 1, "counters", m.counters, true,
                   [&](int ind, const std::string& name, std::uint64_t v,
                       bool comma) {
                     w.line(ind, quoted(name) + ": " + std::to_string(v) +
                                     (comma ? "," : ""));
                   });
  write_object_map(w, 1, "gauges", m.gauges, true,
                   [&](int ind, const std::string& name, double v,
                       bool comma) {
                     w.line(ind, quoted(name) + ": " + json_number(v) +
                                     (comma ? "," : ""));
                   });
  write_object_map(
      w, 1, "histograms", m.histograms, true,
      [&](int ind, const std::string& name, const HistogramStats& h,
          bool comma) {
        w.line(ind,
               quoted(name) + ": {\"count\": " + std::to_string(h.count) +
                   ", \"sum\": " + json_number(h.sum) +
                   ", \"min\": " + json_number(h.count ? h.min : 0.0) +
                   ", \"max\": " + json_number(h.count ? h.max : 0.0) +
                   ", \"mean\": " + json_number(h.mean()) +
                   ", \"p50\": " + json_number(h.p50) +
                   ", \"p75\": " + json_number(h.p75) +
                   ", \"p95\": " + json_number(h.p95) +
                   ", \"p99\": " + json_number(h.p99) + "}" +
                   (comma ? "," : ""));
      });
  write_object_map(w, 1, "scheduling", m.scheduling, true,
                   [&](int ind, const std::string& name, std::uint64_t v,
                       bool comma) {
                     w.line(ind, quoted(name) + ": " + std::to_string(v) +
                                     (comma ? "," : ""));
                   });
  write_object_map(
      w, 1, "phases", m.phases, false,
      [&](int ind, const std::string& name, const PhaseStats& p,
          bool comma) {
        w.line(ind,
               quoted(name) + ": {\"count\": " + std::to_string(p.count) +
                   ", \"total_ms\": " + json_number(p.total_ms) +
                   ", \"max_ms\": " + json_number(p.max_ms) + "}" +
                   (comma ? "," : ""));
      });
  w.line(0, "}");
  w.close();
}

std::string format_metrics_table(const MetricsSnapshot& snapshot) {
  std::string out;
  char buf[256];
  auto row = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };

  if (!snapshot.counters.empty()) {
    out += "-- counters --\n";
    for (const auto& [name, v] : snapshot.counters) {
      row("  %-36s %14llu\n", name.c_str(),
          static_cast<unsigned long long>(v));
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "-- gauges --\n";
    for (const auto& [name, v] : snapshot.gauges) {
      row("  %-36s %14.3f\n", name.c_str(), v);
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "-- histograms --\n";
    row("  %-36s %10s %12s %10s %10s %10s %10s\n", "name", "count", "mean",
        "p50", "p75", "p95", "p99");
    for (const auto& [name, h] : snapshot.histograms) {
      row("  %-36s %10llu %12.3f %10.3f %10.3f %10.3f %10.3f\n",
          name.c_str(), static_cast<unsigned long long>(h.count), h.mean(),
          h.p50, h.p75, h.p95, h.p99);
    }
  }
  if (!snapshot.scheduling.empty()) {
    out += "-- scheduling --\n";
    for (const auto& [name, v] : snapshot.scheduling) {
      row("  %-36s %14llu\n", name.c_str(),
          static_cast<unsigned long long>(v));
    }
  }
  if (!snapshot.phases.empty()) {
    out += "-- phases --\n";
    row("  %-36s %10s %14s %12s\n", "path", "count", "total_ms", "max_ms");
    for (const auto& [name, p] : snapshot.phases) {
      row("  %-36s %10llu %14.3f %12.3f\n", name.c_str(),
          static_cast<unsigned long long>(p.count), p.total_ms, p.max_ms);
    }
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

}  // namespace acdn
