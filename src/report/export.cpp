#include "report/export.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/error.h"

namespace acdn {

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  // The exporters only emit unquoted numeric fields, so a plain split is
  // sufficient (and rejects quoted content as malformed numbers later).
  std::vector<std::string> out;
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, ',')) out.push_back(field);
  return out;
}

/// Reads a double field as the writer writes it: the whole field must be
/// std::from_chars text, which ignores the locale and rejects leading
/// space, a '+' sign and hex floats.
double parse_double(const std::string& s) {
  const char* const end = s.data() + s.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw Error("export: malformed numeric field '" + s + "'");
  }
  return v;
}

/// Integer fields below this are written as the to_chars text of a
/// double, which holds them exactly (pinned output digests hold this
/// form); from here on as exact digits, because a double no longer holds
/// every integer.
constexpr std::uint64_t kDoubleFormLimit = std::uint64_t(1) << 53;

char* format_integer(char* out, std::uint64_t v) {
  if (v < kDoubleFormLimit) return CsvWriter::format_number(out, double(v));
  return std::to_chars(out, out + CsvWriter::kMaxNumberChars, v).ptr;
}

/// Reads an integer field in either form format_integer writes: plain
/// digits, or the shortest to_chars text of a finite, integral double
/// below 2^53. So "7.036928e+13" reads as 70369280000000, while "1.5" and
/// "7.0369280000000001e+13" (which only rounds to an integer) are
/// rejected.
std::uint64_t parse_u64(const std::string& s) {
  const char* const begin = s.data();
  const char* const end = begin + s.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec == std::errc{} && ptr == end) return v;
  double d = 0.0;
  const auto [dptr, dec] = std::from_chars(begin, end, d);
  bool exact = dec == std::errc{} && dptr == end && d >= 0.0 &&
               d < double(kDoubleFormLimit) && d == std::floor(d);
  if (exact) {
    char text[CsvWriter::kMaxNumberChars];
    exact = std::string_view(text, CsvWriter::format_number(text, d)) == s;
  }
  require(exact, "export: malformed integer field '" + s + "'");
  return static_cast<std::uint64_t>(d);
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("export: cannot open " + path);
  return in;
}

}  // namespace

void export_passive_log(const PassiveLog& log, const std::string& path) {
  CsvWriter csv(path);
  csv.write_header({"day", "client", "front_end", "queries"});
  for (DayIndex d = 0; d < log.days(); ++d) {
    for (const PassiveLogEntry& e : log.by_day(d)) {
      const double row[] = {double(e.day), double(e.client.value),
                            double(e.front_end.value), e.queries};
      csv.write_row(row);
    }
  }
  csv.flush();
}

PassiveLog import_passive_log(const std::string& path) {
  std::ifstream in = open_or_throw(path);
  std::string line;
  require(static_cast<bool>(std::getline(in, line)), "export: empty file");
  require(line == "day,client,front_end,queries",
          "export: unexpected passive log header: " + line);
  PassiveLog log;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    require(fields.size() == 4, "export: bad passive row: " + line);
    PassiveLogEntry entry;
    entry.day = static_cast<DayIndex>(parse_u64(fields[0]));
    entry.client = ClientId(static_cast<std::uint32_t>(parse_u64(fields[1])));
    entry.front_end =
        FrontEndId(static_cast<std::uint32_t>(parse_u64(fields[2])));
    entry.queries = parse_double(fields[3]);
    log.add(entry);
  }
  return log;
}

void export_measurements(const MeasurementStore& store,
                         const std::string& path) {
  CsvWriter csv(path);
  csv.write_header({"beacon_id", "day", "hour", "client", "ldns", "anycast",
                    "front_end", "rtt_ms"});
  // A beacon's five shared fields are formatted once; each of its target
  // rows repeats that text.
  char leading[5 * (CsvWriter::kMaxNumberChars + 1)];
  for (DayIndex d = 0; d < store.days(); ++d) {
    const MeasurementColumns& cols = store.columns(d);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      char* p = format_integer(leading, cols.beacon_id[i]);
      for (const double v : {double(cols.day[i]), cols.hour[i],
                             double(cols.client[i].value),
                             double(cols.ldns[i].value)}) {
        *p++ = ',';
        p = CsvWriter::format_number(p, v);
      }
      const std::string_view beacon(leading, std::size_t(p - leading));
      for (std::size_t t = cols.row_targets_begin(i);
           t < cols.row_targets_end(i); ++t) {
        const bool anycast = cols.target_anycast[t] != 0;
        const double target[] = {
            anycast ? 1.0 : 0.0,
            anycast ? 0.0 : double(cols.target_front_end[t]),
            cols.target_rtt[t]};
        csv.write_row(beacon, target);
      }
    }
  }
  csv.flush();
}

MeasurementStore import_measurements(const std::string& path) {
  std::ifstream in = open_or_throw(path);
  std::string line;
  require(static_cast<bool>(std::getline(in, line)), "export: empty file");
  require(line ==
              "beacon_id,day,hour,client,ldns,anycast,front_end,rtt_ms",
          "export: unexpected measurement header: " + line);

  // Rebuild beacons by id, preserving day grouping.
  std::map<std::uint64_t, BeaconMeasurement> beacons;
  std::vector<std::uint64_t> order;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    require(fields.size() == 8, "export: bad measurement row: " + line);
    const std::uint64_t beacon_id = parse_u64(fields[0]);
    auto it = beacons.find(beacon_id);
    if (it == beacons.end()) {
      BeaconMeasurement m;
      m.beacon_id = beacon_id;
      m.day = static_cast<DayIndex>(parse_u64(fields[1]));
      m.hour = parse_double(fields[2]);
      m.client = ClientId(static_cast<std::uint32_t>(parse_u64(fields[3])));
      m.ldns = LdnsId(static_cast<std::uint32_t>(parse_u64(fields[4])));
      it = beacons.emplace(beacon_id, std::move(m)).first;
      order.push_back(beacon_id);
    }
    BeaconMeasurement::Target target;
    target.anycast = parse_u64(fields[5]) != 0;
    target.front_end = target.anycast
                           ? FrontEndId{}
                           : FrontEndId(static_cast<std::uint32_t>(
                                 parse_u64(fields[6])));
    target.rtt_ms = parse_double(fields[7]);
    it->second.targets.push_back(target);
  }

  MeasurementStore store;
  for (std::uint64_t id : order) store.add(std::move(beacons.at(id)));
  return store;
}

}  // namespace acdn
