#include "beacon/store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/radix.h"

namespace acdn {

namespace {

/// `log` in ascending `keys` order, ties in log order. Day-loop logs
/// arrive sorted (client-major, monotone beacon ids) and come back as
/// they are; any other log is stable-radix-sorted with its log positions
/// as payload and gathered into `sorted`. Stability is what keeps the
/// last DNS row of a url_id the winner and a beacon's HTTP rows — its
/// target order and metadata row — in log order.
template <typename Row>
std::span<const Row> in_key_order(std::span<const Row> log,
                                  std::vector<std::uint64_t>& keys,
                                  std::vector<Row>& sorted,
                                  ScratchArena& scratch) {
  if (std::is_sorted(keys.begin(), keys.end())) return log;
  auto pos = scratch.lease<std::uint32_t>("join.pos");
  pos->resize(log.size());
  std::iota(pos->begin(), pos->end(), 0u);
  radix_sort_pairs(std::span<std::uint64_t>(keys),
                   std::span<std::uint32_t>(*pos), &scratch);
  sorted.resize(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) sorted[i] = log[(*pos)[i]];
  return sorted;
}

}  // namespace

std::optional<Milliseconds> BeaconMeasurement::anycast_ms() const {
  for (const Target& t : targets) {
    if (t.anycast) return t.rtt_ms;
  }
  return std::nullopt;
}

std::optional<FrontEndId> BeaconMeasurement::anycast_front_end() const {
  for (const Target& t : targets) {
    if (t.anycast) return t.front_end;
  }
  return std::nullopt;
}

std::optional<BeaconMeasurement::Target> BeaconMeasurement::best_unicast()
    const {
  std::optional<Target> best;
  for (const Target& t : targets) {
    if (t.anycast) continue;
    if (!best || t.rtt_ms < best->rtt_ms) best = t;
  }
  return best;
}

void MeasurementStore::join(std::span<const DnsLogEntry> dns_log,
                            std::span<const HttpLogEntry> http_log, int) {
  const PhaseSpan join_phase("join");
  metric_count("join.dns_rows", dns_log.size());
  metric_count("join.http_rows", http_log.size());

  static const FailPoint store_fault("beacon/store");

  // Key columns: DNS by url_id, HTTP by beacon id (url_id / 4). Leased:
  // they stay live across the radix sorts' own scratch use below.
  auto dns_keys = scratch_.lease<std::uint64_t>("join.dns_key");
  auto http_keys = scratch_.lease<std::uint64_t>("join.http_key");
  dns_keys->resize(dns_log.size());
  for (std::size_t i = 0; i < dns_log.size(); ++i) {
    (*dns_keys)[i] = dns_log[i].url_id;
  }
  http_keys->resize(http_log.size());
  for (std::size_t i = 0; i < http_log.size(); ++i) {
    (*http_keys)[i] = http_log[i].url_id / 4;
  }
  auto dns_sorted = scratch_.lease<DnsLogEntry>("join.dns_sorted");
  auto http_sorted = scratch_.lease<HttpLogEntry>("join.http_sorted");
  const std::span<const DnsLogEntry> dns =
      in_key_order(dns_log, *dns_keys, *dns_sorted, scratch_);
  const std::span<const HttpLogEntry> http =
      in_key_order(http_log, *http_keys, *http_sorted, scratch_);

  // One merge pass over the HTTP side's beacon runs. Both sides ascend in
  // beacon id, so the DNS cursor only moves forward; a beacon's DNS rows
  // are the run with url_id in [4*beacon, 4*beacon + 4). The run count
  // also bounds the day's row reserve below.
  auto runs = scratch_.lease<std::uint32_t>("join.runs");
  for (std::size_t i = 0; i < http.size(); ++i) {
    if (i == 0 || (*http_keys)[i] != (*http_keys)[i - 1]) {
      runs->push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::size_t joined = 0;
  std::size_t orphan_http = 0;
  std::size_t stored_rows = 0;
  std::size_t stored_targets = 0;
  std::size_t dropped_rows = 0;
  std::size_t dropped_targets = 0;
  bool reserved = false;
  std::size_t d = 0;
  for (std::size_t r = 0; r < runs->size(); ++r) {
    const std::size_t h_begin = (*runs)[r];
    const std::size_t h_end =
        r + 1 < runs->size() ? (*runs)[r + 1] : http.size();
    const std::uint64_t beacon = (*http_keys)[h_begin];
    while (d < dns.size() && (*dns_keys)[d] < beacon * 4) ++d;
    std::size_t d_end = d;
    while (d_end < dns.size() && (*dns_keys)[d_end] < beacon * 4 + 4) {
      ++d_end;
    }
    bool opened = false;
    std::optional<Fault> fault;
    MeasurementColumns* dest = nullptr;  // null while the row is dropped
    for (std::size_t h = h_begin; h < h_end; ++h) {
      const HttpLogEntry& row = http[h];
      // Last matching DNS row wins. The run holds a handful of rows (four
      // fetches per beacon), so a scan beats any per-row search structure.
      const DnsLogEntry* match = nullptr;
      for (std::size_t k = d; k < d_end; ++k) {
        if ((*dns_keys)[k] == row.url_id) match = &dns[k];
      }
      if (match == nullptr) {
        ++orphan_http;  // unjoined fetch: drop
        continue;
      }
      ++joined;
      if (!opened) {
        // The first joined row fixes the measurement's metadata and day.
        // The day materializes before the fault decision, so a fully
        // dropped day still counts in days(). The "beacon/store" fail
        // point models ingestion failures keyed by (day, beacon id):
        // whole rows lost (drop/error) or RTTs mangled (delay/corrupt).
        opened = true;
        require(row.day >= 0, "measurement day must be non-negative");
        const auto day = static_cast<std::size_t>(row.day);
        if (day >= by_day_.size()) by_day_.resize(day + 1);
        dest = &by_day_[day];
        if (!reserved) {
          // The day loop's batches land on one day: reserve it for the
          // batch's upper bound once.
          dest->reserve(dest->size() + runs->size(),
                        dest->target_count() + http.size());
          reserved = true;
        }
        fault = store_fault.fire(row.day, beacon);
        if (fault && (fault->kind == FaultKind::kDrop ||
                      fault->kind == FaultKind::kError)) {
          dest = nullptr;
          ++dropped_rows;
        } else {
          dest->append_row(beacon, row.client, match->ldns, row.day,
                           row.hour);
          ++stored_rows;
        }
      }
      if (dest == nullptr) {
        ++dropped_targets;
        continue;
      }
      Milliseconds rtt = row.rtt_ms;
      if (fault) {  // kDelay / kCorrupt: ingestion skews the stored RTT
        if (fault->kind == FaultKind::kDelay) {
          rtt += fault->magnitude;
        } else {
          rtt *= 1.0 + fault->magnitude;
        }
      }
      dest->append_target(row.anycast, row.front_end, rtt);
      ++stored_targets;
    }
    d = d_end;
  }

  std::size_t distinct_urls = 0;
  for (std::size_t k = 0; k < dns.size(); ++k) {
    if (k == 0 || (*dns_keys)[k] != (*dns_keys)[k - 1]) ++distinct_urls;
  }
  metric_count("join.orphan_http", orphan_http);
  // URL ids are unique per fetch, so every joined HTTP row consumes a
  // distinct DNS url; the remainder never matched.
  metric_count("join.orphan_dns", distinct_urls - joined);
  metric_count("join.measurements", stored_rows + dropped_rows);
  // Conservation ledger (chaos invariants): per join call,
  //   http_rows    == joined_targets + orphan_http
  //   distinct_dns == joined_targets + orphan_dns
  //   joined_targets == stored_targets + dropped_targets
  metric_count("join.joined_targets", joined);
  metric_count("join.distinct_dns", distinct_urls);
  metric_count("join.stored_rows", stored_rows);
  metric_count("join.stored_targets", stored_targets);
  metric_count("join.dropped_rows", dropped_rows);
  metric_count("join.dropped_targets", dropped_targets);
}

void MeasurementStore::add(BeaconMeasurement measurement) {
  require(measurement.day >= 0, "measurement day must be non-negative");
  if (static_cast<std::size_t>(measurement.day) >= by_day_.size()) {
    by_day_.resize(static_cast<std::size_t>(measurement.day) + 1);
  }
  by_day_[static_cast<std::size_t>(measurement.day)].push_back(measurement);
}

const MeasurementColumns& MeasurementStore::columns(DayIndex day) const {
  static const MeasurementColumns kEmpty;
  if (day < 0 || static_cast<std::size_t>(day) >= by_day_.size()) {
    return kEmpty;
  }
  return by_day_[static_cast<std::size_t>(day)];
}

std::vector<BeaconMeasurement> MeasurementStore::by_day(DayIndex day) const {
  return columns(day).rows();
}

MeasurementColumns MeasurementStore::take_day(DayIndex day) {
  if (day < 0 || static_cast<std::size_t>(day) >= by_day_.size()) return {};
  return std::exchange(by_day_[static_cast<std::size_t>(day)],
                       MeasurementColumns{});
}

void MeasurementStore::put_day(DayIndex day, MeasurementColumns&& columns) {
  require(day >= 0, "measurement day must be non-negative");
  if (static_cast<std::size_t>(day) >= by_day_.size()) {
    by_day_.resize(static_cast<std::size_t>(day) + 1);
  }
  MeasurementColumns& dest = by_day_[static_cast<std::size_t>(day)];
  if (dest.empty()) {
    dest = std::move(columns);
  } else {
    dest.append_all(columns);
  }
}

std::size_t MeasurementStore::total() const {
  std::size_t n = 0;
  for (const auto& v : by_day_) n += v.size();
  return n;
}

void PassiveLog::add(PassiveLogEntry entry) {
  require(entry.day >= 0, "log day must be non-negative");
  if (static_cast<std::size_t>(entry.day) >= by_day_.size()) {
    by_day_.resize(static_cast<std::size_t>(entry.day) + 1);
  }
  by_day_[static_cast<std::size_t>(entry.day)].push_back(entry);
}

std::span<const PassiveLogEntry> PassiveLog::by_day(DayIndex day) const {
  if (day < 0 || static_cast<std::size_t>(day) >= by_day_.size()) return {};
  return by_day_[static_cast<std::size_t>(day)];
}

std::size_t PassiveLog::total() const {
  std::size_t n = 0;
  for (const auto& v : by_day_) n += v.size();
  return n;
}

}  // namespace acdn
