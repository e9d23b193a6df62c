#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "beacon/columns.h"
#include "beacon/store.h"
#include "common/arena.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "sim/scenario.h"
#include "sim/simulation.h"
#include "sim/world.h"

namespace acdn {
namespace {

// ------------------------------------------------------------ test helpers

void expect_measurement_eq(const BeaconMeasurement& a,
                           const BeaconMeasurement& b) {
  EXPECT_EQ(a.beacon_id, b.beacon_id);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.ldns, b.ldns);
  EXPECT_EQ(a.day, b.day);
  EXPECT_DOUBLE_EQ(a.hour, b.hour);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (std::size_t t = 0; t < a.targets.size(); ++t) {
    EXPECT_EQ(a.targets[t].anycast, b.targets[t].anycast);
    EXPECT_EQ(a.targets[t].front_end, b.targets[t].front_end);
    EXPECT_DOUBLE_EQ(a.targets[t].rtt_ms, b.targets[t].rtt_ms);
  }
}

void expect_measurements_eq(std::span<const BeaconMeasurement> a,
                            std::span<const BeaconMeasurement> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("measurement " + std::to_string(i));
    expect_measurement_eq(a[i], b[i]);
  }
}

BeaconMeasurement sample_measurement(std::uint64_t beacon_id,
                                     std::size_t targets) {
  BeaconMeasurement m;
  m.beacon_id = beacon_id;
  m.client = ClientId(std::uint32_t(beacon_id % 97));
  m.ldns = LdnsId(std::uint32_t(beacon_id % 11));
  m.day = DayIndex(beacon_id % 3);
  m.hour = double(beacon_id % 24) + 0.5;
  for (std::size_t t = 0; t < targets; ++t) {
    m.targets.push_back({t == 0, FrontEndId(std::uint32_t(t)),
                         10.0 + double(t)});
  }
  return m;
}

// ------------------------------------------------------ MeasurementColumns

TEST(MeasurementColumns, RowRoundTrip) {
  std::vector<BeaconMeasurement> rows;
  rows.push_back(sample_measurement(4, 4));
  rows.push_back(sample_measurement(7, 0));  // no joined fetches
  rows.push_back(sample_measurement(9, 2));

  MeasurementColumns cols;
  cols.reserve(rows.size(), 6);
  for (const BeaconMeasurement& m : rows) cols.push_back(m);

  EXPECT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols.target_count(), 6u);
  EXPECT_EQ(cols.row_targets_begin(1), cols.row_targets_end(1));
  expect_measurements_eq(cols.rows(), rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    expect_measurement_eq(cols.row(i), rows[i]);
  }
}

TEST(MeasurementColumns, ClearRetainsCapacity) {
  MeasurementColumns cols;
  for (std::uint64_t b = 0; b < 32; ++b) {
    cols.push_back(sample_measurement(b, 4));
  }
  const std::size_t row_cap = cols.beacon_id.capacity();
  const std::size_t target_cap = cols.target_rtt.capacity();
  cols.clear();
  EXPECT_TRUE(cols.empty());
  EXPECT_EQ(cols.target_count(), 0u);
  EXPECT_EQ(cols.beacon_id.capacity(), row_cap);
  EXPECT_EQ(cols.target_rtt.capacity(), target_cap);
}

TEST(MeasurementColumns, AppendFromCopiesOneRow) {
  MeasurementColumns src;
  src.push_back(sample_measurement(3, 2));
  src.push_back(sample_measurement(5, 4));

  MeasurementColumns dst;
  dst.append_from(src, 1);
  ASSERT_EQ(dst.size(), 1u);
  expect_measurement_eq(dst.row(0), src.row(1));
}

// ------------------------------------------------------------ ScratchArena

TEST(ScratchArena, ReusesStorageAndClearsOnBuffer) {
  ScratchArena arena;
  std::vector<int>& first = arena.buffer<int>("ids");
  first.assign(100, 7);
  const std::size_t warm = arena.capacity_bytes();
  EXPECT_GE(warm, 100 * sizeof(int));
  EXPECT_EQ(arena.buffer_count(), 1u);

  std::vector<int>& again = arena.buffer<int>("ids");
  EXPECT_EQ(&again, &first);   // same slot, same storage
  EXPECT_TRUE(again.empty());  // buffer() clears contents
  EXPECT_EQ(arena.capacity_bytes(), warm);

  again.assign(50, 1);
  std::vector<int>& raw = arena.raw_buffer<int>("ids");
  EXPECT_EQ(&raw, &first);
  EXPECT_EQ(raw.size(), 50u);  // raw_buffer() keeps contents

  // Same id, different element type: a distinct slot.
  std::vector<double>& other = arena.buffer<double>("ids");
  EXPECT_EQ(arena.buffer_count(), 2u);
  other.push_back(1.0);

  arena.release();
  EXPECT_EQ(arena.buffer_count(), 0u);
  EXPECT_EQ(arena.capacity_bytes(), 0u);
}

TEST(ScratchArena, CopyStartsCold) {
  ScratchArena arena;
  arena.buffer<int>("x").assign(10, 1);
  const ScratchArena copy(arena);
  EXPECT_EQ(copy.capacity_bytes(), 0u);
  EXPECT_GT(arena.capacity_bytes(), 0u);
}

// ------------------------------------------------- sort-merge join property

struct Logs {
  std::vector<DnsLogEntry> dns;
  std::vector<HttpLogEntry> http;
};

/// Random logs with duplicate DNS rows, duplicate fetches, and orphans on
/// both sides, shuffled so log order and key order disagree.
Logs make_random_logs(std::size_t beacons, std::uint64_t seed,
                      DayIndex day_lo, DayIndex day_hi) {
  Rng rng(seed);
  Logs logs;
  for (std::uint64_t b = 1; b <= beacons; ++b) {
    const auto day = DayIndex(rng.uniform_int(day_lo, day_hi));
    const ClientId client(std::uint32_t(rng.uniform_int(0, 49)));
    const double hour = rng.uniform(0.0, 24.0);
    for (std::uint64_t k = 0; k < 4; ++k) {
      const std::uint64_t url = b * 4 + k;
      if (rng.uniform() < 0.85) {
        logs.dns.push_back(
            {url, LdnsId(std::uint32_t(rng.uniform_int(0, 9))), day});
        if (rng.uniform() < 0.15) {  // duplicate DNS row: later one wins
          logs.dns.push_back(
              {url, LdnsId(std::uint32_t(rng.uniform_int(0, 9))), day});
        }
      }
      if (rng.uniform() < 0.85) {
        HttpLogEntry h;
        h.url_id = url;
        h.client = client;
        h.anycast = (k == 0);
        h.front_end = FrontEndId(std::uint32_t(rng.uniform_int(0, 7)));
        h.rtt_ms = rng.uniform(5.0, 120.0);
        h.day = day;
        h.hour = hour;
        logs.http.push_back(h);
        if (rng.uniform() < 0.1) {  // the same URL fetched twice
          h.rtt_ms = rng.uniform(5.0, 120.0);
          logs.http.push_back(h);
        }
      }
    }
  }
  rng.shuffle(logs.dns);
  rng.shuffle(logs.http);
  return logs;
}

/// Single-threaded reference join with the pre-sort-merge semantics: last
/// DNS row per url wins, targets keep HTTP scan order, beacon metadata
/// comes from its first joined HTTP row, output ascends by beacon id.
std::vector<std::vector<BeaconMeasurement>> reference_join(
    std::span<const DnsLogEntry> dns_log,
    std::span<const HttpLogEntry> http_log) {
  std::map<std::uint64_t, LdnsId> dns_by_url;
  for (const DnsLogEntry& e : dns_log) dns_by_url[e.url_id] = e.ldns;

  std::map<std::uint64_t, BeaconMeasurement> beacons;
  for (const HttpLogEntry& h : http_log) {
    const auto dns = dns_by_url.find(h.url_id);
    if (dns == dns_by_url.end()) continue;  // orphan HTTP row
    const auto [it, inserted] = beacons.try_emplace(h.url_id / 4);
    if (inserted) {
      it->second.beacon_id = h.url_id / 4;
      it->second.client = h.client;
      it->second.ldns = dns->second;
      it->second.day = h.day;
      it->second.hour = h.hour;
    }
    it->second.targets.push_back({h.anycast, h.front_end, h.rtt_ms});
  }

  std::vector<std::vector<BeaconMeasurement>> by_day;
  for (const auto& [id, m] : beacons) {
    if (std::size_t(m.day) >= by_day.size()) {
      by_day.resize(std::size_t(m.day) + 1);
    }
    by_day[std::size_t(m.day)].push_back(m);
  }
  return by_day;
}

/// `logs` stable-sorted by join key — DNS by url_id, HTTP by beacon id
/// (url_id / 4) — the shape the day loop hands join(), which then skips
/// the sort. Stability keeps each key's rows in log order.
Logs sorted_copy(const Logs& logs) {
  Logs out = logs;
  std::stable_sort(out.dns.begin(), out.dns.end(),
                   [](const DnsLogEntry& a, const DnsLogEntry& b) {
                     return a.url_id < b.url_id;
                   });
  std::stable_sort(out.http.begin(), out.http.end(),
                   [](const HttpLogEntry& a, const HttpLogEntry& b) {
                     return a.url_id / 4 < b.url_id / 4;
                   });
  return out;
}

void expect_store_matches(
    const MeasurementStore& store,
    const std::vector<std::vector<BeaconMeasurement>>& expected) {
  ASSERT_EQ(std::size_t(store.days()), expected.size());
  for (DayIndex d = 0; d < store.days(); ++d) {
    SCOPED_TRACE("day=" + std::to_string(d));
    expect_measurements_eq(store.by_day(d), expected[std::size_t(d)]);
  }
}

void expect_join_matches_reference(const Logs& logs) {
  MeasurementStore store;
  store.join(logs.dns, logs.http);
  expect_store_matches(store, reference_join(logs.dns, logs.http));
}

/// Column-for-column equality, RTTs and hours compared as raw bits.
void expect_columns_bit_equal(const MeasurementColumns& a,
                              const MeasurementColumns& b) {
  EXPECT_EQ(a.beacon_id, b.beacon_id);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.ldns, b.ldns);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.target_begin, b.target_begin);
  EXPECT_EQ(a.target_anycast, b.target_anycast);
  EXPECT_EQ(a.target_front_end, b.target_front_end);
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    out.reserve(v.size());
    for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  EXPECT_EQ(bits(a.hour), bits(b.hour));
  EXPECT_EQ(bits(a.target_rtt), bits(b.target_rtt));
}

TEST(SortMergeJoin, MatchesReferenceJoinUniformDay) {
  expect_join_matches_reference(make_random_logs(300, 0x5eed, 0, 0));
}

TEST(SortMergeJoin, MatchesReferenceJoinMixedDays) {
  expect_join_matches_reference(make_random_logs(300, 0xfeed, 0, 2));
}

TEST(SortMergeJoin, MatchesReferenceJoinSmallAndSparse) {
  // Few beacons relative to shard count: some shards stay empty.
  expect_join_matches_reference(make_random_logs(5, 0xabcd, 0, 1));
}

TEST(SortMergeJoin, PresortedLogsMatchReference) {
  // Presorted logs take the sort-skip branch; they must join exactly as
  // the original log order does.
  for (const auto& [seed, day_hi] :
       {std::pair<std::uint64_t, DayIndex>{0x5eed, 0}, {0xfeed, 2}}) {
    SCOPED_TRACE("day_hi=" + std::to_string(day_hi));
    const Logs logs = make_random_logs(300, seed, 0, day_hi);
    const Logs sorted = sorted_copy(logs);
    MeasurementStore store;
    store.join(sorted.dns, sorted.http);
    expect_store_matches(store, reference_join(logs.dns, logs.http));
  }
}

TEST(SortMergeJoin, EmptyLogsProduceNoDays) {
  MeasurementStore store;
  store.join({}, {}, 4);
  EXPECT_EQ(store.days(), 0);
  EXPECT_EQ(store.total(), 0u);
}

// ----------------------------------------- fault-drop conservation property

/// Per-join counter deltas under an armed beacon/store drop schedule.
std::map<std::string, std::uint64_t> join_counters(MeasurementStore& store,
                                                   const Logs& logs,
                                                   int threads) {
  MetricsRegistry::global().reset();
  store.join(logs.dns, logs.http, threads);
  return MetricsRegistry::global().snapshot().counters;
}

TEST(SortMergeJoin, FaultDropAccountingBalancesPerDayAcrossThreads) {
  // One Logs batch per simulated day, the way the day loop drives join().
  std::vector<Logs> days;
  for (std::uint64_t d = 0; d < 3; ++d) {
    days.push_back(make_random_logs(200, 0xd00d + d, DayIndex(d),
                                    DayIndex(d)));
  }
  FaultSchedule schedule;
  schedule.seed = 42;
  schedule.rules = {{"beacon/store", FaultKind::kDrop, 0.3, 0,
                     kFaultWindowOpen, 0.0}};

  set_metrics_enabled(true);
  std::vector<std::vector<std::map<std::string, std::uint64_t>>> per_run;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FailPointRegistry::global().arm(schedule);
    MeasurementStore store;
    std::vector<std::map<std::string, std::uint64_t>> per_day;
    for (const Logs& logs : days) {
      auto c = join_counters(store, logs, threads);
      // executor.* scales with the thread count by design; the ledger
      // comparison below is about join/fault accounting only.
      std::erase_if(c, [](const auto& kv) {
        return kv.first.rfind("executor.", 0) == 0;
      });
      const auto v = [&](const char* name) {
        const auto it = c.find(name);
        return it == c.end() ? std::uint64_t{0} : it->second;
      };
      // Exact per-day ledger: every HTTP row joins or orphans, every
      // joined target (and row) is stored or dropped by the fault.
      EXPECT_EQ(v("join.http_rows"),
                v("join.joined_targets") + v("join.orphan_http"));
      EXPECT_EQ(v("join.distinct_dns"),
                v("join.joined_targets") + v("join.orphan_dns"));
      EXPECT_EQ(v("join.joined_targets"),
                v("join.stored_targets") + v("join.dropped_targets"));
      EXPECT_EQ(v("join.measurements"),
                v("join.stored_rows") + v("join.dropped_rows"));
      EXPECT_GT(v("join.dropped_rows"), 0u);  // p=0.3 on ~200 beacons
      EXPECT_EQ(v("join.dropped_rows"), v("fault.fired.beacon/store"));
      per_day.push_back(std::move(c));
    }
    FailPointRegistry::global().disarm();
    per_run.push_back(std::move(per_day));
  }
  set_metrics_enabled(false);
  MetricsRegistry::global().reset();

  // The ledger — including which rows were injected-dropped — is
  // identical for 1, 2, and 8 threads.
  for (std::size_t run = 1; run < per_run.size(); ++run) {
    for (std::size_t d = 0; d < per_run[run].size(); ++d) {
      EXPECT_EQ(per_run[run][d], per_run[0][d])
          << "run " << run << " day " << d;
    }
  }
}

/// join.* and fault.fired.* counters of one join call.
std::map<std::string, std::uint64_t> ledger_of(MeasurementStore& store,
                                               const Logs& logs) {
  auto c = join_counters(store, logs, 1);
  std::erase_if(c, [](const auto& kv) {
    return kv.first.rfind("join.", 0) != 0 &&
           kv.first.rfind("fault.fired.", 0) != 0;
  });
  return c;
}

TEST(SortMergeJoin, SortedAndShuffledAgreeUnderFaults) {
  // Drop on day 0, delay on day 1, corrupt on day 2, one batch per day.
  // The shuffled logs take the radix-sort branch, their sorted copy the
  // sort-skip branch; faults fire inside the one merge loop either way.
  FaultSchedule schedule;
  schedule.seed = 7;
  schedule.rules = {{"beacon/store", FaultKind::kDrop, 0.3, 0, 0, 0.0},
                    {"beacon/store", FaultKind::kDelay, 0.5, 1, 1, 25.0},
                    {"beacon/store", FaultKind::kCorrupt, 0.5, 2, 2, 0.5}};
  std::vector<Logs> shuffled;
  std::vector<Logs> sorted;
  for (std::uint64_t d = 0; d < 3; ++d) {
    shuffled.push_back(
        make_random_logs(400, 0xface + d, DayIndex(d), DayIndex(d)));
    sorted.push_back(sorted_copy(shuffled.back()));
  }

  set_metrics_enabled(true);
  const auto run = [&](const std::vector<Logs>& days, MeasurementStore& store) {
    FailPointRegistry::global().arm(schedule);
    std::vector<std::map<std::string, std::uint64_t>> per_day;
    for (const Logs& logs : days) per_day.push_back(ledger_of(store, logs));
    FailPointRegistry::global().disarm();
    return per_day;
  };
  MeasurementStore from_shuffled;
  MeasurementStore from_sorted;
  const auto shuffled_ledger = run(shuffled, from_shuffled);
  const auto sorted_ledger = run(sorted, from_sorted);
  set_metrics_enabled(false);
  MetricsRegistry::global().reset();

  const auto v = [&](std::size_t day, const char* name) {
    const auto it = shuffled_ledger[day].find(name);
    return it == shuffled_ledger[day].end() ? std::uint64_t{0} : it->second;
  };
  ASSERT_EQ(shuffled_ledger.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    SCOPED_TRACE("day=" + std::to_string(d));
    EXPECT_EQ(shuffled_ledger[d], sorted_ledger[d]);
    EXPECT_GT(v(d, "fault.fired.beacon/store"), 0u);
  }
  EXPECT_GT(v(0, "join.dropped_rows"), 0u);
  EXPECT_EQ(v(1, "join.dropped_rows"), 0u);
  EXPECT_EQ(v(2, "join.dropped_rows"), 0u);
  ASSERT_EQ(from_shuffled.days(), 3);
  ASSERT_EQ(from_sorted.days(), 3);
  for (DayIndex d = 0; d < 3; ++d) {
    SCOPED_TRACE("day=" + std::to_string(d));
    expect_columns_bit_equal(from_shuffled.columns(d), from_sorted.columns(d));
  }
}

TEST(SortMergeJoin, FullyDroppedDayStillMaterialises) {
  // The day exists once a row joins, even when the fault drops every row.
  FaultSchedule schedule;
  schedule.seed = 1;
  schedule.rules = {{"beacon/store", FaultKind::kDrop, 1.0, 0,
                     kFaultWindowOpen, 0.0}};
  const Logs logs = make_random_logs(50, 0xd0d0, 2, 2);
  FailPointRegistry::global().arm(schedule);
  MeasurementStore store;
  store.join(logs.dns, logs.http);
  FailPointRegistry::global().disarm();
  EXPECT_EQ(store.days(), 3);
  EXPECT_EQ(store.total(), 0u);
}

// -------------------------------------------------------------- arena reuse

TEST(ArenaReuse, SecondJoinReusesScratchAndMatchesFirst) {
  const Logs logs = make_random_logs(200, 0x1234, 0, 0);
  MeasurementStore store;
  store.join(logs.dns, logs.http, 4);
  const std::size_t warm = store.scratch_capacity_bytes();
  EXPECT_GT(warm, 0u);
  const std::size_t rows = store.by_day(0).size();

  // Joining the same logs again appends an identical block to day 0 and
  // allocates no new scratch.
  store.join(logs.dns, logs.http, 4);
  EXPECT_EQ(store.scratch_capacity_bytes(), warm);
  const auto all = store.by_day(0);
  ASSERT_EQ(all.size(), 2 * rows);
  expect_measurements_eq(
      std::span<const BeaconMeasurement>(all.data(), rows),
      std::span<const BeaconMeasurement>(all.data() + rows, rows));
}

TEST(ArenaReuse, WarmArenaJoinIsByteIdenticalToColdJoin) {
  const Logs first = make_random_logs(150, 0x1111, 0, 0);
  const Logs second = make_random_logs(220, 0x2222, 1, 2);

  MeasurementStore cold;
  cold.join(second.dns, second.http, 4);

  MeasurementStore warm;
  warm.join(first.dns, first.http, 4);  // warms the arena with other data
  warm.join(second.dns, second.http, 4);

  ASSERT_EQ(warm.days(), 3);
  for (DayIndex d = 1; d <= 2; ++d) {
    SCOPED_TRACE("day=" + std::to_string(d));
    expect_measurements_eq(warm.by_day(d), cold.by_day(d));
  }
}

TEST(ArenaReuse, RunDayScratchStabilizesAcrossDays) {
  World world(ScenarioConfig::small_test());
  Simulation sim(world);
  std::vector<std::size_t> caps;
  for (int d = 0; d < 6; ++d) {
    sim.run_day();
    caps.push_back(sim.scratch_capacity_bytes());
  }
  EXPECT_GT(caps.front(), 0u);
  // The arena only ever grows to the largest day seen; it never thrashes.
  for (std::size_t i = 1; i < caps.size(); ++i) {
    EXPECT_GE(caps[i], caps[i - 1]) << "day " << i;
  }
  // Steady state: later days run inside already-reserved capacity.
  bool reused = false;
  for (std::size_t i = 1; i < caps.size(); ++i) {
    reused = reused || caps[i] == caps[i - 1];
  }
  EXPECT_TRUE(reused);
}

}  // namespace
}  // namespace acdn
