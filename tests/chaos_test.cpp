// Chaos harness (fault-injection tentpole): full small-world scenarios run
// under an armed fault schedule — front-end outages, a BGP reset/withdrawal
// burst, LDNS errors, beacon sample loss, and store drops — asserting the
// global invariants the subsystem promises:
//
//   * no crash, and the pipeline still produces measurements,
//   * byte-identical results for any thread count and across reruns,
//   * exact conservation of measurement counts through the join under
//     injected drops,
//   * the run manifest records the exact schedule and per-point trigger
//     counts, equal to the "fault.fired.*" metrics counters.
//
// All suites here are named Chaos* so the CI chaos leg can run exactly
// this wall with `ctest -R Chaos`. The fault seed is overridable via
// ACDN_CHAOS_SEED (the CI leg runs three fixed seeds); tests whose
// assertions depend on specific faults actually firing use their own
// pinned seeds instead.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "report/run_report.h"
#include "sim/scenario.h"
#include "sim/simulation.h"
#include "sim/world.h"

namespace acdn {
namespace {

constexpr int kChaosDays = 3;

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("ACDN_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xc4a05u;
}

/// The acceptance schedule: a persistent low-rate front-end outage, a
/// mid-run BGP session-reset + withdrawal burst, LDNS errors, 10% beacon
/// sample loss, and store-side drops.
FaultSchedule chaos_schedule(std::uint64_t fault_seed) {
  FaultSchedule schedule;
  schedule.seed = fault_seed;
  schedule.rules = {
      {"cdn/front_end", FaultKind::kError, 0.05, 0, kFaultWindowOpen, 0.0},
      {"bgp/session", FaultKind::kError, 0.5, 1, 2, 0.0},
      {"bgp/withdrawal", FaultKind::kDrop, 0.25, 1, 2, 0.0},
      {"dns/resolve", FaultKind::kError, 0.05, 0, kFaultWindowOpen, 0.0},
      {"beacon/http_fetch", FaultKind::kDrop, 0.10, 0, kFaultWindowOpen,
       0.0},
      {"beacon/store", FaultKind::kDrop, 0.05, 0, kFaultWindowOpen, 0.0},
  };
  return schedule;
}

std::uint64_t mix_into(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Order-sensitive digest of every stored measurement field; two stores
/// with the same digest hold byte-identical data in identical order.
std::uint64_t store_digest(const MeasurementStore& store) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (DayIndex d = 0; d < store.days(); ++d) {
    for (const BeaconMeasurement& m : store.by_day(d)) {
      h = mix_into(h, m.beacon_id);
      h = mix_into(h, m.client.value);
      h = mix_into(h, m.ldns.value);
      h = mix_into(h, static_cast<std::uint64_t>(m.day));
      h = mix_into(h, std::bit_cast<std::uint64_t>(m.hour));
      for (const BeaconMeasurement::Target& t : m.targets) {
        h = mix_into(h, t.anycast ? 1u : 0u);
        h = mix_into(h, t.front_end.value);
        h = mix_into(h, std::bit_cast<std::uint64_t>(t.rtt_ms));
      }
    }
  }
  return h;
}

struct ChaosRun {
  std::uint64_t digest = 0;
  std::size_t measurements = 0;
  std::map<std::string, std::uint64_t> trigger_counts;
  MetricsSnapshot metrics;
};

/// One full scenario under the given schedule. Leaves the process-wide
/// registries clean (metrics off and reset, fail points disarmed).
ChaosRun run_chaos_with(int threads, FaultSchedule schedule) {
  MetricsRegistry::global().reset();
  set_metrics_enabled(true);

  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = threads;
  config.faults = std::move(schedule);
  World world(config);  // arms the schedule
  Simulation sim(world);
  sim.run_days(kChaosDays);

  ChaosRun run;
  run.digest = store_digest(sim.measurements());
  run.measurements = sim.measurements().total();
  run.trigger_counts = FailPointRegistry::global().trigger_counts();
  run.metrics = MetricsRegistry::global().snapshot();

  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
  FailPointRegistry::global().disarm();
  return run;
}

ChaosRun run_chaos(int threads, std::uint64_t fault_seed) {
  return run_chaos_with(threads, chaos_schedule(fault_seed));
}

std::uint64_t counter_or_zero(const MetricsSnapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0u : it->second;
}

/// Each histogram's sample count by name: the deterministic part of a
/// histogram (its P² quantiles are not).
std::map<std::string, std::uint64_t> histogram_counts(
    const MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [name, stats] : snap.histograms) counts[name] = stats.count;
  return counts;
}

TEST(Chaos, ScenarioUnderFaultsCompletesAndFires) {
  const ChaosRun run = run_chaos(2, chaos_seed());
  // Degraded, not dead: measurements still flow under 10% beacon loss.
  EXPECT_GT(run.measurements, 0u);
  std::uint64_t total_fired = 0;
  for (const auto& [point, count] : run.trigger_counts) total_fired += count;
  EXPECT_GT(total_fired, 0u);
  // The highest-rate rule cannot plausibly sit out a three-day run.
  EXPECT_GT(run.trigger_counts.at("beacon/http_fetch"), 0u);
}

TEST(Chaos, DigestsIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = chaos_seed();
  const ChaosRun one = run_chaos(1, seed);
  const ChaosRun two = run_chaos(2, seed);
  const ChaosRun eight = run_chaos(8, seed);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.measurements, eight.measurements);
  // The injected schedule itself is thread-count independent too: every
  // decision coordinate is simulation state, never thread identity.
  EXPECT_EQ(one.trigger_counts, two.trigger_counts);
  EXPECT_EQ(one.trigger_counts, eight.trigger_counts);
  // So are the manifest's deterministic metric sections: counters, gauges
  // and histogram names and counts. Quantiles and phase timings are not.
  for (const ChaosRun* other : {&two, &eight}) {
    EXPECT_EQ(one.metrics.counters, other->metrics.counters);
    EXPECT_EQ(one.metrics.gauges, other->metrics.gauges);
    EXPECT_EQ(histogram_counts(one.metrics),
              histogram_counts(other->metrics));
  }
}

TEST(Chaos, RepeatedRunsAreByteIdentical) {
  const std::uint64_t seed = chaos_seed();
  const ChaosRun first = run_chaos(3, seed);
  const ChaosRun second = run_chaos(3, seed);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.trigger_counts, second.trigger_counts);
  EXPECT_EQ(first.metrics.counters, second.metrics.counters);
}

TEST(Chaos, DifferentFaultSeedsUseTheSameScheduleShape) {
  // Changing only faults.seed re-rolls every decision but keeps the
  // config digest: the schedule shapes the world, the seed does not.
  ScenarioConfig a = ScenarioConfig::small_test();
  a.faults = chaos_schedule(1);
  ScenarioConfig b = ScenarioConfig::small_test();
  b.faults = chaos_schedule(2);
  EXPECT_EQ(a.digest(), b.digest());
  FailPointRegistry::global().disarm();
}

TEST(Chaos, MeasurementCountsAreConserved) {
  // Pinned seed: the assertions below need drops to actually happen.
  const ChaosRun run = run_chaos(4, 0x5eedf00dull);
  const auto c = [&](const char* name) {
    return counter_or_zero(run.metrics, name);
  };
  // Every HTTP log row is joined or an orphan; every joined target is
  // stored or dropped by the injected store fault; every joined row is
  // stored or dropped whole. Nothing leaks, nothing double-counts.
  EXPECT_EQ(c("join.http_rows"),
            c("join.joined_targets") + c("join.orphan_http"));
  EXPECT_EQ(c("join.distinct_dns"),
            c("join.joined_targets") + c("join.orphan_dns"));
  EXPECT_EQ(c("join.joined_targets"),
            c("join.stored_targets") + c("join.dropped_targets"));
  EXPECT_EQ(c("join.measurements"),
            c("join.stored_rows") + c("join.dropped_rows"));
  EXPECT_EQ(run.measurements, c("join.stored_rows"));
  EXPECT_GT(c("join.dropped_rows"), 0u);
  EXPECT_GT(c("join.joined_targets"), 0u);
  // The day stats count executed beacons directly: under dns/resolve and
  // beacon/http_fetch faults the dns log shrinks, but every execution the
  // beacon system counted must still be accounted for by the simulation.
  // (The old dns_rows / 4 derivation undercounted exactly here.)
  EXPECT_EQ(c("sim.beacons"), c("beacon.executions"));
}

TEST(Chaos, FrontEndOutagesRerouteClients) {
  // A dedicated harsh outage schedule: with half of all (front-end, day)
  // pairs down, some client's primary is certainly dark while an up
  // fallback candidate certainly exists, so failover must be observed.
  FaultSchedule schedule;
  schedule.seed = 0xbadcafeull;
  schedule.rules = {
      {"cdn/front_end", FaultKind::kError, 0.5, 0, kFaultWindowOpen, 0.0},
  };
  const ChaosRun run = run_chaos_with(2, std::move(schedule));
  EXPECT_GT(counter_or_zero(run.metrics, "fault.frontend_reroutes"), 0u);
  EXPECT_GT(run.trigger_counts.at("cdn/front_end"), 0u);
}

TEST(Chaos, ManifestRecordsExactScheduleAndTriggerCounts) {
  MetricsRegistry::global().reset();
  set_metrics_enabled(true);

  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = 2;
  config.faults = chaos_schedule(chaos_seed());
  World world(config);
  Simulation sim(world);
  sim.run_days(kChaosDays);

  RunManifest manifest;
  manifest.tool = "chaos_test";
  manifest.config_digest = config.digest();
  manifest.seed = config.seed;
  manifest.days = kChaosDays;
  manifest.metrics = MetricsRegistry::global().snapshot();
  manifest.fault_injection = FaultInjectionRecord::from_registry();

  // The manifest's trigger counts must equal the "fault.fired.*" metrics
  // counters exactly — both sides increment in the same evaluate() call.
  ASSERT_EQ(manifest.fault_injection.trigger_counts.size(),
            known_fail_points().size());
  for (const auto& [point, count] :
       manifest.fault_injection.trigger_counts) {
    EXPECT_EQ(count,
              counter_or_zero(manifest.metrics, "fault.fired." + point))
        << point;
  }
  // And nothing fired outside the recorded points.
  for (const auto& [name, value] : manifest.metrics.counters) {
    if (name.rfind("fault.fired.", 0) != 0) continue;
    EXPECT_EQ(value, manifest.fault_injection.trigger_counts.at(
                         name.substr(std::string("fault.fired.").size())))
        << name;
  }

  // The armed schedule is recorded rule for rule: the written manifest
  // embeds the format_fault_injection fragment byte for byte.
  const std::string path = ::testing::TempDir() + "acdn_chaos_manifest.json";
  write_run_manifest(manifest, path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::remove(path.c_str());

  std::string fragment =
      format_fault_injection(manifest.fault_injection, 1);
  if (!fragment.empty() && fragment.back() == '\n') fragment.pop_back();
  fragment += ",";  // the manifest writer's continuation comma
  EXPECT_NE(text.find(fragment), std::string::npos);
  EXPECT_NE(text.find("\"armed\": true"), std::string::npos);
  for (const FaultRule& rule : config.faults.rules) {
    EXPECT_NE(text.find("\"point\": \"" + rule.point + "\""),
              std::string::npos)
        << rule.point;
  }

  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
  FailPointRegistry::global().disarm();
}

}  // namespace
}  // namespace acdn
