// Day-route plan (cdn/day_plan.h): the per-unit plan must be an exact,
// thread-count-independent replacement for per-client route resolution.
//
//   * For every client, every day, any thread count (1/2/8), and with an
//     armed fault schedule, route_for == resolve_reference, field for
//     field — the property that licenses the O(1) anycast_today lookup.
//   * A lookup after dynamics advanced without prepare_day dies instead
//     of answering from the stale plan; prepare_day makes it valid again.
//   * The client -> unit index groups exactly by (access AS, metro).
//   * Base routes are resolved once per (unit, candidate) slot: later
//     days and rebuilds answer from the slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "sim/scenario.h"
#include "sim/world.h"

namespace acdn {
namespace {

/// A schedule that exercises every plan branch: outage failover (dark
/// front-ends force the candidate scan), session flaps and withdrawal
/// fallbacks (dynamics overrides).
FaultSchedule plan_stress_schedule() {
  FaultSchedule schedule;
  schedule.seed = 0x9d5eedull;
  schedule.rules = {
      {"cdn/front_end", FaultKind::kError, 0.3, 0, kFaultWindowOpen, 0.0},
      {"bgp/session", FaultKind::kError, 0.5, 0, kFaultWindowOpen, 0.0},
      {"bgp/withdrawal", FaultKind::kDrop, 0.25, 0, kFaultWindowOpen, 0.0},
  };
  return schedule;
}

void expect_routes_equal(const RouteResult& a, const RouteResult& b,
                         const char* what, std::uint32_t client) {
  ASSERT_EQ(a.valid, b.valid) << what << " client " << client;
  if (!a.valid) return;
  EXPECT_EQ(a.front_end, b.front_end) << what << " client " << client;
  EXPECT_EQ(a.ingress_metro, b.ingress_metro) << what << " client "
                                              << client;
  EXPECT_EQ(a.path_km, b.path_km) << what << " client " << client;
  EXPECT_EQ(a.backbone_km, b.backbone_km) << what << " client " << client;
  EXPECT_EQ(a.as_hops, b.as_hops) << what << " client " << client;
}

TEST(DayPlan, LookupMatchesPerClientReferenceAcrossDaysAndThreads) {
  constexpr DayIndex kDays = 5;
  for (const int threads : {1, 2, 8}) {
    ScenarioConfig config = ScenarioConfig::small_test();
    config.faults = plan_stress_schedule();
    World world(config);
    for (DayIndex day = 0; day < kDays; ++day) {
      world.prepare_day(day, threads);
      ASSERT_TRUE(world.day_plan().current_for(world.dynamics()));
      for (const Client24& client : world.clients().clients()) {
        const DayRoute plan = world.day_plan().route_for(client);
        const DayRoute ref =
            world.day_plan().resolve_reference(client, world.dynamics());
        expect_routes_equal(plan.primary, ref.primary, "primary",
                            client.id.value);
        ASSERT_EQ(plan.alternate.has_value(), ref.alternate.has_value())
            << "alternate presence, client " << client.id.value << " day "
            << day << " threads " << threads;
        if (plan.alternate) {
          expect_routes_equal(*plan.alternate, *ref.alternate, "alternate",
                              client.id.value);
          EXPECT_EQ(plan.alternate_share, ref.alternate_share);
        }
      }
    }
  }
}

TEST(DayPlan, StalePlanLookupDiesUntilPrepareDay) {
  // The executor pool is live in this process: fork-and-reexec style.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScenarioConfig config = ScenarioConfig::small_test();
  World world(config);
  world.prepare_day(0, 2);

  // Advance dynamics behind the plan's back: the plan is now stale, and
  // anycast_today must die rather than answer from day 0's table.
  world.dynamics().advance_to(3);
  EXPECT_FALSE(world.day_plan().current_for(world.dynamics()));
  const Client24& first = world.clients().clients().front();
  EXPECT_DEATH((void)world.anycast_today(first), "stale day plan");

  // A prepare_day catches the plan back up; lookups are valid again.
  world.prepare_day(3, 2);
  EXPECT_TRUE(world.day_plan().current_for(world.dynamics()));
  for (const Client24& client : world.clients().clients()) {
    const DayRoute got = world.anycast_today(client);
    const DayRoute ref =
        world.day_plan().resolve_reference(client, world.dynamics());
    ASSERT_EQ(got.primary.valid, ref.primary.valid);
    if (got.primary.valid) {
      EXPECT_EQ(got.primary.front_end, ref.primary.front_end);
    }
    ASSERT_EQ(got.alternate.has_value(), ref.alternate.has_value());
  }
}

TEST(DayPlan, UnitIndexGroupsClientsByAccessAsAndMetro) {
  ScenarioConfig config = ScenarioConfig::small_test();
  World world(config);
  const DayRoutePlan& plan = world.day_plan();

  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const Client24& client : world.clients().clients()) {
    pairs.emplace(client.access_as.value, client.metro.value);
  }
  EXPECT_EQ(plan.unit_count(), pairs.size());

  // Same (AS, metro) -> same unit; different -> different.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> seen;
  for (const Client24& client : world.clients().clients()) {
    const auto key =
        std::make_pair(client.access_as.value, client.metro.value);
    const std::size_t unit = plan.unit_of(client);
    ASSERT_LT(unit, plan.unit_count());
    const auto [it, inserted] = seen.emplace(key, unit);
    EXPECT_EQ(it->second, unit)
        << "clients sharing a routing unit got different indices";
  }
  EXPECT_EQ(seen.size(), plan.unit_count());
}

TEST(DayPlan, BaseRoutesAreResolvedOnceAcrossDays) {
  // Dynamics and front-end outages make the build visit alternates and
  // failover candidates; each slot must still cost one route_anycast.
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  ScenarioConfig config = ScenarioConfig::small_test();
  config.faults = plan_stress_schedule();
  World world(config);
  const MetricsSnapshot start = MetricsRegistry::global().snapshot();
  const auto since_start = [&](const std::string& name) {
    const auto count = [&](const MetricsSnapshot& snap) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    return count(MetricsRegistry::global().snapshot()) - count(start);
  };

  for (DayIndex day = 0; day < 6; ++day) world.prepare_day(day, 2);
  const std::uint64_t lookups = since_start("router.anycast_lookups");
  ASSERT_GT(lookups, 0u);
  EXPECT_EQ(lookups, since_start("route_plan.resolves"));

  // A second build of the same day answers every unit from its slots.
  world.prepare_day(5, 2);
  EXPECT_EQ(since_start("router.anycast_lookups"), lookups);

  // No slot is resolved twice.
  std::set<std::tuple<AsId, MetroId, std::size_t>> slots;
  for (const Client24& client : world.clients().clients()) {
    const std::size_t candidates = std::max<std::size_t>(
        1, world.router().anycast_candidate_count(client.access_as));
    for (std::size_t k = 0; k < candidates; ++k) {
      slots.emplace(client.access_as, client.metro, k);
    }
  }
  EXPECT_LE(lookups, slots.size());

  set_metrics_enabled(was_enabled);
}

}  // namespace
}  // namespace acdn
