#include <gtest/gtest.h>

#include "analysis/aggregate.h"
#include "analysis/figures.h"
#include "common/error.h"
#include "test_fixtures.h"

namespace acdn {
namespace {

using testfx::make_measurement;

// ------------------------------------------------------------ aggregation

TEST(DayAggregates, GroupsByClientUnderEcs) {
  std::vector<BeaconMeasurement> ms;
  ms.push_back(make_measurement(1, 10, 0, 20.0, {{0, 30.0}}));
  ms.push_back(make_measurement(1, 10, 0, 22.0, {{0, 28.0}}));
  ms.push_back(make_measurement(2, 10, 0, 50.0, {{1, 40.0}}));

  const DayAggregates agg = DayAggregates::build(ms, Grouping::kEcsPrefix);
  ASSERT_EQ(agg.groups().size(), 2u);
  const DayAggregates::Group* g1 = agg.find(1);
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(agg.sample_count(*g1, TargetKey{true, FrontEndId{}}), 2u);
  EXPECT_EQ(agg.sample_count(*g1, TargetKey{false, FrontEndId(0)}), 2u);
  EXPECT_EQ(agg.sample_count(*g1, TargetKey{false, FrontEndId(1)}), 0u);
}

TEST(DayAggregates, UnicastFrontEndIdMustFitTheAggregationKey) {
  // The packed key keeps 31 bits for a unicast front end; bit 31 is the
  // anycast lane, so an id with it set must fail instead of aliasing.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<BeaconMeasurement> ms;
  ms.push_back(make_measurement(1, 10, 0, 20.0, {{0x7FFFFFFFu, 30.0}}));
  ms.push_back(make_measurement(1, 10, 0, 22.0, {{0x7FFFFFFFu, 28.0}}));
  const DayAggregates agg = DayAggregates::build(ms, Grouping::kEcsPrefix);
  const DayAggregates::Group* g1 = agg.find(1);
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g1->target_count, 2u);
  EXPECT_EQ(agg.sample_count(*g1, TargetKey{false, FrontEndId(0x7FFFFFFFu)}),
            2u);
  EXPECT_EQ(agg.sample_count(*g1, TargetKey{true, FrontEndId{}}), 2u);

  ms.push_back(make_measurement(2, 10, 0, 50.0, {{0x80000000u, 40.0}}));
  EXPECT_DEATH((void)DayAggregates::build(ms, Grouping::kEcsPrefix),
               "overflows the 31-bit aggregation key");
}

TEST(DayAggregates, GroupsByLdns) {
  std::vector<BeaconMeasurement> ms;
  ms.push_back(make_measurement(1, 10, 0, 20.0, {{0, 30.0}}));
  ms.push_back(make_measurement(2, 10, 0, 24.0, {{0, 26.0}}));
  ms.push_back(make_measurement(3, 11, 0, 50.0, {{1, 40.0}}));

  const DayAggregates agg = DayAggregates::build(ms, Grouping::kLdns);
  ASSERT_EQ(agg.groups().size(), 2u);
  const DayAggregates::Group* g10 = agg.find(10);
  ASSERT_NE(g10, nullptr);
  EXPECT_EQ(agg.sample_count(*g10, TargetKey{true, FrontEndId{}}), 2u);
}

// ------------------------------------------------------------------ Fig 1

TEST(Fig1, MinLatencyOverGrowingPools) {
  // Client latencies nearest-first: min over first N is non-increasing.
  std::vector<std::vector<Milliseconds>> per_client{
      {30.0, 20.0, 40.0, 10.0}, {15.0, 50.0, 12.0, 60.0}};
  const int ns[] = {1, 2, 4};
  const auto cdfs = fig1_min_latency_by_pool_size(per_client, ns);
  ASSERT_EQ(cdfs.size(), 3u);
  // N=1: mins are 30 and 15 -> median 15..30.
  EXPECT_DOUBLE_EQ(cdfs[0].quantile(0.5), 15.0);
  // N=4: mins are 10 and 12.
  EXPECT_DOUBLE_EQ(cdfs[2].quantile(0.5), 10.0);
  // Monotonicity of the median across pool sizes.
  EXPECT_LE(cdfs[1].quantile(0.5), cdfs[0].quantile(0.5));
  EXPECT_LE(cdfs[2].quantile(0.5), cdfs[1].quantile(0.5));
}

// ------------------------------------------------------------------ Fig 3

TEST(Fig3, DifferenceDistribution) {
  std::vector<BeaconMeasurement> ms;
  // anycast 25 vs best unicast 20 -> +5 (anycast slower).
  ms.push_back(make_measurement(1, 10, 0, 25.0, {{0, 20.0}, {1, 30.0}}));
  // anycast 10 vs best 15 -> -5 (anycast faster).
  ms.push_back(make_measurement(2, 10, 0, 10.0, {{0, 15.0}}));
  // Measurement without unicast targets is skipped.
  BeaconMeasurement no_unicast;
  no_unicast.client = ClientId(3);
  no_unicast.day = 0;
  no_unicast.targets.push_back({true, FrontEndId{}, 30.0});
  ms.push_back(no_unicast);

  // ClientPopulation is only needed for region filtering (covered by the
  // sim integration test); exercise the per-measurement difference logic
  // the figure is built on.
  DistributionBuilder diff;
  for (const BeaconMeasurement& m : ms) {
    const auto anycast = m.anycast_ms();
    const auto best = m.best_unicast();
    if (!anycast || !best) continue;
    diff.add(*anycast - best->rtt_ms);
  }
  EXPECT_EQ(diff.count(), 2u);
  EXPECT_DOUBLE_EQ(diff.fraction_at_least(5.0), 0.5);
}

// ------------------------------------------------------------------ Fig 5

TEST(Fig5, DailyImprovementUsesMediansAndGate) {
  Fig5Config config;
  config.min_samples_per_target = 2;
  std::vector<BeaconMeasurement> ms;
  // Client 1: anycast median 30, FE0 median 20 -> improvement 10.
  ms.push_back(make_measurement(1, 10, 0, 28.0, {{0, 19.0}}));
  ms.push_back(make_measurement(1, 10, 0, 32.0, {{0, 21.0}}));
  // Client 2: only one sample -> gated out.
  ms.push_back(make_measurement(2, 10, 0, 90.0, {{0, 10.0}}));

  const auto improvements = daily_improvement(ms, config);
  ASSERT_EQ(improvements.size(), 1u);
  EXPECT_DOUBLE_EQ(improvements.at(1), 10.0);
}

TEST(Fig5, BestFrontEndWins) {
  Fig5Config config;
  config.min_samples_per_target = 1;
  std::vector<BeaconMeasurement> ms;
  ms.push_back(make_measurement(1, 10, 0, 30.0, {{0, 25.0}, {1, 15.0}}));
  const auto improvements = daily_improvement(ms, config);
  EXPECT_DOUBLE_EQ(improvements.at(1), 15.0);  // vs the better FE1
}

TEST(Fig5, SharedAggregatesMatchRowPath) {
  // The DayAggregates overload scores a prebuilt aggregation identically
  // to the row-struct path (which builds its own).
  Fig5Config config;
  config.min_samples_per_target = 1;
  std::vector<BeaconMeasurement> ms;
  ms.push_back(make_measurement(1, 10, 0, 30.0, {{0, 25.0}, {1, 15.0}}));
  ms.push_back(make_measurement(2, 10, 0, 12.0, {{0, 40.0}}));

  const auto from_rows = daily_improvement(ms, config);
  const DayAggregates agg = DayAggregates::build(ms, Grouping::kEcsPrefix);
  const auto from_agg = daily_improvement(agg, config);
  ASSERT_EQ(from_agg.size(), from_rows.size());
  for (const auto& [group, improvement] : from_rows) {
    ASSERT_TRUE(from_agg.contains(group));
    EXPECT_DOUBLE_EQ(from_agg.at(group), improvement);
  }

  // Per-LDNS aggregates are the wrong granularity for a per-/24 figure.
  const DayAggregates ldns = DayAggregates::build(ms, Grouping::kLdns);
  EXPECT_THROW(daily_improvement(ldns, config), ConfigError);
}

TEST(Fig5, PrevalenceCountsThresholds) {
  Fig5Config config;
  config.min_samples_per_target = 1;
  config.epsilon_ms = 2.0;
  MeasurementStore store;
  // Day 0: client 1 improves by 30ms; client 2 by 1ms (below epsilon);
  // client 3 anycast-optimal.
  store.add(make_measurement(1, 10, 0, 50.0, {{0, 20.0}}));
  store.add(make_measurement(2, 10, 0, 21.0, {{0, 20.0}}));
  store.add(make_measurement(3, 10, 0, 15.0, {{0, 20.0}}));

  const auto days = fig5_daily_prevalence(store, config);
  ASSERT_EQ(days.size(), 1u);
  // thresholds {0(+eps), 10, 25, 50, 100}
  EXPECT_NEAR(days[0].fraction_above[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(days[0].fraction_above[1], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(days[0].fraction_above[2], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(days[0].fraction_above[3], 0.0, 1e-9);
}

// ------------------------------------------------------------------ Fig 6

TEST(Fig6, DurationAndConsecutiveStreaks) {
  Fig5Config config;
  config.min_samples_per_target = 1;
  config.epsilon_ms = 2.0;
  MeasurementStore store;
  // Client 1 poor on days 0,1,2 (streak 3). Client 2 poor on days 0 and 2
  // (streak 1). Client 3 never poor.
  for (DayIndex d : {0, 1, 2}) {
    store.add(make_measurement(1, 10, d, 50.0, {{0, 20.0}}));
  }
  for (DayIndex d : {0, 2}) {
    store.add(make_measurement(2, 10, d, 40.0, {{0, 20.0}}));
  }
  store.add(make_measurement(2, 10, 1, 20.0, {{0, 20.0}}));
  for (DayIndex d : {0, 1, 2}) {
    store.add(make_measurement(3, 10, d, 10.0, {{0, 20.0}}));
  }

  const Fig6Duration result = fig6_poor_duration(store, config);
  EXPECT_EQ(result.days_poor.count(), 2u);  // only poor clients included
  EXPECT_DOUBLE_EQ(result.days_poor.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(result.max_consecutive.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(result.max_consecutive.quantile(0.0), 1.0);
}

// ------------------------------------------------------------------ Fig 7

TEST(Fig7, CumulativeSwitchDetection) {
  PassiveLog log;
  // Client 1: same FE all week -> never switches.
  // Client 2: switches on day 2.
  // Client 3: two FEs on day 0 (intra-day) -> switches on day 0.
  for (DayIndex d = 0; d < 4; ++d) {
    log.add({ClientId(1), FrontEndId(0), d, 10.0});
  }
  log.add({ClientId(2), FrontEndId(0), 0, 10.0});
  log.add({ClientId(2), FrontEndId(0), 1, 10.0});
  log.add({ClientId(2), FrontEndId(1), 2, 10.0});
  log.add({ClientId(2), FrontEndId(1), 3, 10.0});
  log.add({ClientId(3), FrontEndId(0), 0, 6.0});
  log.add({ClientId(3), FrontEndId(2), 0, 4.0});
  log.add({ClientId(3), FrontEndId(0), 1, 10.0});

  const auto cumulative = fig7_cumulative_switched(log, 4);
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_NEAR(cumulative[0], 1.0 / 3.0, 1e-9);  // client 3
  EXPECT_NEAR(cumulative[1], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(cumulative[2], 2.0 / 3.0, 1e-9);  // + client 2
  EXPECT_NEAR(cumulative[3], 2.0 / 3.0, 1e-9);
}

TEST(Fig7, EmptyLog) {
  PassiveLog log;
  const auto cumulative = fig7_cumulative_switched(log, 3);
  ASSERT_EQ(cumulative.size(), 3u);
  for (double v : cumulative) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace acdn
