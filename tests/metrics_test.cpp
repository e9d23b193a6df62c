#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"

namespace acdn {
namespace {

/// Every test runs against the process-global registry, so each starts
/// from a clean slate and leaves metrics disabled for its neighbors.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::global().reset();
    set_metrics_enabled(true);
  }
  void TearDown() override {
    set_metrics_enabled(false);
    MetricsRegistry::global().reset();
  }
};

TEST_F(MetricsTest, CountersSumExactlyAcrossPoolThreads) {
  // Hammer one counter from the executor pool: per-thread shards must
  // fold to the exact total regardless of how chunks were scheduled.
  constexpr std::size_t kIters = 20000;
  Executor::global().parallel_for(0, kIters, 8, [](std::size_t) {
    metric_count("test.hammered");
    metric_count("test.weighted", 3);
  });
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("test.hammered"), kIters);
  EXPECT_EQ(snap.counters.at("test.weighted"), 3 * kIters);
}

TEST_F(MetricsTest, SnapshotOrderIsNameSortedAndDeterministic) {
  metric_count("zebra");
  metric_count("alpha");
  metric_count("middle");
  metric_observe("z.hist", 1.0);
  metric_observe("a.hist", 1.0);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();

  std::vector<std::string> names;
  for (const auto& [name, v] : snap.counters) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "middle", "zebra"}));
  std::vector<std::string> hists;
  for (const auto& [name, v] : snap.histograms) hists.push_back(name);
  EXPECT_EQ(hists, (std::vector<std::string>{"a.hist", "z.hist"}));
}

TEST_F(MetricsTest, HistogramTracksCountSumMinMaxAndQuantiles) {
  for (int i = 1; i <= 100; ++i) {
    metric_observe("test.latency", double(i));
  }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const HistogramStats& h = snap.histograms.at("test.latency");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // P² estimates: near the true quantiles, not exact.
  EXPECT_NEAR(h.p50, 50.0, 5.0);
  EXPECT_NEAR(h.p95, 95.0, 5.0);
}

TEST_F(MetricsTest, HistogramMergesShardsByCountWeight) {
  // Two threads observing disjoint ranges: the merged quantiles must land
  // between the per-shard estimates, and count/sum/min/max are exact.
  // NOLINT-ACDN(raw-thread): pins registry behavior for foreign threads
  std::thread low([] {
    for (int i = 0; i < 1000; ++i) metric_observe("test.merge", 10.0);
  });
  // NOLINT-ACDN(raw-thread): second foreign thread for the shard merge
  std::thread high([] {
    for (int i = 0; i < 1000; ++i) metric_observe("test.merge", 30.0);
  });
  low.join();
  high.join();
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const HistogramStats& h = snap.histograms.at("test.merge");
  EXPECT_EQ(h.count, 2000u);
  EXPECT_DOUBLE_EQ(h.min, 10.0);
  EXPECT_DOUBLE_EQ(h.max, 30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_GE(h.p50, 10.0);
  EXPECT_LE(h.p50, 30.0);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  metric_gauge("test.size", 5.0);
  metric_gauge("test.size", 9.0);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.size"), 9.0);
}

TEST_F(MetricsTest, PhaseSpansNestIntoSlashPaths) {
  {
    PhaseSpan outer("train");
    EXPECT_EQ(PhaseSpan::current_path(), "train");
    {
      PhaseSpan inner("score");
      EXPECT_EQ(PhaseSpan::current_path(), "train/score");
    }
    EXPECT_EQ(PhaseSpan::current_path(), "train");
  }
  EXPECT_EQ(PhaseSpan::current_path(), "");

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.phases.at("train").count, 1u);
  EXPECT_EQ(snap.phases.at("train/score").count, 1u);
  EXPECT_GE(snap.phases.at("train").total_ms,
            snap.phases.at("train/score").total_ms);
}

TEST_F(MetricsTest, ScopedTimerRecordsOneSample) {
  { ScopedTimer t("test.scope_ms"); }
  { ScopedTimer t("test.scope_ms"); }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.histograms.at("test.scope_ms").count, 2u);
  EXPECT_GE(snap.histograms.at("test.scope_ms").min, 0.0);
}

TEST_F(MetricsTest, DisabledCallsRecordNothing) {
  set_metrics_enabled(false);
  metric_count("test.off");
  metric_gauge("test.off_gauge", 1.0);
  metric_observe("test.off_hist", 1.0);
  { ScopedTimer t("test.off_timer"); }
  { PhaseSpan p("off_phase"); }
  EXPECT_TRUE(MetricsRegistry::global().snapshot().empty());
}

TEST_F(MetricsTest, ResetClearsEverything) {
  metric_count("test.c");
  metric_gauge("test.g", 1.0);
  metric_observe("test.h", 1.0);
  { PhaseSpan p("phase"); }
  EXPECT_FALSE(MetricsRegistry::global().snapshot().empty());
  MetricsRegistry::global().reset();
  EXPECT_TRUE(MetricsRegistry::global().snapshot().empty());
}

TEST_F(MetricsTest, SchedulingCountsStayOutOfCounters) {
  metric_count_scheduling("test.sched", 3);
  metric_count_scheduling("test.sched");
  // Stealing depends on thread interleaving, so the executor records its
  // steals as scheduling counts, never as counters.
  Executor::global().parallel_for(0, 5000, 4, [](std::size_t) {});
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.scheduling.at("test.sched"), 4u);
  EXPECT_EQ(snap.counters.count("test.sched"), 0u);
  EXPECT_EQ(snap.counters.count("executor.steals"), 0u);
  MetricsRegistry::global().reset();
  EXPECT_TRUE(MetricsRegistry::global().snapshot().scheduling.empty());
}

TEST_F(MetricsTest, CountsAreReproducibleAcrossRuns) {
  // The determinism contract for everything but wall-clock: identical
  // work produces identical counter values on a fresh registry.
  auto run = [] {
    MetricsRegistry::global().reset();
    Executor::global().parallel_for(0, 5000, 4, [](std::size_t i) {
      metric_count("test.repro");
      if (i % 3 == 0) metric_count("test.every_third");
    });
    return MetricsRegistry::global().snapshot();
  };
  const MetricsSnapshot a = run();
  const MetricsSnapshot b = run();
  EXPECT_EQ(a.counters, b.counters);
}

}  // namespace
}  // namespace acdn
