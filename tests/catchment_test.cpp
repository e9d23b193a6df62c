#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "analysis/catchment.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "sim/world.h"
#include "stats/quantile.h"

namespace acdn {
namespace {

class CatchmentTest : public ::testing::Test {
 protected:
  CatchmentTest()
      : world_(ScenarioConfig::small_test()),
        catchments_(compute_catchments(world_.clients(), world_.router(),
                                       world_.metros())) {}

  World world_;
  std::vector<CatchmentSummary> catchments_;
};

TEST_F(CatchmentTest, OneSummaryPerFrontEnd) {
  EXPECT_EQ(catchments_.size(), world_.cdn().deployment().size());
  for (std::size_t i = 0; i < catchments_.size(); ++i) {
    EXPECT_EQ(catchments_[i].front_end.value, i);
    EXPECT_FALSE(catchments_[i].name.empty());
  }
}

TEST_F(CatchmentTest, ClientsAndSharesAddUp) {
  std::size_t clients = 0;
  double share = 0.0;
  for (const CatchmentSummary& c : catchments_) {
    clients += c.clients;
    share += c.query_share;
    EXPECT_GE(c.query_share, 0.0);
  }
  EXPECT_EQ(clients, world_.clients().size());
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST_F(CatchmentTest, DistancesAreOrdered) {
  for (const CatchmentSummary& c : catchments_) {
    if (c.clients == 0) continue;
    EXPECT_GE(c.p90_client_km + 1e-9, c.median_client_km) << c.name;
  }
}

TEST_F(CatchmentTest, CountryMixAccountsForAllClients) {
  for (const CatchmentSummary& c : catchments_) {
    int total = 0;
    for (const auto& [country, n] : c.countries) total += n;
    EXPECT_EQ(static_cast<std::size_t>(total), c.clients) << c.name;
    EXPECT_GE(c.foreign_clients(), 0);
    EXPECT_LE(c.foreign_clients(), total);
  }
}

TEST_F(CatchmentTest, HealthIndicatorsAreSane) {
  const CatchmentHealth health = catchment_health(catchments_);
  EXPECT_GT(health.active_front_ends, 0.0);
  EXPECT_LE(health.active_front_ends, 1.0);
  EXPECT_GE(health.volume_within_1000km, 0.0);
  EXPECT_LE(health.volume_within_1000km, 1.0 + 1e-9);
  EXPECT_GT(health.busiest_share, 0.0);
  EXPECT_LE(health.busiest_share, 1.0);
  // The busiest site carries at least the average share.
  EXPECT_GE(health.busiest_share, 1.0 / double(catchments_.size()));
}

/// compute_catchments as one route_anycast per client: the same chunked
/// accumulation (the chunk plan fixes the floating-point association of
/// every sum), written out serially.
std::vector<CatchmentSummary> per_client_reference(const World& world) {
  const Deployment& deployment = world.cdn().deployment();
  const auto all = world.clients().clients();
  std::vector<CatchmentSummary> out(deployment.size());
  std::vector<std::vector<double>> distances(deployment.size());
  double total_volume = 0.0;
  const Executor::ChunkPlan plan =
      Executor::plan_chunks(all.size(), kReduceGrain);
  for (std::size_t chunk = 0; chunk < plan.chunks; ++chunk) {
    std::vector<double> share(deployment.size(), 0.0);
    double volume = 0.0;
    const std::size_t end =
        std::min(all.size(), (chunk + 1) * plan.chunk_size);
    for (std::size_t i = chunk * plan.chunk_size; i < end; ++i) {
      const Client24& c = all[i];
      const RouteResult route =
          world.router().route_anycast(c.access_as, c.metro);
      if (!route.valid) continue;
      const std::size_t fe = route.front_end.value;
      ++out[fe].clients;
      share[fe] += c.daily_queries;
      volume += c.daily_queries;
      ++out[fe].countries[world.metros().metro(c.metro).country];
      distances[fe].push_back(haversine_km(
          c.location,
          world.metros().metro(deployment.site(route.front_end).metro)
              .location));
    }
    for (std::size_t fe = 0; fe < out.size(); ++fe) {
      out[fe].query_share += share[fe];
    }
    total_volume += volume;
  }
  for (const FrontEndSite& site : deployment.sites()) {
    CatchmentSummary& s = out[site.id.value];
    s.front_end = site.id;
    s.name = site.name;
    if (total_volume > 0.0) s.query_share /= total_volume;
    if (!distances[site.id.value].empty()) {
      s.median_client_km = quantile(distances[site.id.value], 0.5);
      s.p90_client_km = quantile(distances[site.id.value], 0.9);
    }
  }
  return out;
}

/// A world with several reduce chunks of clients.
ScenarioConfig multi_chunk_config() {
  ScenarioConfig config = ScenarioConfig::small_test();
  config.workload.total_client_24s = 2500;
  return config;
}

TEST(CatchmentUnits, MatchesPerClientRoutesAtAnyThreadCount) {
  const World world(multi_chunk_config());
  ASSERT_GT(world.clients().size(), kReduceGrain);
  const std::vector<CatchmentSummary> reference = per_client_reference(world);
  for (const int threads : {1, 2, 8}) {
    const std::vector<CatchmentSummary> got = compute_catchments(
        world.clients(), world.router(), world.metros(), threads);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t fe = 0; fe < got.size(); ++fe) {
      const CatchmentSummary& a = got[fe];
      const CatchmentSummary& b = reference[fe];
      EXPECT_EQ(a.front_end, b.front_end);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.clients, b.clients) << threads << " threads, fe " << fe;
      // Exact: the same additions in the same order.
      EXPECT_EQ(a.query_share, b.query_share) << threads << " threads";
      EXPECT_EQ(a.median_client_km, b.median_client_km) << threads;
      EXPECT_EQ(a.p90_client_km, b.p90_client_km) << threads;
      EXPECT_TRUE(std::equal(a.countries.begin(), a.countries.end(),
                             b.countries.begin(), b.countries.end()))
          << threads << " threads, fe " << fe;
    }
  }
}

TEST(CatchmentUnits, ResolvesEachRoutingUnitOnce) {
  const World world(multi_chunk_config());
  std::set<std::pair<AsId, MetroId>> units;
  for (const Client24& c : world.clients().clients()) {
    units.emplace(c.access_as, c.metro);
  }
  ASSERT_LT(units.size(), world.clients().size());

  const auto lookups = [] {
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    const auto it = snap.counters.find("router.anycast_lookups");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const std::uint64_t before = lookups();
  (void)compute_catchments(world.clients(), world.router(), world.metros(),
                           4);
  const std::uint64_t after = lookups();
  set_metrics_enabled(was_enabled);
  EXPECT_EQ(after - before, units.size());
}

TEST(CatchmentHealthEmpty, EmptyInputIsZero) {
  const CatchmentHealth health = catchment_health({});
  EXPECT_DOUBLE_EQ(health.active_front_ends, 0.0);
  EXPECT_DOUBLE_EQ(health.busiest_share, 0.0);
}

}  // namespace
}  // namespace acdn
