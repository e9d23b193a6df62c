// End-to-end integration tests: a small world simulated over several days,
// checked for cross-module invariants rather than per-module behavior.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/figures.h"
#include "common/error.h"
#include "common/metrics.h"
#include "core/evaluator.h"
#include "core/predictor.h"
#include "sim/simulation.h"
#include "sim/world.h"

namespace acdn {
namespace {

class SimIntegration : public ::testing::Test {
 protected:
  SimIntegration() : world_(ScenarioConfig::small_test()), sim_(world_) {
    sim_.run_days(3);
  }

  World world_;
  Simulation sim_;
};

TEST_F(SimIntegration, EveryDayProducesData) {
  for (DayIndex d = 0; d < 3; ++d) {
    EXPECT_FALSE(sim_.measurements().by_day(d).empty()) << d;
    EXPECT_FALSE(sim_.passive().by_day(d).empty()) << d;
  }
  EXPECT_EQ(sim_.next_day(), 3);
}

TEST_F(SimIntegration, PassiveLogsCoverActiveClientsEveryDay) {
  for (DayIndex d = 0; d < 3; ++d) {
    std::set<ClientId> seen;
    for (const PassiveLogEntry& e : sim_.passive().by_day(d)) {
      seen.insert(e.client);
      EXPECT_GT(e.queries, 0.0);
      EXPECT_TRUE(e.front_end.valid());
    }
    // Exactly the clients the activity model marks active appear (light
    // /24s blink in and out of the logs).
    std::size_t active = 0;
    for (const Client24& c : world_.clients().clients()) {
      if (world_.schedule().is_active(c, d, world_.config().seed)) ++active;
    }
    EXPECT_EQ(seen.size(), active);
    EXPECT_GT(seen.size(), world_.clients().size() / 2);
  }
}

TEST_F(SimIntegration, BeaconMeasurementsAreWellFormed) {
  std::size_t with_anycast = 0;
  std::size_t with_unicast = 0;
  std::size_t total = 0;
  for (const BeaconMeasurement& m : sim_.measurements().by_day(0)) {
    ++total;
    EXPECT_LE(m.targets.size(), 4u);
    EXPECT_GE(m.targets.size(), 1u);
    if (m.anycast_ms()) ++with_anycast;
    if (m.best_unicast()) ++with_unicast;
    for (const auto& t : m.targets) {
      EXPECT_GT(t.rtt_ms, 0.0);
      EXPECT_LT(t.rtt_ms, 3000.0);
    }
    // The joined LDNS matches the client's actual resolver.
    EXPECT_EQ(world_.clients().client(m.client).ldns, m.ldns);
    EXPECT_GE(m.hour, 0.0);
    EXPECT_LT(m.hour, 24.0);
  }
  ASSERT_GT(total, 0u);
  // Fetch loss is rare: nearly every joined beacon has both sides.
  EXPECT_GT(double(with_anycast) / double(total), 0.95);
  EXPECT_GT(double(with_unicast) / double(total), 0.95);
}

TEST_F(SimIntegration, AnycastFrontEndsMatchRoutingOracle) {
  // The front-end in any passive entry must be producible by the router
  // for that client's routing unit (some candidate index).
  const auto day0 = sim_.passive().by_day(0);
  for (std::size_t i = 0; i < std::min<std::size_t>(day0.size(), 100); ++i) {
    const PassiveLogEntry& e = day0[i];
    const Client24& c = world_.clients().client(e.client);
    bool reachable = false;
    const std::size_t n =
        world_.router().anycast_candidate_count(c.access_as);
    for (std::size_t k = 0; k < n; ++k) {
      if (world_.router().route_anycast(c.access_as, c.metro, k).front_end ==
          e.front_end) {
        reachable = true;
        break;
      }
    }
    EXPECT_TRUE(reachable) << "client " << e.client.value;
  }
}

TEST_F(SimIntegration, AnycastIsNearOptimalForMostRequests) {
  DistributionBuilder diff = fig3_anycast_minus_best_unicast(
      sim_.measurements().by_day(0), world_.clients(), std::nullopt);
  ASSERT_FALSE(diff.empty());
  // Median request: anycast within a few ms of the best measured unicast.
  EXPECT_LT(std::abs(diff.quantile(0.5)), 8.0);
  // But a tail of poor anycast requests exists.
  EXPECT_GT(1.0 - diff.fraction_at_most(10.0), 0.02);
}

TEST_F(SimIntegration, PredictionPipelineRunsEndToEnd) {
  PredictorConfig pc;
  pc.metric = PredictionMetric::kP25;
  pc.min_measurements = 5;
  pc.grouping = Grouping::kEcsPrefix;
  HistoryPredictor predictor(pc);
  predictor.train(sim_.measurements().by_day(1));
  EXPECT_GT(predictor.predictions().size(), 0u);

  const PredictionEvaluator evaluator(world_.clients(), world_.ldns());
  const auto outcomes =
      evaluator.evaluate(predictor, sim_.measurements().by_day(2));
  EXPECT_GT(outcomes.size(), 0u);
  const EvalSummary summary = evaluator.summarize(outcomes);
  EXPECT_GE(summary.fraction_improved_p50, 0.0);
  EXPECT_LE(summary.fraction_improved_p50 + summary.fraction_worse_p50, 1.0);
}

TEST_F(SimIntegration, WeekLongChurnIsBounded) {
  Simulation week(world_);  // continues from day 3 world state
  // Note: run a fresh simulation over a fresh world for exact semantics.
  World fresh(ScenarioConfig::small_test());
  Simulation fresh_sim(fresh);
  fresh_sim.run_days(7);
  const auto switched = fig7_cumulative_switched(fresh_sim.passive(), 7);
  ASSERT_EQ(switched.size(), 7u);
  for (std::size_t i = 1; i < switched.size(); ++i) {
    EXPECT_GE(switched[i] + 1e-12, switched[i - 1]);  // cumulative
  }
  EXPECT_GT(switched.back(), 0.0);   // some churn exists
  EXPECT_LT(switched.back(), 0.6);   // most clients are stable
}

TEST(SimDeterminism, SameSeedSameOutput) {
  auto fingerprint = [](std::uint64_t seed) {
    ScenarioConfig config = ScenarioConfig::small_test();
    config.seed = seed;
    World world(config);
    Simulation sim(world);
    sim.run_days(2);
    double sum = 0.0;
    std::size_t count = 0;
    for (DayIndex d = 0; d < 2; ++d) {
      for (const BeaconMeasurement& m : sim.measurements().by_day(d)) {
        for (const auto& t : m.targets) {
          sum += t.rtt_ms;
          ++count;
        }
      }
    }
    return std::make_pair(sum, count);
  };
  const auto a = fingerprint(7);
  const auto b = fingerprint(7);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.first),
            std::bit_cast<std::uint64_t>(b.first));
  const auto c = fingerprint(8);
  EXPECT_NE(a.first, c.first);
}

/// Everything World construction fans out, read back bit for bit, plus
/// the work counters of the construction itself.
struct WorldSetup {
  std::vector<std::vector<FrontEndId>> pools;  // per LDNS
  std::vector<std::array<std::uint64_t, 6>> unicast_routes;
  std::vector<std::uint64_t> candidate_draws;  // measure_all_candidates
  std::uint64_t tables_computed = 0;
  std::uint64_t unicast_lookups = 0;
  std::size_t sites = 0;
  std::size_t distinct_keys = 0;
};

std::uint64_t counter_or_zero(const MetricsSnapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0u : it->second;
}

WorldSetup build_world_setup(int threads) {
  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = threads;
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const World world(config);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  set_metrics_enabled(was_enabled);

  WorldSetup s;
  s.tables_computed = counter_or_zero(after, "bgp.tables_computed") -
                      counter_or_zero(before, "bgp.tables_computed");
  s.unicast_lookups = counter_or_zero(after, "router.unicast_lookups") -
                      counter_or_zero(before, "router.unicast_lookups");
  s.sites = world.cdn().deployment().size();

  for (const LdnsServer& server : world.ldns().servers()) {
    const auto pool = world.beacon().candidates_for(server.id);
    s.pools.emplace_back(pool.begin(), pool.end());
  }
  std::set<std::pair<AsId, MetroId>> units;
  std::set<std::tuple<AsId, MetroId, FrontEndId>> keys;
  for (const Client24& c : world.clients().clients()) {
    units.emplace(c.access_as, c.metro);
    for (FrontEndId fe : world.beacon().candidates_for(c.ldns)) {
      keys.emplace(c.access_as, c.metro, fe);
    }
    Rng rng(1000 + c.id.value);
    for (Milliseconds ms : world.beacon().measure_all_candidates(
             c, SimTime{0, 3600.0}, rng)) {
      s.candidate_draws.push_back(std::bit_cast<std::uint64_t>(ms));
    }
  }
  s.distinct_keys = keys.size();
  for (const auto& [as, metro] : units) {
    for (const FrontEndSite& site : world.cdn().deployment().sites()) {
      const RouteResult r = world.router().route_unicast(as, metro, site.id);
      s.unicast_routes.push_back(
          {std::uint64_t(r.valid), r.front_end.value, r.ingress_metro.value,
           std::bit_cast<std::uint64_t>(r.path_km),
           std::bit_cast<std::uint64_t>(r.backbone_km),
           std::uint64_t(r.as_hops)});
    }
  }
  return s;
}

TEST(SimDeterminism, WorldSetupIgnoresThreadCount) {
  // World construction fans the router's BGP tables, the beacon's
  // candidate pools and its pool routes out on simulation_threads lanes.
  // None of it may depend on the lane count, nor may the work it does.
  const WorldSetup serial = build_world_setup(1);
  EXPECT_EQ(serial.tables_computed, serial.sites + 1);
  EXPECT_EQ(serial.unicast_lookups, serial.distinct_keys);
  ASSERT_FALSE(serial.candidate_draws.empty());
  for (const int threads : {3, 8}) {
    SCOPED_TRACE(threads);
    const WorldSetup parallel = build_world_setup(threads);
    EXPECT_EQ(parallel.pools, serial.pools);
    EXPECT_EQ(parallel.unicast_routes, serial.unicast_routes);
    EXPECT_EQ(parallel.candidate_draws, serial.candidate_draws);
    EXPECT_EQ(parallel.tables_computed, parallel.sites + 1);
    EXPECT_EQ(parallel.unicast_lookups, parallel.distinct_keys);
  }
}

TEST(SimScenario, ValidationCatchesBadKnobs) {
  ScenarioConfig bad = ScenarioConfig::small_test();
  bad.flap_traffic_share = 1.5;
  EXPECT_THROW(World{bad}, ConfigError);
  bad = ScenarioConfig::small_test();
  bad.max_route_alternatives = 0;
  EXPECT_THROW(World{bad}, ConfigError);
  bad = ScenarioConfig::small_test();
  bad.workload.total_client_24s = 0;
  EXPECT_THROW(World{bad}, ConfigError);
}

TEST(SimScenario, DigestIdentifiesWorldShapeModuloSeed) {
  const ScenarioConfig base = ScenarioConfig::small_test();
  const std::string digest = base.digest();
  EXPECT_EQ(digest.size(), 16u);  // zero-padded 64-bit hex
  EXPECT_EQ(digest, ScenarioConfig::small_test().digest());  // stable

  // Seed and thread count don't shape the world: both are excluded.
  ScenarioConfig reseeded = base;
  reseeded.seed = 999;
  reseeded.simulation_threads = 7;
  EXPECT_EQ(reseeded.digest(), digest);

  // Any world-shaping knob changes the digest.
  ScenarioConfig more_clients = base;
  more_clients.workload.total_client_24s += 1;
  EXPECT_NE(more_clients.digest(), digest);
  ScenarioConfig other_rtt = base;
  other_rtt.rtt.jitter_sigma += 0.01;
  EXPECT_NE(other_rtt.digest(), digest);
  EXPECT_NE(ScenarioConfig::paper_default().digest(), digest);
}

}  // namespace
}  // namespace acdn
