#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>

#include "beacon/beacon.h"
#include "beacon/store.h"
#include "common/metrics.h"
#include "sim/world.h"
#include "test_fixtures.h"

namespace acdn {
namespace {

class BeaconTest : public ::testing::Test {
 protected:
  BeaconTest() : world_(ScenarioConfig::small_test()) {}
  World world_;
};

TEST_F(BeaconTest, CandidatePoolSizeAndOrder) {
  for (const LdnsServer& s : world_.ldns().servers()) {
    const auto candidates = world_.beacon().candidates_for(s.id);
    EXPECT_LE(candidates.size(),
              static_cast<std::size_t>(world_.config().beacon.candidate_pool));
    EXPECT_GE(candidates.size(), 1u);
    // No duplicates.
    std::set<FrontEndId> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), candidates.size());
  }
}

TEST_F(BeaconTest, RunBeaconEmitsFourFetches) {
  const Client24& client = world_.clients().clients().front();
  const RouteResult anycast =
      world_.router().route_anycast(client.access_as, client.metro);
  ASSERT_TRUE(anycast.valid);

  Rng rng(3);
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
  world_.beacon().run_beacon(client, SimTime{0, 3600.0}, anycast, rng,
                             dns_log, http_log);
  EXPECT_EQ(dns_log.size(), 4u);
  EXPECT_EQ(http_log.size(), 4u);

  // Exactly one anycast fetch; unicast targets are distinct front-ends.
  int anycast_fetches = 0;
  std::set<FrontEndId> unicast_targets;
  for (const HttpLogEntry& h : http_log) {
    EXPECT_GT(h.rtt_ms, 0.0);
    EXPECT_EQ(h.client, client.id);
    if (h.anycast) {
      ++anycast_fetches;
      EXPECT_EQ(h.front_end, anycast.front_end);
    } else {
      EXPECT_TRUE(unicast_targets.insert(h.front_end).second);
    }
  }
  EXPECT_EQ(anycast_fetches, 1);
  EXPECT_EQ(unicast_targets.size(), 3u);

  // The closest candidate to the LDNS is always among the unicast targets.
  const auto pool = world_.beacon().candidates_for(client.ldns);
  EXPECT_TRUE(unicast_targets.count(pool.front()));
  // All DNS rows carry the client's resolver.
  for (const DnsLogEntry& d : dns_log) EXPECT_EQ(d.ldns, client.ldns);
}

TEST_F(BeaconTest, UrlIdsAreGloballyUnique) {
  const Client24& client = world_.clients().clients().front();
  const RouteResult anycast =
      world_.router().route_anycast(client.access_as, client.metro);
  Rng rng(3);
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
  for (int i = 0; i < 10; ++i) {
    world_.beacon().run_beacon(client, SimTime{0, 3600.0}, anycast, rng,
                               dns_log, http_log);
  }
  std::set<std::uint64_t> ids;
  for (const DnsLogEntry& d : dns_log) EXPECT_TRUE(ids.insert(d.url_id).second);
}

TEST_F(BeaconTest, MeasureAllCandidatesReturnsOnePerCandidate) {
  const Client24& client = world_.clients().clients().front();
  Rng rng(4);
  const auto rtts = world_.beacon().measure_all_candidates(
      client, SimTime{0, 7200.0}, rng);
  EXPECT_EQ(rtts.size(),
            world_.beacon().candidates_for(client.ldns).size());
  for (Milliseconds ms : rtts) EXPECT_GT(ms, 0.0);
}

TEST_F(BeaconTest, RandomTargetsAreDistanceWeighted) {
  // §3.3: "we return the 3rd closest front-end with higher probability
  // than the 4th closest". Count how often each candidate rank appears as
  // a random target over many beacon executions.
  const Client24& client = world_.clients().clients().front();
  const RouteResult anycast =
      world_.router().route_anycast(client.access_as, client.metro);
  const auto pool = world_.beacon().candidates_for(client.ldns);
  ASSERT_GE(pool.size(), 6u);

  Rng rng(17);
  std::map<FrontEndId, int> picked;
  for (int i = 0; i < 4000; ++i) {
    std::vector<DnsLogEntry> dns_log;
    std::vector<HttpLogEntry> http_log;
    world_.beacon().run_beacon(client, SimTime{0, 3600.0}, anycast, rng,
                               dns_log, http_log);
    for (const HttpLogEntry& h : http_log) {
      if (!h.anycast && h.front_end != pool.front()) ++picked[h.front_end];
    }
  }
  // 2nd-closest (pool[1], the closest random-eligible) clearly beats the
  // farthest candidate.
  EXPECT_GT(picked[pool[1]], picked[pool.back()] * 2);
}

TEST_F(BeaconTest, NearerFrontEndsHaveLowerRtt) {
  // Averaged over samples, the closest candidate must beat the farthest.
  const Client24& client = world_.clients().clients().front();
  const auto pool = world_.beacon().candidates_for(client.ldns);
  ASSERT_GE(pool.size(), 3u);
  Rng rng(5);
  double near_sum = 0.0, far_sum = 0.0;
  for (int i = 0; i < 50; ++i) {
    near_sum += world_.beacon().unicast_rtt(client, pool.front(),
                                            SimTime{0, 3600.0}, rng);
    far_sum += world_.beacon().unicast_rtt(client, pool.back(),
                                           SimTime{0, 3600.0}, rng);
  }
  EXPECT_LT(near_sum, far_sum);
}

std::uint64_t unicast_lookups() {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find("router.unicast_lookups");
  return it == snap.counters.end() ? 0u : it->second;
}

TEST_F(BeaconTest, UnicastRttReadsPoolStoreAndResolvesTheRest) {
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  const BeaconSystem& beacon = world_.beacon();
  const auto population = world_.clients().clients();
  const Client24& client = population.front();
  const auto pool = beacon.candidates_for(client.ldns);
  const SimTime when{0, 3600.0};

  // Every unicast_rtt call, replayable against a fresh route_unicast.
  struct Call {
    Client24 client;
    FrontEndId fe;
    std::uint64_t seed;
    std::uint64_t rtt_bits;
  };
  std::vector<Call> calls;
  const auto measure = [&](const Client24& c, FrontEndId fe) {
    const std::uint64_t seed = 100 + calls.size();
    Rng rng(seed);
    calls.push_back({c, fe, seed,
                     std::bit_cast<std::uint64_t>(
                         beacon.unicast_rtt(c, fe, when, rng))});
  };

  // The client's own pool candidates come from the pre-resolved store.
  std::uint64_t start = unicast_lookups();
  for (int rep = 0; rep < 3; ++rep) {
    for (FrontEndId fe : pool) measure(client, fe);
  }
  EXPECT_EQ(unicast_lookups(), start);

  // Front-ends outside the pool resolve through the router on every call.
  std::vector<FrontEndId> outside;
  for (const FrontEndSite& site : world_.cdn().deployment().sites()) {
    if (std::find(pool.begin(), pool.end(), site.id) == pool.end()) {
      outside.push_back(site.id);
    }
  }
  ASSERT_FALSE(outside.empty());
  start = unicast_lookups();
  for (int rep = 0; rep < 3; ++rep) {
    for (FrontEndId fe : outside) measure(client, fe);
  }
  EXPECT_EQ(unicast_lookups() - start, 3 * outside.size());

  // A synthetic client reusing the id under another routing unit is not
  // the population client, so even its own pool's routes resolve on
  // every call.
  const auto other = std::find_if(
      population.begin(), population.end(), [&](const Client24& c) {
        return c.access_as != client.access_as || c.metro != client.metro;
      });
  ASSERT_NE(other, population.end());
  Client24 synthetic = client;
  synthetic.access_as = other->access_as;
  synthetic.metro = other->metro;
  start = unicast_lookups();
  for (int rep = 0; rep < 3; ++rep) {
    for (FrontEndId fe : pool) measure(synthetic, fe);
  }
  EXPECT_EQ(unicast_lookups() - start, 3 * pool.size());
  set_metrics_enabled(was_enabled);

  // Each RTT is the one route_rtt gives over a freshly resolved route.
  for (const Call& call : calls) {
    Rng rng(call.seed);
    const RouteResult route = world_.router().route_unicast(
        call.client.access_as, call.client.metro, call.fe);
    EXPECT_EQ(call.rtt_bits, std::bit_cast<std::uint64_t>(beacon.route_rtt(
                                 call.client, route, when, rng)))
        << "fe " << call.fe.value;
  }
}

// ------------------------------------------------------- MeasurementStore

TEST(MeasurementStore, JoinMatchesOnUrlId) {
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
  // Beacon 0: 4 fetches; beacon 1: only 2 HTTP rows arrive; one HTTP row
  // has no matching DNS row and is dropped.
  for (std::uint64_t k = 0; k < 4; ++k) {
    dns_log.push_back({k, LdnsId(7), 0});
    http_log.push_back({k, ClientId(1), k == 0, FrontEndId(unsigned(k)),
                        10.0 + double(k), 0, 1.0});
  }
  dns_log.push_back({4, LdnsId(7), 0});
  http_log.push_back({4, ClientId(2), true, FrontEndId(0), 20.0, 0, 2.0});
  http_log.push_back({99, ClientId(3), false, FrontEndId(1), 30.0, 0, 3.0});

  MeasurementStore store;
  store.join(dns_log, http_log);
  EXPECT_EQ(store.total(), 2u);
  const auto day0 = store.by_day(0);
  ASSERT_EQ(day0.size(), 2u);
  EXPECT_EQ(day0[0].targets.size(), 4u);
  EXPECT_EQ(day0[0].client, ClientId(1));
  EXPECT_EQ(day0[0].ldns, LdnsId(7));
  EXPECT_EQ(day0[1].targets.size(), 1u);
  EXPECT_EQ(day0[1].client, ClientId(2));
}

TEST(MeasurementStore, ByDayOutOfRangeIsEmpty) {
  MeasurementStore store;
  EXPECT_TRUE(store.by_day(0).empty());
  EXPECT_TRUE(store.by_day(-1).empty());
  BeaconMeasurement m;
  m.day = 2;
  store.add(std::move(m));
  EXPECT_TRUE(store.by_day(0).empty());
  EXPECT_EQ(store.by_day(2).size(), 1u);
  EXPECT_EQ(store.days(), 3);
}

TEST(BeaconMeasurementHelpers, AnycastAndBestUnicast) {
  const BeaconMeasurement m = testfx::make_measurement(
      1, 2, 0, 25.0, {{0, 40.0}, {1, 18.0}, {2, 30.0}});
  EXPECT_EQ(m.anycast_ms(), 25.0);
  const auto best = m.best_unicast();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->front_end, FrontEndId(1));
  EXPECT_DOUBLE_EQ(best->rtt_ms, 18.0);

  BeaconMeasurement empty;
  EXPECT_FALSE(empty.anycast_ms().has_value());
  EXPECT_FALSE(empty.best_unicast().has_value());
  EXPECT_FALSE(empty.anycast_front_end().has_value());
}

TEST(PassiveLogStore, AddAndQuery) {
  PassiveLog log;
  log.add({ClientId(1), FrontEndId(0), 0, 10.0});
  log.add({ClientId(1), FrontEndId(1), 1, 5.0});
  log.add({ClientId(2), FrontEndId(0), 1, 7.0});
  EXPECT_EQ(log.days(), 2);
  EXPECT_EQ(log.by_day(0).size(), 1u);
  EXPECT_EQ(log.by_day(1).size(), 2u);
  EXPECT_EQ(log.total(), 3u);
}

}  // namespace
}  // namespace acdn
