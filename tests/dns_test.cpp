#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "dns/cache.h"
#include "dns/ldns.h"
#include "dns/policy.h"
#include "sim/world.h"

namespace acdn {
namespace {

// ---------------------------------------------------------------- TtlCache

TEST(TtlCache, HitWithinTtlMissAfter) {
  TtlCache<int, std::string> cache(30.0);
  cache.put(1, "a", SimTime{0, 100.0});
  EXPECT_EQ(cache.get(1, SimTime{0, 120.0}), "a");
  EXPECT_EQ(cache.get(1, SimTime{0, 129.9}), "a");
  EXPECT_FALSE(cache.get(1, SimTime{0, 130.0}).has_value());
  EXPECT_EQ(cache.expirations(), 1u);
}

TEST(TtlCache, ExpiryCrossesDays) {
  TtlCache<int, int> cache(7200.0);  // 2h TTL
  cache.put(5, 42, SimTime{0, 86000.0});
  EXPECT_EQ(cache.get(5, SimTime{1, 3600.0}), 42);   // 2000s later
  EXPECT_FALSE(cache.get(5, SimTime{1, 8000.0}).has_value());
}

TEST(TtlCache, PutOverwritesAndRefreshes) {
  TtlCache<int, int> cache(10.0);
  cache.put(1, 1, SimTime{0, 0.0});
  cache.put(1, 2, SimTime{0, 8.0});
  EXPECT_EQ(cache.get(1, SimTime{0, 15.0}), 2);  // refreshed at t=8
}

TEST(TtlCache, MissOnAbsentKey) {
  TtlCache<int, int> cache(10.0);
  EXPECT_FALSE(cache.get(99, SimTime{0, 0.0}).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TtlCache, SweepEvictsExpiredEntries) {
  TtlCache<int, int> cache(10.0);
  cache.put(1, 1, SimTime{0, 0.0});
  cache.put(2, 2, SimTime{0, 5.0});
  cache.put(3, 3, SimTime{0, 100.0});
  cache.sweep(SimTime{0, 50.0});  // keys 1 and 2 expired, 3 live
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.get(3, SimTime{0, 105.0}), 3);
}

TEST(TtlCache, SizeStaysBoundedUnderChurningKeys) {
  // Regression: expired entries were only erased on an exact-key get(),
  // so a workload that inserts ever-fresh keys (resolver caches do) grew
  // without bound for the whole run. The amortized sweep from put() must
  // keep the map near the live working set instead.
  TtlCache<int, int> cache(10.0);  // at 1 put/s, ~10 entries are live
  for (int i = 0; i < 100000; ++i) {
    cache.put(i, i, SimTime{0, double(i)});
  }
  // Bound: sweeps run every max(64, size()) puts, so the map can hold the
  // live set plus at most one inter-sweep accumulation — far below the
  // 100k inserted keys, and independent of run length.
  EXPECT_LE(cache.size(), 200u);
  EXPECT_GE(cache.evictions(), 99000u);
  // Live entries survive the churn.
  cache.put(-1, 7, SimTime{0, 100000.0});
  EXPECT_EQ(cache.get(-1, SimTime{0, 100005.0}), 7);
}

TEST(TtlCache, ClearResetsSweepSchedule) {
  TtlCache<int, int> cache(10.0);
  for (int i = 0; i < 50; ++i) cache.put(i, i, SimTime{0, double(i)});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.put(1, 1, SimTime{0, 1000.0});
  EXPECT_EQ(cache.get(1, SimTime{0, 1001.0}), 1);
}

// ----------------------------------------------------------- LdnsPopulation

class LdnsTest : public ::testing::Test {
 protected:
  LdnsTest() : world_(ScenarioConfig::small_test()) {}
  World world_;
};

TEST_F(LdnsTest, EveryClientHasAnLdns) {
  for (const Client24& c : world_.clients().clients()) {
    EXPECT_TRUE(c.ldns.valid());
    [[maybe_unused]] const LdnsServer& server = world_.ldns().server(c.ldns);
  }
}

TEST_F(LdnsTest, ClientListsAreConsistent) {
  std::size_t total = 0;
  for (const LdnsServer& s : world_.ldns().servers()) {
    for (ClientId c : world_.ldns().clients_of(s.id)) {
      EXPECT_EQ(world_.clients().client(c).ldns, s.id);
      ++total;
    }
  }
  EXPECT_EQ(total, world_.clients().size());
}

TEST_F(LdnsTest, PublicResolverShareRoughlyHonored) {
  int public_clients = 0;
  for (const Client24& c : world_.clients().clients()) {
    if (world_.ldns().server(c.ldns).is_public) ++public_clients;
  }
  const double share =
      double(public_clients) / double(world_.clients().size());
  const double target = world_.config().dns.public_resolver_fraction;
  EXPECT_NEAR(share, target, 0.05);
}

TEST_F(LdnsTest, IspResolversBelongToTheClientsIsp) {
  for (const Client24& c : world_.clients().clients()) {
    const LdnsServer& s = world_.ldns().server(c.ldns);
    if (!s.is_public) {
      EXPECT_EQ(s.owner, c.access_as);
    }
  }
}

TEST_F(LdnsTest, SomeClientsAreFarFromTheirResolver) {
  // ISP resolver centralization must produce a distant-LDNS population
  // (the paper's [17]: 11-12% of demand >500 km from its LDNS).
  int far = 0;
  for (const Client24& c : world_.clients().clients()) {
    const LdnsServer& s = world_.ldns().server(c.ldns);
    if (haversine_km(c.location, s.location) > 500.0) ++far;
  }
  EXPECT_GT(far, 0);
  EXPECT_LT(double(far) / double(world_.clients().size()), 0.5);
}

TEST(DnsConfigTest, Validation) {
  DnsConfig bad;
  bad.public_resolver_fraction = 1.5;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = DnsConfig{};
  bad.metros_per_resolver_site = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = DnsConfig{};
  bad.public_resolver_sites = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
}

// ------------------------------------------------------------------ Policy

TEST_F(LdnsTest, AnycastPolicyAlwaysAnycast) {
  const AnycastPolicy policy;
  const DnsAnswer answer = policy.resolve(DnsQueryContext{LdnsId(0), {}, 0});
  EXPECT_TRUE(answer.anycast);
  EXPECT_EQ(policy.name(), "anycast");
}

TEST_F(LdnsTest, GeoClosestUsesEcsWhenAvailable) {
  const GeoClosestPolicy policy(world_.cdn().deployment(), world_.ldns(),
                                world_.clients(), world_.geolocation());
  // A client whose resolver is far away: ECS-based answers should track the
  // client, not the resolver.
  for (const Client24& c : world_.clients().clients()) {
    const LdnsServer& s = world_.ldns().server(c.ldns);
    if (haversine_km(c.location, s.location) < 2000.0) continue;

    const DnsAnswer with_ecs =
        policy.resolve(DnsQueryContext{c.ldns, c.prefix, 0});
    ASSERT_FALSE(with_ecs.anycast);
    const auto& deployment = world_.cdn().deployment();
    const Kilometers d_client = haversine_km(
        c.location,
        world_.metros()
            .metro(deployment.site(with_ecs.front_end).metro)
            .location);
    // Without ECS, the answer is chosen for the resolver's location.
    const DnsAnswer without_ecs =
        policy.resolve(DnsQueryContext{c.ldns, {}, 0});
    ASSERT_FALSE(without_ecs.anycast);
    const Kilometers d_ldns_answer = haversine_km(
        c.location,
        world_.metros()
            .metro(deployment.site(without_ecs.front_end).metro)
            .location);
    EXPECT_LE(d_client, d_ldns_answer + 1.0);
    return;  // one distant client suffices
  }
  GTEST_SKIP() << "no client with a sufficiently distant resolver";
}

TEST_F(LdnsTest, GeoClosestIsDeterministic) {
  const GeoClosestPolicy policy(world_.cdn().deployment(), world_.ldns(),
                                world_.clients(), world_.geolocation());
  const Client24& c = world_.clients().clients().front();
  const DnsAnswer a = policy.resolve(DnsQueryContext{c.ldns, c.prefix, 0});
  const DnsAnswer b = policy.resolve(DnsQueryContext{c.ldns, c.prefix, 3});
  EXPECT_EQ(a.anycast, b.anycast);
  EXPECT_EQ(a.front_end, b.front_end);
}

}  // namespace
}  // namespace acdn
