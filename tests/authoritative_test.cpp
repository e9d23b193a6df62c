#include <gtest/gtest.h>

#include "common/error.h"
#include "dns/authoritative.h"
#include "sim/world.h"

namespace acdn {
namespace {

class AuthoritativeTest : public ::testing::Test {
 protected:
  AuthoritativeTest()
      : world_(ScenarioConfig::small_test()),
        geo_policy_(world_.cdn().deployment(), world_.ldns(),
                    world_.clients(), world_.geolocation()) {}

  World world_;
  GeoClosestPolicy geo_policy_;
};

TEST_F(AuthoritativeTest, AnycastPolicyReturnsAnycastVip) {
  const AnycastPolicy anycast;
  AuthoritativeServer server(anycast, world_.cdn().deployment());
  const Client24& c = world_.clients().clients().front();
  const Ipv4Address address =
      server.resolve(c.ldns, c.prefix, SimTime{0, 100.0});
  EXPECT_TRUE(
      world_.cdn().deployment().anycast_prefix().contains(address));
  EXPECT_TRUE(server.decode(address).anycast);
  EXPECT_EQ(server.authoritative_queries(), 1u);
}

TEST_F(AuthoritativeTest, GeoPolicyReturnsFrontEndAddress) {
  AuthoritativeServer server(geo_policy_, world_.cdn().deployment());
  const Client24& c = world_.clients().clients().front();
  const Ipv4Address address =
      server.resolve(c.ldns, c.prefix, SimTime{0, 100.0});
  const DnsAnswer decoded = server.decode(address);
  EXPECT_FALSE(decoded.anycast);
  EXPECT_TRUE(decoded.front_end.valid());
}

TEST_F(AuthoritativeTest, TtlCachingSuppressesRepeatQueries) {
  AuthoritativeConfig config;
  config.answer_ttl_seconds = 60.0;
  AuthoritativeServer server(geo_policy_, world_.cdn().deployment(), config);
  const Client24& c = world_.clients().clients().front();

  const Ipv4Address first = server.resolve(c.ldns, c.prefix, SimTime{0, 0.0});
  const Ipv4Address again =
      server.resolve(c.ldns, c.prefix, SimTime{0, 30.0});
  EXPECT_EQ(first, again);
  EXPECT_EQ(server.authoritative_queries(), 1u);
  EXPECT_EQ(server.cache_hits(), 1u);

  // After the TTL, the authoritative side is asked again.
  (void)server.resolve(c.ldns, c.prefix, SimTime{0, 120.0});
  EXPECT_EQ(server.authoritative_queries(), 2u);
}

TEST_F(AuthoritativeTest, DistinctEcsPrefixesCacheSeparately) {
  AuthoritativeServer server(geo_policy_, world_.cdn().deployment());
  const auto clients = world_.clients().clients();
  const Client24& a = clients[0];
  // Find a second client behind the same resolver.
  const Client24* b = nullptr;
  for (const Client24& other : clients.subspan(1)) {
    if (other.ldns == a.ldns) {
      b = &other;
      break;
    }
  }
  if (b == nullptr) GTEST_SKIP() << "no shared-LDNS client pair";

  (void)server.resolve(a.ldns, a.prefix, SimTime{0, 0.0});
  (void)server.resolve(b->ldns, b->prefix, SimTime{0, 1.0});
  EXPECT_EQ(server.authoritative_queries(), 2u);  // both hit authoritative
}

TEST_F(AuthoritativeTest, EcsIgnoredWhenDisabled) {
  AuthoritativeConfig config;
  config.honor_ecs = false;
  AuthoritativeServer server(geo_policy_, world_.cdn().deployment(), config);
  const auto clients = world_.clients().clients();
  const Client24& a = clients[0];
  (void)server.resolve(a.ldns, a.prefix, SimTime{0, 0.0});
  // Same LDNS, different prefix: with ECS off it's the same cache entry.
  (void)server.resolve(a.ldns, Prefix(Ipv4Address(10, 99, 1, 0), 24),
                       SimTime{0, 1.0});
  EXPECT_EQ(server.authoritative_queries(), 1u);
  EXPECT_EQ(server.cache_hits(), 1u);
  EXPECT_FALSE(server.query_log().front().had_ecs);
}

TEST_F(AuthoritativeTest, QueryLogRecordsDecisions) {
  AuthoritativeServer server(geo_policy_, world_.cdn().deployment());
  const Client24& c = world_.clients().clients().front();
  (void)server.resolve(c.ldns, c.prefix, SimTime{2, 500.0});
  ASSERT_EQ(server.query_log().size(), 1u);
  const AuthQueryLogEntry& entry = server.query_log().front();
  EXPECT_EQ(entry.ldns, c.ldns);
  EXPECT_TRUE(entry.had_ecs);
  EXPECT_EQ(entry.day, 2);
  EXPECT_FALSE(entry.answered_anycast);
}

TEST_F(AuthoritativeTest, FlushForcesRequery) {
  AuthoritativeServer server(geo_policy_, world_.cdn().deployment());
  const Client24& c = world_.clients().clients().front();
  (void)server.resolve(c.ldns, c.prefix, SimTime{0, 0.0});
  server.flush_caches();
  (void)server.resolve(c.ldns, c.prefix, SimTime{0, 1.0});
  EXPECT_EQ(server.authoritative_queries(), 2u);
}

TEST_F(AuthoritativeTest, DecodeRejectsForeignAddress) {
  AuthoritativeServer server(geo_policy_, world_.cdn().deployment());
  EXPECT_THROW((void)server.decode(Ipv4Address(8, 8, 8, 8)), ConfigError);
}

TEST_F(AuthoritativeTest, RejectsNonPositiveTtl) {
  AuthoritativeConfig config;
  config.answer_ttl_seconds = 0.0;
  EXPECT_THROW(
      AuthoritativeServer(geo_policy_, world_.cdn().deployment(), config),
      ConfigError);
}

}  // namespace
}  // namespace acdn
