#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <set>
#include <utility>

#include "cdn/catalogs.h"
#include "cdn/network.h"
#include "cdn/router.h"
#include "common/error.h"
#include "common/rng.h"
#include "test_fixtures.h"

namespace acdn {
namespace {

using testfx::kChicago;
using testfx::kDenver;
using testfx::kNewYork;
using testfx::kSeattle;

// -------------------------------------------------------------- Deployment

TEST(Deployment, DefaultMatchesConfigTotal) {
  PrefixAllocator addresses = PrefixAllocator::cdn_pool();
  const DeploymentConfig config;
  const Deployment d =
      Deployment::make_default(MetroDatabase::world(), config, addresses);
  EXPECT_EQ(static_cast<int>(d.size()), config.total());
}

TEST(Deployment, SitesHaveUniqueMetrosAndPrefixes) {
  PrefixAllocator addresses = PrefixAllocator::cdn_pool();
  const Deployment d = Deployment::make_default(MetroDatabase::world(),
                                                DeploymentConfig{}, addresses);
  std::set<MetroId> metros;
  std::set<Prefix> prefixes;
  for (const FrontEndSite& s : d.sites()) {
    EXPECT_TRUE(metros.insert(s.metro).second);
    EXPECT_TRUE(prefixes.insert(s.unicast_prefix).second);
    EXPECT_NE(s.unicast_prefix, d.anycast_prefix());
  }
}

TEST(Deployment, RegionalCountsMatch) {
  PrefixAllocator addresses = PrefixAllocator::cdn_pool();
  const DeploymentConfig config;
  const Deployment d = Deployment::make_default(MetroDatabase::world(),
                                                config, addresses);
  int na = 0;
  for (const FrontEndSite& s : d.sites()) {
    if (MetroDatabase::world().metro(s.metro).region ==
        Region::kNorthAmerica) {
      ++na;
    }
  }
  EXPECT_EQ(na, config.north_america);
}

TEST(Deployment, NearestSitesSorted) {
  PrefixAllocator addresses = PrefixAllocator::cdn_pool();
  const Deployment d = Deployment::make_default(MetroDatabase::world(),
                                                DeploymentConfig{}, addresses);
  const GeoPoint berlin{52.52, 13.40};
  const auto nearest = d.nearest_sites(berlin, 5);
  ASSERT_EQ(nearest.size(), 5u);
  Kilometers prev = 0.0;
  for (FrontEndId fe : nearest) {
    const Kilometers dkm = haversine_km(berlin, d.location(fe));
    EXPECT_GE(dkm, prev);
    prev = dkm;
  }
}

/// Every site by full scan: haversine_km to each, ordered by (km, id).
/// nearest_sites(p, k) must return the first min(k, size) of these.
std::vector<FrontEndId> sites_by_full_scan(const Deployment& d,
                                           const GeoPoint& p) {
  std::vector<std::pair<Kilometers, FrontEndId>> dist;
  for (const FrontEndSite& s : d.sites()) {
    dist.emplace_back(haversine_km(p, d.location(s.id)), s.id);
  }
  std::sort(dist.begin(), dist.end());
  std::vector<FrontEndId> out;
  for (const auto& [km, id] : dist) out.push_back(id);
  return out;
}

GeoPoint from_unit(double x, double y, double z) {
  constexpr double kDeg = 180.0 / std::numbers::pi;
  return GeoPoint{std::atan2(z, std::hypot(x, y)) * kDeg,
                  std::atan2(y, x) * kDeg};
}

/// Points that stress the dot-product prefilter: uniform random points,
/// every site's own location and its antipode, the poles, the antimeridian
/// from both sides, and the great-circle midpoint of every pair of sites,
/// where two sites tie.
std::vector<GeoPoint> prefilter_probe_points(const Deployment& d) {
  std::vector<GeoPoint> points;
  Rng rng(18);
  for (int i = 0; i < 10000; ++i) {
    const double lat =
        std::asin(rng.uniform(-1.0, 1.0)) * 180.0 / std::numbers::pi;
    points.push_back({lat, rng.uniform(-180.0, 180.0)});
  }
  points.push_back({90.0, 0.0});
  points.push_back({-90.0, 0.0});
  for (const double lat : {-60.0, -30.0, 0.0, 30.0, 60.0}) {
    points.push_back({lat, 180.0});
    points.push_back({lat, -180.0});
  }
  std::vector<std::array<double, 3>> unit;
  for (const FrontEndSite& s : d.sites()) {
    const GeoPoint& at = d.location(s.id);
    points.push_back(at);
    points.push_back(
        {-at.lat_deg, at.lon_deg > 0.0 ? at.lon_deg - 180.0
                                       : at.lon_deg + 180.0});
    const double phi = at.lat_deg * std::numbers::pi / 180.0;
    const double lambda = at.lon_deg * std::numbers::pi / 180.0;
    unit.push_back({std::cos(phi) * std::cos(lambda),
                    std::cos(phi) * std::sin(lambda), std::sin(phi)});
  }
  for (std::size_t i = 0; i < unit.size(); ++i) {
    for (std::size_t j = i + 1; j < unit.size(); ++j) {
      const double x = unit[i][0] + unit[j][0];
      const double y = unit[i][1] + unit[j][1];
      const double z = unit[i][2] + unit[j][2];
      if (std::sqrt(x * x + y * y + z * z) < 1e-9) continue;  // antipodal
      points.push_back(from_unit(x, y, z));
    }
  }
  return points;
}

TEST(Deployment, NearestSitesMatchFullScanReference) {
  DeploymentConfig tripled;
  for (int* count : {&tripled.north_america, &tripled.europe, &tripled.asia,
                     &tripled.oceania, &tripled.south_america,
                     &tripled.africa, &tripled.middle_east}) {
    *count *= 3;
  }
  for (const DeploymentConfig& config : {DeploymentConfig{}, tripled}) {
    PrefixAllocator addresses = PrefixAllocator::cdn_pool();
    const Deployment d =
        Deployment::make_default(MetroDatabase::world(), config, addresses);
    const std::vector<GeoPoint> points = prefilter_probe_points(d);
    ASSERT_GE(points.size(), 10000u + 2 * d.size());
    std::size_t mismatches = 0;
    for (const GeoPoint& p : points) {
      const std::vector<FrontEndId> full = sites_by_full_scan(d, p);
      for (const std::size_t k :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{10},
            d.size(), d.size() + 3}) {
        const std::vector<FrontEndId> want(
            full.begin(),
            full.begin() + static_cast<long>(std::min(k, full.size())));
        if (d.nearest_sites(p, k) != want) {
          ADD_FAILURE() << "k=" << k << " at (" << p.lat_deg << ", "
                        << p.lon_deg << ") with " << d.size() << " sites";
          if (++mismatches > 10) return;
        }
      }
    }
  }
}

TEST(Deployment, SiteForPrefixRoundTrip) {
  PrefixAllocator addresses = PrefixAllocator::cdn_pool();
  const Deployment d = Deployment::make_default(MetroDatabase::world(),
                                                DeploymentConfig{}, addresses);
  for (const FrontEndSite& s : d.sites()) {
    const auto found = d.site_for_prefix(s.unicast_prefix);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, s.id);
  }
  EXPECT_FALSE(
      d.site_for_prefix(Prefix(Ipv4Address(1, 2, 3, 0), 24)).has_value());
}

TEST(Deployment, LookupErrors) {
  PrefixAllocator addresses = PrefixAllocator::cdn_pool();
  const Deployment d = Deployment::make_default(MetroDatabase::world(),
                                                DeploymentConfig{}, addresses);
  EXPECT_THROW((void)d.site(FrontEndId(9999)), NotFoundError);
  EXPECT_FALSE(d.site_at(MetroId(100000)).has_value());
}

// ---------------------------------------------------------------- Catalogs

TEST(Catalogs, TwentyTwoEntriesSortedDescending) {
  const auto catalog = cdn_catalog();
  EXPECT_EQ(catalog.size(), 22u);  // 21 public CDNs + the study's own
  // Paper-quoted values.
  bool found_level3 = false, found_cdnify = false;
  for (const auto& e : catalog) {
    if (e.name == "Level3") {
      EXPECT_EQ(e.locations, 62);
      found_level3 = true;
    }
    if (e.name == "CDNify") {
      EXPECT_EQ(e.locations, 17);
      found_cdnify = true;
    }
  }
  EXPECT_TRUE(found_level3);
  EXPECT_TRUE(found_cdnify);
  EXPECT_TRUE(study_cdn().anycast);
}

// ---------------------------------------------------- CdnNetwork + Router

class CdnFixture : public ::testing::Test {
 protected:
  CdnFixture()
      : metros_(testfx::tiny_metros()), graph_(metros_) {
    // Access + transit skeleton (no CDN yet).
    AsNode tier1;
    tier1.name = "Tier1";
    tier1.type = AsType::kTier1;
    tier1.presence = {kSeattle, kDenver, kChicago, kNewYork};
    tier1.backbone_stretch = 1.0;
    tier1_ = graph_.add_as(tier1);

    AsNode isp;
    isp.name = "ISP";
    isp.type = AsType::kAccess;
    isp.presence = {kSeattle, kDenver, kChicago, kNewYork};
    isp.backbone_stretch = 1.0;
    isp_ = graph_.add_as(isp);
    graph_.add_link({isp_, tier1_, Relationship::kCustomerToProvider,
                     {kSeattle, kDenver, kChicago, kNewYork}});

    // Two front-ends: Seattle and NewYork.
    std::vector<FrontEndSite> sites;
    PrefixAllocator addresses = PrefixAllocator::cdn_pool();
    const Prefix anycast = addresses.allocate_slash24();
    sites.push_back(FrontEndSite{FrontEndId{}, kSeattle, "Seattle",
                                 addresses.allocate_slash24()});
    sites.push_back(FrontEndSite{FrontEndId{}, kNewYork, "NewYork",
                                 addresses.allocate_slash24()});
    Deployment deployment(metros_, std::move(sites), anycast);

    CdnNetworkConfig config;
    config.extra_peering_metros = 1;  // Chicago or Denver becomes peering-only
    Rng rng(4);
    cdn_ = std::make_unique<CdnNetwork>(graph_, std::move(deployment), config,
                                        rng);
    router_ = std::make_unique<CdnRouter>(graph_, *cdn_);
  }

  MetroDatabase metros_;
  AsGraph graph_;
  AsId tier1_;
  AsId isp_;
  std::unique_ptr<CdnNetwork> cdn_;
  std::unique_ptr<CdnRouter> router_;
};

TEST_F(CdnFixture, PresenceIncludesSitesAndExtras) {
  const auto& announce = cdn_->anycast_announce_metros();
  EXPECT_EQ(announce.size(), 3u);  // 2 sites + 1 peering-only PoP
  EXPECT_TRUE(std::find(announce.begin(), announce.end(), kSeattle) !=
              announce.end());
  EXPECT_TRUE(std::find(announce.begin(), announce.end(), kNewYork) !=
              announce.end());
}

TEST_F(CdnFixture, UnicastAnnouncedAtSiteMetroOnly) {
  const FrontEndId seattle_fe = *cdn_->deployment().site_at(kSeattle);
  const auto& announce = cdn_->unicast_announce_metros(seattle_fe);
  ASSERT_EQ(announce.size(), 1u);
  EXPECT_EQ(announce.front(), kSeattle);
}

TEST_F(CdnFixture, NearestFrontEndFromPops) {
  const FrontEndId seattle_fe = *cdn_->deployment().site_at(kSeattle);
  const FrontEndId ny_fe = *cdn_->deployment().site_at(kNewYork);
  EXPECT_EQ(cdn_->nearest_front_end(kSeattle), seattle_fe);
  EXPECT_EQ(cdn_->nearest_front_end(kNewYork), ny_fe);
  EXPECT_DOUBLE_EQ(cdn_->backbone_km(kSeattle, seattle_fe), 0.0);
  EXPECT_GT(cdn_->backbone_km(kSeattle, ny_fe), 3000.0);
  EXPECT_THROW((void)cdn_->nearest_front_end(MetroId(999)), Error);
}

TEST_F(CdnFixture, AnycastRoutesToNearbyFrontEnd) {
  const RouteResult seattle = router_->route_anycast(isp_, kSeattle);
  ASSERT_TRUE(seattle.valid);
  EXPECT_EQ(seattle.front_end, *cdn_->deployment().site_at(kSeattle));
  const RouteResult ny = router_->route_anycast(isp_, kNewYork);
  ASSERT_TRUE(ny.valid);
  EXPECT_EQ(ny.front_end, *cdn_->deployment().site_at(kNewYork));
}

TEST_F(CdnFixture, UnicastForcesTheTarget) {
  const FrontEndId ny_fe = *cdn_->deployment().site_at(kNewYork);
  const RouteResult r = router_->route_unicast(isp_, kSeattle, ny_fe);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.front_end, ny_fe);
  EXPECT_EQ(r.ingress_metro, kNewYork);
  EXPECT_GT(r.path_km, 3000.0);  // cross-country haul
  EXPECT_DOUBLE_EQ(r.backbone_km, 0.0);
}

TEST_F(CdnFixture, TraceMatchesRoute) {
  const CdnRouter::Trace trace = router_->trace_anycast(isp_, kDenver);
  ASSERT_TRUE(trace.result.valid);
  ASSERT_TRUE(trace.path.valid);
  EXPECT_EQ(trace.path.ingress_metro, trace.result.ingress_metro);
  EXPECT_DOUBLE_EQ(trace.path.total_km, trace.result.path_km);
}

TEST_F(CdnFixture, CandidateCountPositive) {
  EXPECT_GE(router_->anycast_candidate_count(isp_), 1u);
}

TEST_F(CdnFixture, TotalKmAddsBackbone) {
  RouteResult r;
  r.valid = true;
  r.path_km = 100.0;
  r.backbone_km = 50.0;
  EXPECT_DOUBLE_EQ(r.total_km(), 150.0);
}

}  // namespace
}  // namespace acdn
