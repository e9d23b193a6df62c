#include "cdn/deployment.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>

#include "common/error.h"
#include "common/failpoint.h"

namespace acdn {

namespace {

/// The dot-product margin of nearest_sites' prefilter. A site is dropped
/// only when its dot with p trails the k-th largest dot by more than this,
/// which must guarantee that each of those k sites is strictly nearer by
/// haversine_km, whatever the rounding. It does, because the margin is
/// larger than the combined rounding error of the two paths:
///  - Dot path: each unit-vector component is a product of at most two
///    libm results on rounded radians, within ~1e-15 of its exact value,
///    and the three-term dot adds a few ulp: |dot - cos θ| < 1e-14.
///  - Haversine path: h = sin²(Δφ/2) + cos φ1 cos φ2 sin²(Δλ/2) comes out
///    within Δh < 1e-14 of its exact value (radian conversion, libm and
///    product roundings). θ = 2 asin(√h) is steepest near h = 0 and h = 1,
///    where it still moves by at most π√Δh < 3.2e-7; with sqrt's and
///    asin's own roundings each site's angle is within 3.5e-7 rad.
/// Since |cos a - cos b| <= |a - b|, a dot lead of more than
/// 2·1e-14 + 2·3.5e-7 < 7.1e-7 means a strictly smaller true angle, by more
/// than both sites' haversine errors together. 1e-5 clears that 14 times
/// over; 300 km from the nearest site it keeps extra sites only within
/// about 1.4 km of the k-th.
constexpr double kDotMargin = 1e-5;

std::array<double, 3> unit_vector(const GeoPoint& p) {
  const double phi = p.lat_deg * std::numbers::pi / 180.0;
  const double lambda = p.lon_deg * std::numbers::pi / 180.0;
  const double cos_phi = std::cos(phi);
  return {cos_phi * std::cos(lambda), cos_phi * std::sin(lambda),
          std::sin(phi)};
}

}  // namespace

int DeploymentConfig::count_for(Region r) const {
  switch (r) {
    case Region::kNorthAmerica: return north_america;
    case Region::kEurope:       return europe;
    case Region::kAsia:         return asia;
    case Region::kOceania:      return oceania;
    case Region::kSouthAmerica: return south_america;
    case Region::kAfrica:       return africa;
    case Region::kMiddleEast:   return middle_east;
  }
  return 0;
}

int DeploymentConfig::total() const {
  int total = 0;
  for (int r = 0; r < kNumRegions; ++r) {
    total += count_for(static_cast<Region>(r));
  }
  return total;
}

Deployment::Deployment(const MetroDatabase& metros,
                       std::vector<FrontEndSite> sites, Prefix anycast_prefix)
    : sites_(std::move(sites)), anycast_prefix_(anycast_prefix) {
  require(!sites_.empty(), "deployment needs at least one site");
  std::set<MetroId> seen;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    sites_[i].id = FrontEndId(static_cast<std::uint32_t>(i));
    require(seen.insert(sites_[i].metro).second,
            "two front-end sites in one metro");
    site_metros_.push_back(sites_[i].metro);
    locations_.push_back(metros.metro(sites_[i].metro).location);
    unit_vectors_.push_back(unit_vector(locations_.back()));
  }
}

Deployment Deployment::make_default(const MetroDatabase& metros,
                                    const DeploymentConfig& config,
                                    PrefixAllocator& addresses) {
  const Prefix anycast = addresses.allocate_slash24();
  std::vector<FrontEndSite> sites;
  for (int r = 0; r < kNumRegions; ++r) {
    const auto region = static_cast<Region>(r);
    std::vector<MetroId> in_region = metros.in_region(region);
    std::sort(in_region.begin(), in_region.end(), [&](MetroId a, MetroId b) {
      return metros.metro(a).population_millions >
             metros.metro(b).population_millions;
    });
    const int want = std::min<int>(config.count_for(region),
                                   static_cast<int>(in_region.size()));
    for (int i = 0; i < want; ++i) {
      const Metro& m = metros.metro(in_region[static_cast<std::size_t>(i)]);
      sites.push_back(FrontEndSite{FrontEndId{}, m.id, m.name,
                                   addresses.allocate_slash24()});
    }
  }
  return Deployment(metros, std::move(sites), anycast);
}

const FrontEndSite& Deployment::site(FrontEndId id) const {
  if (!id.valid() || id.value >= sites_.size()) {
    throw NotFoundError("front-end id " + std::to_string(id.value));
  }
  return sites_[id.value];
}

std::optional<FrontEndId> Deployment::site_at(MetroId metro) const {
  for (const FrontEndSite& s : sites_) {
    if (s.metro == metro) return s.id;
  }
  return std::nullopt;
}

const GeoPoint& Deployment::location(FrontEndId id) const {
  return locations_[site(id).id.value];
}

std::vector<FrontEndId> Deployment::nearest_sites(const GeoPoint& p,
                                                  std::size_t k) const {
  const std::size_t n = std::min(k, sites_.size());
  if (n == 0) return {};
  // Prefilter: p's dot product with every site (larger = nearer), then
  // drop every site more than kDotMargin below the n-th largest dot. The
  // kept sites include the n nearest (see kDotMargin), and their
  // (haversine_km, id) pairs sort exactly as a full scan's would.
  const std::array<double, 3> u = unit_vector(p);
  std::vector<std::pair<double, FrontEndId>> ranked(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const std::array<double, 3>& v = unit_vectors_[i];
    ranked[i] = {u[0] * v[0] + u[1] * v[1] + u[2] * v[2], sites_[i].id};
  }
  double floor = -2.0;  // below any dot: keep every site when n == size()
  if (n < ranked.size()) {
    const auto nth = ranked.begin() + static_cast<long>(n - 1);
    std::nth_element(ranked.begin(), nth, ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    floor = nth->first - kDotMargin;
  }
  // Compact the kept sites in place as (km, id).
  std::size_t kept = 0;
  for (const auto& [dot, id] : ranked) {
    if (dot < floor) continue;
    const FrontEndId site_id = id;
    ranked[kept++] = {haversine_km(p, locations_[site_id.value]), site_id};
  }
  ranked.resize(kept);
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(n),
                    ranked.end());
  std::vector<FrontEndId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(ranked[i].second);
  return out;
}

std::optional<FrontEndId> Deployment::site_for_prefix(
    const Prefix& prefix) const {
  for (const FrontEndSite& s : sites_) {
    if (s.unicast_prefix == prefix) return s.id;
  }
  return std::nullopt;
}

bool Deployment::site_up(FrontEndId id, DayIndex day) const {
  static const FailPoint outage("cdn/front_end");
  return !outage.fire(day, std::uint64_t(id.value)).has_value();
}

}  // namespace acdn
