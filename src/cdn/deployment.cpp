#include "cdn/deployment.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "common/failpoint.h"

namespace acdn {

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

Deployment::Deployment(std::vector<FrontEndSite> sites, Prefix anycast_prefix)
    : sites_(std::move(sites)), anycast_prefix_(anycast_prefix) {
  require(!sites_.empty(), "deployment needs at least one site");
  std::set<MetroId> seen;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    sites_[i].id = FrontEndId(static_cast<std::uint32_t>(i));
    require(seen.insert(sites_[i].metro).second,
            "two front-end sites in one metro");
    site_metros_.push_back(sites_[i].metro);
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
  return Deployment(std::move(sites), anycast);
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

std::vector<FrontEndId> Deployment::nearest_sites(const MetroDatabase& metros,
                                                  const GeoPoint& p,
                                                  std::size_t k) const {
  // Site coordinates as columns, then one batch haversine from p
  // (bit-identical per site to haversine_km(p, site), with p's cosine
  // computed once).
  std::vector<double> lat;
  std::vector<double> lon;
  lat.reserve(sites_.size());
  lon.reserve(sites_.size());
  for (const FrontEndSite& s : sites_) {
    const GeoPoint& where = metros.metro(s.metro).location;
    lat.push_back(where.lat_deg);
    lon.push_back(where.lon_deg);
  }
  std::vector<Kilometers> km(sites_.size());
  haversine_km_batch(p, lat, lon, km);

  std::vector<std::pair<Kilometers, FrontEndId>> dist;
  dist.reserve(sites_.size());
  for (const FrontEndSite& s : sites_) {
    dist.emplace_back(km[s.id.value], s.id);
  }
  const std::size_t n = std::min(k, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(n),
                    dist.end());
  std::vector<FrontEndId> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(dist[i].second);
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
