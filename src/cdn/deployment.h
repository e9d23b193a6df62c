// Front-end deployment: which metros host front-ends, and their addressing.
//
// The default deployment mirrors the paper's description of the Bing CDN:
// "dozens of front end locations around the world" (§3), dense in North
// America and Europe — the scale tier of Level3 / MaxCDN in the §4
// comparison — with density chosen so that the median client-to-nearest-
// front-end distance lands near the paper's 280 km (Figure 2).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "cdn/front_end.h"
#include "common/rng.h"
#include "common/types.h"
#include "geo/metro.h"
#include "net/allocator.h"

namespace acdn {

struct DeploymentConfig {
  /// Number of front-end sites per region, assigned to the most populous
  /// metros of the region. Defaults produce ~42 sites.
  int north_america = 16;
  int europe = 13;
  int asia = 7;
  int oceania = 2;
  int south_america = 2;
  int africa = 1;
  int middle_east = 1;

  [[nodiscard]] int count_for(Region r) const;
  [[nodiscard]] int total() const;
};

class Deployment {
 public:
  /// Takes each site's coordinates from its metro in `metros`.
  Deployment(const MetroDatabase& metros, std::vector<FrontEndSite> sites,
             Prefix anycast_prefix);

  /// Builds the default Bing-scale deployment over `metros`, allocating the
  /// anycast /24 and one unicast /24 per site from `addresses`.
  static Deployment make_default(const MetroDatabase& metros,
                                 const DeploymentConfig& config,
                                 PrefixAllocator& addresses);

  [[nodiscard]] std::size_t size() const { return sites_.size(); }
  [[nodiscard]] std::span<const FrontEndSite> sites() const { return sites_; }
  [[nodiscard]] const FrontEndSite& site(FrontEndId id) const;
  [[nodiscard]] std::optional<FrontEndId> site_at(MetroId metro) const;
  [[nodiscard]] Prefix anycast_prefix() const { return anycast_prefix_; }

  /// All site metros (one entry per site; metros are unique per site).
  [[nodiscard]] const std::vector<MetroId>& site_metros() const {
    return site_metros_;
  }

  /// Where site `id` is: its metro's center.
  [[nodiscard]] const GeoPoint& location(FrontEndId id) const;

  /// The min(k, size()) sites geographically closest to `p`, nearest
  /// first: ascending haversine_km(p, location(id)), lower id first on
  /// equal distances.
  [[nodiscard]] std::vector<FrontEndId> nearest_sites(const GeoPoint& p,
                                                      std::size_t k) const;

  /// The site whose /24 is `prefix`, if any.
  [[nodiscard]] std::optional<FrontEndId> site_for_prefix(
      const Prefix& prefix) const;

  /// False while a "cdn/front_end" fault has this site down on `day`.
  /// The fire decision hashes (day, front-end id), so an outage covers
  /// the whole day and is seen identically by every client and every
  /// worker thread. Always true when fail points are disarmed.
  [[nodiscard]] bool site_up(FrontEndId id, DayIndex day) const;

 private:
  std::vector<FrontEndSite> sites_;
  std::vector<MetroId> site_metros_;
  /// Per site, indexed by id: its location, and that location as a unit
  /// vector for nearest_sites' dot-product prefilter.
  std::vector<GeoPoint> locations_;
  std::vector<std::array<double, 3>> unit_vectors_;
  Prefix anycast_prefix_;
};

}  // namespace acdn
