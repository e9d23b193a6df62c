// World metro-area database.
//
// The synthetic Internet is anchored on real metropolitan areas: clients are
// placed around metros proportionally to population, ISPs and IXPs exist per
// metro, and CDN front-ends are deployed in metros. The embedded database
// covers ~270 of the largest and mid-size metros worldwide with approximate coordinates
// and metro-area populations.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "geo/geo_point.h"

namespace acdn {

struct Metro {
  MetroId id;
  std::string name;
  std::string country;  // ISO 3166-1 alpha-2
  Region region = Region::kNorthAmerica;
  GeoPoint location;
  double population_millions = 0.0;
};

/// Immutable registry of metros. Obtain the built-in data set with world();
/// tests may construct smaller databases directly.
///
/// Construction fills a row-major table of every ordered pair's
/// haversine_km between metro centers (the world set's 266 metros take
/// 566 KB), so distance_km is one load.
class MetroDatabase {
 public:
  explicit MetroDatabase(std::vector<Metro> metros);

  /// The embedded ~270-metro world data set (singleton, built on first use).
  static const MetroDatabase& world();

  [[nodiscard]] std::size_t size() const { return metros_.size(); }
  [[nodiscard]] const Metro& metro(MetroId id) const;
  [[nodiscard]] std::span<const Metro> all() const { return metros_; }

  /// Metro whose center is closest to `p`.
  [[nodiscard]] MetroId nearest(const GeoPoint& p) const;

  /// The k metros closest to `p`, nearest first.
  [[nodiscard]] std::vector<MetroId> k_nearest(const GeoPoint& p,
                                               std::size_t k) const;

  /// All metros with centers within `radius_km` of `p`, nearest first.
  [[nodiscard]] std::vector<MetroId> within_radius(const GeoPoint& p,
                                                   Kilometers radius_km) const;

  [[nodiscard]] std::vector<MetroId> in_region(Region r) const;
  [[nodiscard]] double total_population(Region r) const;
  [[nodiscard]] double total_population() const;

  /// Case-sensitive exact-name lookup; nullopt if absent.
  [[nodiscard]] std::optional<MetroId> find_by_name(std::string_view name) const;

  /// haversine_km between the two metros' centers, read from the table.
  /// Throws NotFoundError for an id outside the database.
  [[nodiscard]] Kilometers distance_km(MetroId a, MetroId b) const {
    const std::size_t n = metros_.size();
    if (a.value >= n) throw_unknown(a);
    if (b.value >= n) throw_unknown(b);
    return distance_[std::size_t{a.value} * n + b.value];
  }

 private:
  [[noreturn]] static void throw_unknown(MetroId id);

  std::vector<Metro> metros_;
  std::vector<Kilometers> distance_;  // [a * size() + b]
};

}  // namespace acdn
