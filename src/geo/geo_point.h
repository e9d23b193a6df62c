// Geographic primitives: points on the WGS84 sphere and great-circle math.
#pragma once

#include <string>

#include "common/types.h"

namespace acdn {

/// Continental region, used by the paper for Figure 3's per-region CCDFs and
/// by the topology builder for deployment density.
enum class Region {
  kNorthAmerica,
  kSouthAmerica,
  kEurope,
  kAsia,
  kOceania,
  kAfrica,
  kMiddleEast,
};

[[nodiscard]] const char* to_string(Region r);
inline constexpr int kNumRegions = 7;

/// A point on the Earth's surface. Degrees; latitude in [-90, 90],
/// longitude in [-180, 180].
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  auto operator<=>(const GeoPoint&) const = default;
};

/// Great-circle distance in kilometers (haversine, mean Earth radius).
[[nodiscard]] Kilometers haversine_km(const GeoPoint& a, const GeoPoint& b);

/// Initial bearing from `a` to `b` in degrees clockwise from north, [0, 360).
[[nodiscard]] double initial_bearing_deg(const GeoPoint& a, const GeoPoint& b);

/// The point reached by travelling `distance_km` from `origin` along
/// `bearing_deg`. Used to jitter client locations around their metro center.
[[nodiscard]] GeoPoint destination_point(const GeoPoint& origin,
                                         double bearing_deg,
                                         Kilometers distance_km);

}  // namespace acdn
