#include "geo/geo_point.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace acdn {

namespace {
constexpr double kEarthRadiusKm = 6371.0088;  // mean Earth radius

double rad(double deg) { return deg * std::numbers::pi / 180.0; }
double deg(double r) { return r * 180.0 / std::numbers::pi; }
}  // namespace

const char* to_string(Region r) {
  switch (r) {
    case Region::kNorthAmerica: return "North America";
    case Region::kSouthAmerica: return "South America";
    case Region::kEurope:       return "Europe";
    case Region::kAsia:         return "Asia";
    case Region::kOceania:      return "Oceania";
    case Region::kAfrica:       return "Africa";
    case Region::kMiddleEast:   return "Middle East";
  }
  return "?";
}

Kilometers haversine_km(const GeoPoint& a, const GeoPoint& b) {
  const double phi1 = rad(a.lat_deg);
  const double phi2 = rad(b.lat_deg);
  const double dphi = rad(b.lat_deg - a.lat_deg);
  const double dlam = rad(b.lon_deg - a.lon_deg);
  const double s = std::sin(dphi / 2.0);
  const double t = std::sin(dlam / 2.0);
  const double h = s * s + std::cos(phi1) * std::cos(phi2) * t * t;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

double initial_bearing_deg(const GeoPoint& a, const GeoPoint& b) {
  const double phi1 = rad(a.lat_deg);
  const double phi2 = rad(b.lat_deg);
  const double dlam = rad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlam) * std::cos(phi2);
  const double x = std::cos(phi1) * std::sin(phi2) -
                   std::sin(phi1) * std::cos(phi2) * std::cos(dlam);
  const double theta = std::atan2(y, x);
  return std::fmod(deg(theta) + 360.0, 360.0);
}

GeoPoint destination_point(const GeoPoint& origin, double bearing_deg,
                           Kilometers distance_km) {
  const double delta = distance_km / kEarthRadiusKm;
  const double theta = rad(bearing_deg);
  const double phi1 = rad(origin.lat_deg);
  const double lam1 = rad(origin.lon_deg);
  const double phi2 = std::asin(std::sin(phi1) * std::cos(delta) +
                                std::cos(phi1) * std::sin(delta) *
                                    std::cos(theta));
  const double lam2 =
      lam1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(phi1),
                        std::cos(delta) - std::sin(phi1) * std::sin(phi2));
  double lon = deg(lam2);
  // Normalize longitude to [-180, 180].
  lon = std::fmod(lon + 540.0, 360.0) - 180.0;
  return GeoPoint{deg(phi2), lon};
}

}  // namespace acdn
