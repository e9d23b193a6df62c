#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.h"
#include "geo/geo_point.h"
#include "geo/geolocation.h"
#include "geo/metro.h"

namespace acdn {
namespace {

constexpr GeoPoint kLondon{51.51, -0.13};
constexpr GeoPoint kNewYork{40.71, -74.01};
constexpr GeoPoint kSydney{-33.87, 151.21};

TEST(Haversine, KnownDistances) {
  // London - New York is about 5570 km.
  EXPECT_NEAR(haversine_km(kLondon, kNewYork), 5570.0, 60.0);
  // London - Sydney is about 16990 km.
  EXPECT_NEAR(haversine_km(kLondon, kSydney), 16990.0, 150.0);
}

TEST(Haversine, ZeroForIdenticalPoints) {
  EXPECT_DOUBLE_EQ(haversine_km(kLondon, kLondon), 0.0);
}

TEST(Haversine, Symmetric) {
  EXPECT_DOUBLE_EQ(haversine_km(kLondon, kNewYork),
                   haversine_km(kNewYork, kLondon));
}

TEST(DestinationPoint, RoundTripsDistance) {
  for (double bearing : {0.0, 45.0, 90.0, 180.0, 270.0}) {
    const GeoPoint p = destination_point(kLondon, bearing, 500.0);
    EXPECT_NEAR(haversine_km(kLondon, p), 500.0, 1.0) << bearing;
  }
}

TEST(DestinationPoint, ZeroDistanceIsIdentity) {
  const GeoPoint p = destination_point(kNewYork, 123.0, 0.0);
  EXPECT_NEAR(p.lat_deg, kNewYork.lat_deg, 1e-9);
  EXPECT_NEAR(p.lon_deg, kNewYork.lon_deg, 1e-9);
}

TEST(Bearing, CardinalDirections) {
  // Due north.
  EXPECT_NEAR(initial_bearing_deg({0, 0}, {10, 0}), 0.0, 0.5);
  // Due east.
  EXPECT_NEAR(initial_bearing_deg({0, 0}, {0, 10}), 90.0, 0.5);
  // Due south.
  EXPECT_NEAR(initial_bearing_deg({0, 0}, {-10, 0}), 180.0, 0.5);
}

// -------------------------------------------------------- MetroDatabase

TEST(MetroDatabase, WorldHasExpectedScale) {
  const MetroDatabase& db = MetroDatabase::world();
  EXPECT_GE(db.size(), 100u);
  EXPECT_LE(db.size(), 320u);
}

TEST(MetroDatabase, IdsAreSequential) {
  const MetroDatabase& db = MetroDatabase::world();
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.metro(MetroId(static_cast<std::uint32_t>(i))).id.value, i);
  }
}

TEST(MetroDatabase, FindByName) {
  const MetroDatabase& db = MetroDatabase::world();
  const auto london = db.find_by_name("London");
  ASSERT_TRUE(london.has_value());
  EXPECT_EQ(db.metro(*london).country, "GB");
  EXPECT_EQ(db.metro(*london).region, Region::kEurope);
  EXPECT_FALSE(db.find_by_name("Atlantis").has_value());
}

TEST(MetroDatabase, NearestFindsSelf) {
  const MetroDatabase& db = MetroDatabase::world();
  for (const char* name : {"Tokyo", "Chicago", "Moscow", "Sydney"}) {
    const auto id = db.find_by_name(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_EQ(db.nearest(db.metro(*id).location), *id) << name;
  }
}

TEST(MetroDatabase, KNearestIsSortedByDistance) {
  const MetroDatabase& db = MetroDatabase::world();
  const GeoPoint paris{48.86, 2.35};
  const auto nearest = db.k_nearest(paris, 10);
  ASSERT_EQ(nearest.size(), 10u);
  for (std::size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_LE(haversine_km(paris, db.metro(nearest[i - 1]).location),
              haversine_km(paris, db.metro(nearest[i]).location));
  }
  EXPECT_EQ(nearest.front(), db.find_by_name("Paris").value());
}

TEST(MetroDatabase, WithinRadius) {
  const MetroDatabase& db = MetroDatabase::world();
  const auto london = db.metro(db.find_by_name("London").value());
  const auto close = db.within_radius(london.location, 500.0);
  // London itself plus nearby European metros.
  EXPECT_GE(close.size(), 2u);
  for (MetroId m : close) {
    EXPECT_LE(haversine_km(london.location, db.metro(m).location), 500.0);
  }
}

TEST(MetroDatabase, RegionQueries) {
  const MetroDatabase& db = MetroDatabase::world();
  const auto na = db.in_region(Region::kNorthAmerica);
  EXPECT_GE(na.size(), 30u);
  EXPECT_GT(db.total_population(Region::kAsia),
            db.total_population(Region::kOceania));
  double sum = 0.0;
  for (int r = 0; r < kNumRegions; ++r) {
    sum += db.total_population(static_cast<Region>(r));
  }
  EXPECT_NEAR(sum, db.total_population(), 1e-9);
}

TEST(MetroDatabase, ThrowsOnBadId) {
  const MetroDatabase& db = MetroDatabase::world();
  EXPECT_THROW((void)db.metro(MetroId(9999)), NotFoundError);
  EXPECT_THROW((void)db.metro(MetroId{}), NotFoundError);
}

// ------------------------------------------------------ GeolocationModel

TEST(Geolocation, ExactFractionOneIsIdentity) {
  GeolocationConfig config;
  config.exact_fraction = 1.0;
  const GeolocationModel model(config, 42);
  const GeoPoint estimate = model.estimate(kLondon, 7);
  EXPECT_DOUBLE_EQ(estimate.lat_deg, kLondon.lat_deg);
  EXPECT_DOUBLE_EQ(estimate.lon_deg, kLondon.lon_deg);
}

TEST(Geolocation, DeterministicPerEntity) {
  const GeolocationModel model(GeolocationConfig{}, 42);
  const GeoPoint a = model.estimate(kLondon, 12345);
  const GeoPoint b = model.estimate(kLondon, 12345);
  EXPECT_EQ(a, b);
}

TEST(Geolocation, GrossErrorsLandFarAway) {
  GeolocationConfig config;
  config.exact_fraction = 0.0;
  config.gross_error_fraction = 1.0;
  const GeolocationModel model(config, 42);
  for (std::uint64_t key = 0; key < 50; ++key) {
    const Kilometers err =
        haversine_km(kLondon, model.estimate(kLondon, key));
    EXPECT_GE(err, config.gross_error_min_km * 0.99) << key;
  }
}

TEST(Geolocation, MostEntitiesExactAtDefaults) {
  const GeolocationModel model(GeolocationConfig{}, 1);
  int exact = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    if (haversine_km(kNewYork, model.estimate(kNewYork, key)) < 0.001) {
      ++exact;
    }
  }
  EXPECT_NEAR(exact, 900, 50);  // exact_fraction = 0.90
}

}  // namespace
}  // namespace acdn
