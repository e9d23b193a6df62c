#include <gtest/gtest.h>

#include "common/error.h"
#include "test_fixtures.h"
#include "topology/backbone.h"

namespace acdn {
namespace {

using testfx::kChicago;
using testfx::kDenver;
using testfx::kNewYork;
using testfx::kSeattle;

BackboneConfig no_jitter() {
  BackboneConfig config;
  config.fiber_factor_min = 1.0;
  config.fiber_factor_max = 1.0;
  return config;
}

TEST(BackboneGraph, SinglePopIsTrivial) {
  const MetroDatabase metros = testfx::tiny_metros();
  Rng rng(1);
  const BackboneGraph g =
      BackboneGraph::build(metros, {kSeattle}, no_jitter(), rng);
  EXPECT_DOUBLE_EQ(g.distance_km(kSeattle, kSeattle), 0.0);
  EXPECT_TRUE(g.contains(kSeattle));
  EXPECT_FALSE(g.contains(kDenver));
}

TEST(BackboneGraph, ConnectedAndSymmetric) {
  const MetroDatabase metros = testfx::tiny_metros();
  Rng rng(1);
  const std::vector<MetroId> pops{kSeattle, kDenver, kChicago, kNewYork};
  const BackboneGraph g = BackboneGraph::build(metros, pops, no_jitter(), rng);
  for (MetroId a : pops) {
    for (MetroId b : pops) {
      EXPECT_LT(g.distance_km(a, b), BackboneGraph::kUnreachable);
      EXPECT_DOUBLE_EQ(g.distance_km(a, b), g.distance_km(b, a));
    }
  }
}

TEST(BackboneGraph, TriangleInequality) {
  const MetroDatabase metros = testfx::tiny_metros();
  Rng rng(2);
  const std::vector<MetroId> pops{kSeattle, kDenver, kChicago, kNewYork};
  const BackboneGraph g = BackboneGraph::build(metros, pops, no_jitter(), rng);
  for (MetroId a : pops) {
    for (MetroId b : pops) {
      for (MetroId c : pops) {
        EXPECT_LE(g.distance_km(a, c),
                  g.distance_km(a, b) + g.distance_km(b, c) + 1e-6);
      }
    }
  }
}

TEST(BackboneGraph, DistanceAtLeastGeodesic) {
  const MetroDatabase metros = testfx::tiny_metros();
  Rng rng(3);
  const std::vector<MetroId> pops{kSeattle, kDenver, kChicago, kNewYork};
  BackboneConfig config;  // with fiber factor jitter
  const BackboneGraph g = BackboneGraph::build(metros, pops, config, rng);
  for (MetroId a : pops) {
    for (MetroId b : pops) {
      if (a == b) continue;
      EXPECT_GE(g.distance_km(a, b), metros.distance_km(a, b) * 0.999);
    }
  }
}

TEST(BackboneGraph, SparseGraphForcesMultiHopPaths) {
  // With only 1 nearest link per PoP, coast-to-coast traffic must ride
  // through intermediates.
  const MetroDatabase metros = testfx::tiny_metros();
  Rng rng(4);
  BackboneConfig config = no_jitter();
  config.nearest_links = 1;
  config.interconnect_region_hubs = false;
  const std::vector<MetroId> pops{kSeattle, kDenver, kChicago, kNewYork};
  const BackboneGraph g = BackboneGraph::build(metros, pops, config, rng);
  const auto path = g.path(kSeattle, kNewYork);
  ASSERT_GE(path.size(), 3u);  // at least one intermediate hop
  EXPECT_EQ(path.front(), kSeattle);
  EXPECT_EQ(path.back(), kNewYork);
  // The path length matches the distance matrix.
  Kilometers total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    // Adjacent PoPs on a shortest path are directly linked; their distance
    // is the link distance.
    total += g.distance_km(path[i - 1], path[i]);
  }
  EXPECT_NEAR(total, g.distance_km(kSeattle, kNewYork), 1e-6);
}

TEST(BackboneGraph, PathEndpointsAndMembership) {
  const MetroDatabase metros = testfx::tiny_metros();
  Rng rng(5);
  const std::vector<MetroId> pops{kSeattle, kDenver, kChicago};
  const BackboneGraph g = BackboneGraph::build(metros, pops, no_jitter(), rng);
  EXPECT_TRUE(g.path(kSeattle, kNewYork).empty());  // not a PoP
  const auto self = g.path(kDenver, kDenver);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self.front(), kDenver);
}

TEST(BackboneGraph, NonPopAnswersFalseAndUnreachable) {
  const MetroDatabase metros = testfx::tiny_metros();
  Rng rng(5);
  const std::vector<MetroId> pops{kSeattle, kDenver, kChicago};
  const BackboneGraph g = BackboneGraph::build(metros, pops, no_jitter(), rng);
  EXPECT_TRUE(g.contains(kChicago));
  for (const MetroId off : {kNewYork, MetroId(999), MetroId{}}) {
    EXPECT_FALSE(g.contains(off)) << off.value;
    EXPECT_EQ(g.distance_km(kSeattle, off), BackboneGraph::kUnreachable);
    EXPECT_EQ(g.distance_km(off, kSeattle), BackboneGraph::kUnreachable);
    EXPECT_TRUE(g.path(off, kSeattle).empty());
    EXPECT_TRUE(g.path(kSeattle, off).empty());
  }
}

TEST(BackboneGraph, DeterministicForSameRngState) {
  const MetroDatabase& metros = MetroDatabase::world();
  std::vector<MetroId> pops;
  for (std::size_t i = 0; i < 30; ++i) {
    pops.push_back(MetroId(static_cast<std::uint32_t>(i * 3)));
  }
  Rng a(9), b(9);
  const BackboneGraph ga = BackboneGraph::build(metros, pops,
                                                BackboneConfig{}, a);
  const BackboneGraph gb = BackboneGraph::build(metros, pops,
                                                BackboneConfig{}, b);
  ASSERT_EQ(ga.links().size(), gb.links().size());
  for (MetroId x : pops) {
    for (MetroId y : pops) {
      EXPECT_DOUBLE_EQ(ga.distance_km(x, y), gb.distance_km(x, y));
    }
  }
}

TEST(BackboneGraph, WorldScalePopsStayConnected) {
  const MetroDatabase& metros = MetroDatabase::world();
  std::vector<MetroId> pops;
  for (const Metro& m : metros.all()) {
    if (m.population_millions > 5.0) pops.push_back(m.id);
  }
  ASSERT_GT(pops.size(), 30u);
  Rng rng(11);
  const BackboneGraph g =
      BackboneGraph::build(metros, pops, BackboneConfig{}, rng);
  for (MetroId a : pops) {
    EXPECT_LT(g.distance_km(pops.front(), a), BackboneGraph::kUnreachable);
  }
}

TEST(BackboneGraph, RejectsEmptyPops) {
  Rng rng(1);
  EXPECT_THROW((void)BackboneGraph::build(MetroDatabase::world(), {},
                                          BackboneConfig{}, rng),
               ConfigError);
}

}  // namespace
}  // namespace acdn
