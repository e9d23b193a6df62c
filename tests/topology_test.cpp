#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "test_fixtures.h"
#include "topology/builder.h"

namespace acdn {
namespace {

using testfx::kChicago;
using testfx::kDenver;
using testfx::kNewYork;
using testfx::kSeattle;

// ---------------------------------------------------------------- AsGraph

TEST(AsGraph, AddAsAssignsSequentialIds) {
  const MetroDatabase metros = testfx::tiny_metros();
  AsGraph graph(metros);
  AsNode a;
  a.name = "A";
  a.presence = {kSeattle};
  AsNode b;
  b.name = "B";
  b.presence = {kDenver};
  EXPECT_EQ(graph.add_as(a).value, 0u);
  EXPECT_EQ(graph.add_as(b).value, 1u);
  EXPECT_EQ(graph.as_count(), 2u);
}

TEST(AsGraph, RejectsAsWithoutPresence) {
  const MetroDatabase metros = testfx::tiny_metros();
  AsGraph graph(metros);
  AsNode empty;
  empty.name = "Empty";
  EXPECT_THROW((void)graph.add_as(empty), ConfigError);
}

TEST(AsGraph, LinkValidatesPresence) {
  const MetroDatabase metros = testfx::tiny_metros();
  AsGraph graph(metros);
  AsNode a;
  a.name = "A";
  a.presence = {kSeattle};
  AsNode b;
  b.name = "B";
  b.presence = {kDenver};
  const AsId ia = graph.add_as(a);
  const AsId ib = graph.add_as(b);
  // No common metro: linking at Seattle must fail (B not present).
  EXPECT_THROW(graph.add_link({ia, ib, Relationship::kPeerToPeer,
                               {kSeattle}}),
               ConfigError);
  // Empty peering metro list is also invalid.
  EXPECT_THROW(graph.add_link({ia, ib, Relationship::kPeerToPeer, {}}),
               ConfigError);
  // Self links are invalid.
  EXPECT_THROW(graph.add_link({ia, ia, Relationship::kPeerToPeer,
                               {kSeattle}}),
               ConfigError);
}

TEST(AsGraph, NeighborKindsMatchRelationship) {
  const MetroDatabase metros = testfx::tiny_metros();
  const testfx::TinyWorld w = testfx::tiny_world(metros);

  // transit is a customer of tier1: from tier1's perspective the transit
  // is a customer; from the transit's, tier1 is a provider.
  bool found = false;
  for (const Neighbor& nb : w.graph.neighbors(w.tier1)) {
    if (nb.as == w.transit) {
      EXPECT_EQ(nb.kind, Neighbor::Kind::kCustomer);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  found = false;
  for (const Neighbor& nb : w.graph.neighbors(w.transit)) {
    if (nb.as == w.tier1) {
      EXPECT_EQ(nb.kind, Neighbor::Kind::kProvider);
      found = true;
    }
    if (nb.as == w.cdn) {
      EXPECT_EQ(nb.kind, Neighbor::Kind::kPeer);
    }
  }
  EXPECT_TRUE(found);
}

TEST(AsGraph, PeeringMetros) {
  const MetroDatabase metros = testfx::tiny_metros();
  const testfx::TinyWorld w = testfx::tiny_world(metros);
  const auto contents = [](std::span<const MetroId> span) {
    return std::vector<MetroId>(span.begin(), span.end());
  };
  EXPECT_EQ(contents(w.graph.peering_metros(w.cdn, w.transit)),
            std::vector<MetroId>{kChicago});
  EXPECT_EQ(contents(w.graph.peering_metros(w.transit, w.cdn)),
            std::vector<MetroId>{kChicago});
  EXPECT_TRUE(w.graph.peering_metros(w.access_west, w.cdn).empty());
}

TEST(AsGraph, AccessAsesIn) {
  const MetroDatabase metros = testfx::tiny_metros();
  const testfx::TinyWorld w = testfx::tiny_world(metros);
  const std::vector<std::vector<AsId>> by_metro =
      w.graph.access_ases_by_metro();
  ASSERT_EQ(by_metro.size(), metros.size());
  const std::vector<AsId>& in_seattle = by_metro[kSeattle.value];
  ASSERT_EQ(in_seattle.size(), 1u);
  EXPECT_EQ(in_seattle.front(), w.access_west);
  const std::vector<AsId>& in_chicago = by_metro[kChicago.value];
  ASSERT_EQ(in_chicago.size(), 1u);
  EXPECT_EQ(in_chicago.front(), w.access_east);
}

TEST(AsGraph, IntraAsDistanceIsSymmetricAndStretched) {
  const MetroDatabase metros = testfx::tiny_metros();
  const testfx::TinyWorld w = testfx::tiny_world(metros);
  const Kilometers ab = w.graph.intra_as_distance_km(w.tier1, kSeattle,
                                                     kNewYork);
  const Kilometers ba = w.graph.intra_as_distance_km(w.tier1, kNewYork,
                                                     kSeattle);
  EXPECT_DOUBLE_EQ(ab, ba);
  const Kilometers geo = metros.distance_km(kSeattle, kNewYork);
  EXPECT_GE(ab, geo * 0.9);       // never much shorter than the geodesic
  EXPECT_LE(ab, geo * 1.0 * 1.3);  // stretch=1.0, unevenness < 1.25
  EXPECT_DOUBLE_EQ(
      w.graph.intra_as_distance_km(w.tier1, kDenver, kDenver), 0.0);
}

TEST(AsGraph, NearestByIgpPrefersCloseMetros) {
  const MetroDatabase metros = testfx::tiny_metros();
  const testfx::TinyWorld w = testfx::tiny_world(metros);
  const std::vector<MetroId> candidates{kSeattle, kNewYork};
  EXPECT_EQ(w.graph.nearest_by_igp(w.tier1, kDenver, candidates), kSeattle);
  EXPECT_EQ(w.graph.nearest_by_igp(w.tier1, kChicago, candidates), kNewYork);
}

// ---------------------------------------------------------------- Builder

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    graph_ = std::make_unique<AsGraph>(
        build_topology(MetroDatabase::world(), config_, rng));
  }

  TopologyConfig config_;
  std::unique_ptr<AsGraph> graph_;
};

TEST_F(BuilderTest, EveryMetroHasAccessIsp) {
  const std::vector<std::vector<AsId>> by_metro =
      graph_->access_ases_by_metro();
  for (const Metro& m : MetroDatabase::world().all()) {
    EXPECT_FALSE(by_metro[m.id.value].empty()) << m.name;
  }
}

TEST_F(BuilderTest, TypeCounts) {
  EXPECT_EQ(graph_->ases_of_type(AsType::kTier1).size(),
            static_cast<std::size_t>(config_.tier1_count));
  EXPECT_GE(graph_->ases_of_type(AsType::kTransit).size(), 7u);
  EXPECT_GE(graph_->ases_of_type(AsType::kAccess).size(),
            MetroDatabase::world().size());
  EXPECT_TRUE(graph_->ases_of_type(AsType::kCdn).empty());  // added later
}

TEST_F(BuilderTest, EveryAccessIspHasAProvider) {
  for (AsId access : graph_->ases_of_type(AsType::kAccess)) {
    bool has_provider = false;
    for (const Neighbor& nb : graph_->neighbors(access)) {
      has_provider |= nb.kind == Neighbor::Kind::kProvider;
    }
    EXPECT_TRUE(has_provider) << graph_->as_node(access).name;
  }
}

TEST_F(BuilderTest, RemotePeeringFractionRoughlyHonored) {
  int remote = 0;
  int national = 0;
  for (AsId access : graph_->ases_of_type(AsType::kAccess)) {
    const AsNode& node = graph_->as_node(access);
    const bool is_local = node.name.find("-Local-") != std::string::npos;
    if (is_local) {
      // Metro-local ISPs never run the policy.
      EXPECT_FALSE(node.remote_peering_policy) << node.name;
      continue;
    }
    ++national;
    if (node.remote_peering_policy) {
      ++remote;
      EXPECT_FALSE(node.preferred_handoffs.empty());
    }
  }
  ASSERT_GT(national, 0);
  const double fraction = double(remote) / national;
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, config_.remote_peering_fraction * 3);
}

TEST_F(BuilderTest, DeterministicAcrossRuns) {
  Rng rng(99);
  const AsGraph again =
      build_topology(MetroDatabase::world(), config_, rng);
  ASSERT_EQ(again.as_count(), graph_->as_count());
  ASSERT_EQ(again.link_count(), graph_->link_count());
  for (std::size_t i = 0; i < again.as_count(); ++i) {
    const AsId id(static_cast<std::uint32_t>(i));
    EXPECT_EQ(again.as_node(id).name, graph_->as_node(id).name);
    EXPECT_EQ(again.as_node(id).presence, graph_->as_node(id).presence);
  }
}

TEST_F(BuilderTest, AddCdnAsConnects) {
  Rng rng(5);
  std::vector<MetroId> pops;
  const auto& metros = MetroDatabase::world();
  pops.push_back(metros.find_by_name("New York").value());
  pops.push_back(metros.find_by_name("London").value());
  pops.push_back(metros.find_by_name("Tokyo").value());
  const AsId cdn = add_cdn_as(*graph_, pops, CdnLinkConfig{}, rng);
  EXPECT_EQ(graph_->as_node(cdn).type, AsType::kCdn);
  // Must have at least one transit provider and some peers.
  int providers = 0;
  int peers = 0;
  for (const Neighbor& nb : graph_->neighbors(cdn)) {
    if (nb.kind == Neighbor::Kind::kProvider) ++providers;
    if (nb.kind == Neighbor::Kind::kPeer) ++peers;
  }
  EXPECT_GE(providers, 1);
  EXPECT_GE(peers, 1);
}

}  // namespace
}  // namespace acdn
