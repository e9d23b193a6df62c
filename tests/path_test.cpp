#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "routing/bgp.h"
#include "routing/path.h"
#include "test_fixtures.h"

namespace acdn {
namespace {

using testfx::kChicago;
using testfx::kDenver;
using testfx::kNewYork;
using testfx::kSeattle;

class PathTest : public ::testing::Test {
 protected:
  PathTest()
      : metros_(testfx::tiny_metros()),
        w_(testfx::tiny_world(metros_)),
        sim_(w_.graph, w_.cdn),
        table_(sim_.compute_anycast()),
        unfolder_(w_.graph, w_.cdn) {}

  MetroDatabase metros_;
  testfx::TinyWorld w_;
  BgpSimulator sim_;
  BgpRouteTable table_;
  PathUnfolder unfolder_;

  [[nodiscard]] std::vector<MetroId> anycast_announce() const {
    return w_.graph.as_node(w_.cdn).presence;
  }
};

TEST_F(PathTest, DirectPeerHandsOffAtSessionMetro) {
  // access_east in NewYork peers with the CDN at NewYork: zero-km segment,
  // ingress NewYork.
  const ForwardingPath path = unfolder_.unfold(
      w_.access_east, kNewYork, table_, anycast_announce());
  ASSERT_TRUE(path.valid);
  EXPECT_EQ(path.ingress_metro, kNewYork);
  EXPECT_DOUBLE_EQ(path.total_km, 0.0);
  ASSERT_EQ(path.segments.size(), 1u);
  EXPECT_EQ(path.segments[0].as, w_.access_east);
  EXPECT_EQ(path.as_hops, 1);
}

TEST_F(PathTest, HotPotatoPicksNearestExit) {
  // access_east in Chicago: its CDN session is at NewYork, but the anycast
  // prefix is announced at Chicago too and the ISP has a PoP there, so the
  // symmetric-session rule lets it hand off locally.
  const ForwardingPath path = unfolder_.unfold(
      w_.access_east, kChicago, table_, anycast_announce());
  ASSERT_TRUE(path.valid);
  EXPECT_EQ(path.ingress_metro, kChicago);
  EXPECT_DOUBLE_EQ(path.total_km, 0.0);
}

TEST_F(PathTest, ProviderChainUnfoldsAcrossAses) {
  // access_west in Seattle routes via transit (provider). The transit
  // peers with the CDN and is present at Seattle: local ingress.
  const ForwardingPath path = unfolder_.unfold(
      w_.access_west, kSeattle, table_, anycast_announce());
  ASSERT_TRUE(path.valid);
  EXPECT_EQ(path.as_hops, 2);
  ASSERT_EQ(path.segments.size(), 2u);
  EXPECT_EQ(path.segments[0].as, w_.access_west);
  EXPECT_EQ(path.segments[1].as, w_.transit);
  EXPECT_EQ(path.ingress_metro, kSeattle);
}

TEST_F(PathTest, UnicastAnnouncementForcesIngressNearFrontEnd) {
  // Prefix announced only at NewYork (the front-end's metro). A Seattle
  // client's traffic must ingress at NewYork regardless of path.
  const std::vector<MetroId> ny_only{kNewYork};
  const BgpRouteTable table = sim_.compute(ny_only);
  const ForwardingPath path =
      unfolder_.unfold(w_.access_west, kSeattle, table, ny_only);
  ASSERT_TRUE(path.valid);
  EXPECT_EQ(path.ingress_metro, kNewYork);
  // Someone carried the traffic across the country.
  EXPECT_GT(path.total_km, 3000.0);
}

TEST_F(PathTest, RemotePeeringPolicyOverridesHotPotato) {
  // Give access_east a cold-potato policy toward NewYork; its Chicago
  // clients' anycast traffic then hands off at NewYork, not locally.
  AsNode& east = w_.graph.as_node(w_.access_east);
  east.remote_peering_policy = true;
  east.preferred_handoffs = {kNewYork};

  const ForwardingPath path = unfolder_.unfold(
      w_.access_east, kChicago, table_, anycast_announce());
  ASSERT_TRUE(path.valid);
  EXPECT_EQ(path.ingress_metro, kNewYork);
  EXPECT_GT(path.total_km, 1000.0);  // Chicago -> NewYork haul
}

TEST_F(PathTest, RemotePeeringDoesNotApplyToTransitHandoffs) {
  // access_west with a preferred handoff at Denver still hands to its
  // *transit* at the nearest option, because the policy concerns only the
  // interconnection with the CDN.
  AsNode& west = w_.graph.as_node(w_.access_west);
  west.remote_peering_policy = true;
  west.preferred_handoffs = {kDenver};

  const ForwardingPath path = unfolder_.unfold(
      w_.access_west, kSeattle, table_, anycast_announce());
  ASSERT_TRUE(path.valid);
  ASSERT_GE(path.segments.size(), 1u);
  // First segment: Seattle -> Seattle handoff to transit (hot potato).
  EXPECT_EQ(path.segments[0].to, kSeattle);
}

TEST_F(PathTest, InvalidWhenUnreachable) {
  // A CDN with no links: unfold returns an invalid path.
  AsGraph graph(metros_);
  AsNode cdn;
  cdn.name = "Lonely";
  cdn.type = AsType::kCdn;
  cdn.presence = {kSeattle};
  AsNode isp;
  isp.name = "ISP";
  isp.type = AsType::kAccess;
  isp.presence = {kDenver};
  const AsId cdn_id = graph.add_as(cdn);
  const AsId isp_id = graph.add_as(isp);
  const BgpSimulator lonely_sim(graph, cdn_id);
  const std::vector<MetroId> seattle{kSeattle};
  const BgpRouteTable table = lonely_sim.compute(seattle);
  const PathUnfolder lonely_unfolder(graph, cdn_id);
  const ForwardingPath path =
      lonely_unfolder.unfold(isp_id, kDenver, table, seattle);
  EXPECT_FALSE(path.valid);
}

TEST_F(PathTest, EnteringAsWithoutPopThrowsAndNamesIt) {
  // access_west has PoPs at Seattle and Denver only.
  try {
    (void)unfolder_.unfold(w_.access_west, kNewYork, table_,
                           anycast_announce());
    ADD_FAILURE() << "unfolding entered an AS at a metro without a PoP";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("AccessWest"), std::string::npos)
        << e.what();
  }
}

TEST_F(PathTest, TotalKmIsSumOfSegments) {
  const ForwardingPath path = unfolder_.unfold(
      w_.access_west, kDenver, table_, anycast_announce());
  ASSERT_TRUE(path.valid);
  Kilometers sum = 0.0;
  for (const PathSegment& seg : path.segments) sum += seg.km;
  EXPECT_DOUBLE_EQ(path.total_km, sum);
}

TEST_F(PathTest, AsPathAccessorMatchesSegments) {
  const ForwardingPath path = unfolder_.unfold(
      w_.access_west, kSeattle, table_, anycast_announce());
  ASSERT_TRUE(path.valid);
  const std::vector<AsId> as_path = path.as_path();
  ASSERT_EQ(as_path.size(), path.segments.size());
  for (std::size_t i = 0; i < as_path.size(); ++i) {
    EXPECT_EQ(as_path[i], path.segments[i].as);
  }
}

}  // namespace
}  // namespace acdn
