// The CDN's own network: one AS containing every front-end, a backbone
// connecting its PoPs, and peering with the rest of the Internet.
//
// Mirrors the paper's description (§3): all front-ends live "within the
// same Microsoft-operated autonomous system"; the anycast /24 is announced
// at every peering point, while each front-end's unicast /24 is announced
// only at the peering point closest to that front-end, "forcing traffic to
// the prefix to ingress near the front-end". Some PoPs are peering-only
// (no front-end): traffic that ingresses there rides the backbone to the
// front-end nearest the *ingress* (intradomain hot potato) — not nearest
// the client, which is one of the two §5 failure modes.
#pragma once

#include <span>
#include <vector>

#include "cdn/deployment.h"
#include "common/rng.h"
#include "topology/backbone.h"
#include "topology/builder.h"

namespace acdn {

struct CdnNetworkConfig {
  CdnLinkConfig links;
  /// Peering-only PoPs (most populous metros without a front-end site).
  int extra_peering_metros = 12;
  /// The CDN's interior WAN: a sparse fiber graph, not a geodesic clique.
  BackboneConfig backbone;
};

class CdnNetwork {
 public:
  /// Adds the CDN AS to `graph` (PoPs at every site metro plus the extra
  /// peering metros) and wires its interconnection.
  CdnNetwork(AsGraph& graph, Deployment deployment,
             const CdnNetworkConfig& config, Rng& rng);

  [[nodiscard]] AsId as_id() const { return as_id_; }
  [[nodiscard]] const Deployment& deployment() const { return deployment_; }

  /// Metros at which the anycast prefix is originated: every CDN PoP.
  [[nodiscard]] const std::vector<MetroId>& anycast_announce_metros() const {
    return presence_;
  }

  /// Metros at which `fe`'s unicast /24 is originated: the site metro only.
  [[nodiscard]] const std::vector<MetroId>& unicast_announce_metros(
      FrontEndId fe) const;

  /// The front-end that intradomain (hot potato) routing reaches from an
  /// ingress PoP: lowest CDN-IGP cost, which tracks — but is not identical
  /// to — geographic proximity.
  [[nodiscard]] FrontEndId nearest_front_end(MetroId ingress) const;

  /// Backbone fiber distance (shortest path over the interior WAN) from an
  /// ingress PoP to a front-end's metro.
  [[nodiscard]] Kilometers backbone_km(MetroId ingress, FrontEndId fe) const;

  /// The interior WAN itself (for traceroute detail and diagnostics).
  [[nodiscard]] const BackboneGraph& backbone() const { return backbone_; }

  [[nodiscard]] const AsGraph& graph() const { return *graph_; }

 private:
  const AsGraph* graph_;
  AsId as_id_;
  Deployment deployment_;
  std::vector<MetroId> presence_;
  BackboneGraph backbone_;
  std::vector<std::vector<MetroId>> unicast_announce_;  // per front-end
  /// Indexed by metro id; invalid for a metro without a PoP.
  std::vector<FrontEndId> nearest_fe_;
};

}  // namespace acdn
