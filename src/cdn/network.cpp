#include "cdn/network.h"

#include <algorithm>

#include "common/error.h"

namespace acdn {

CdnNetwork::CdnNetwork(AsGraph& graph, Deployment deployment,
                       const CdnNetworkConfig& config, Rng& rng)
    : graph_(&graph), deployment_(std::move(deployment)) {
  const MetroDatabase& metros = graph.metros();

  // PoPs: all site metros plus the most populous non-site metros.
  presence_ = deployment_.site_metros();
  std::vector<MetroId> extras;
  for (const Metro& m : metros.all()) {
    if (!deployment_.site_at(m.id)) extras.push_back(m.id);
  }
  std::sort(extras.begin(), extras.end(), [&](MetroId a, MetroId b) {
    return metros.metro(a).population_millions >
           metros.metro(b).population_millions;
  });
  if (static_cast<int>(extras.size()) > config.extra_peering_metros) {
    extras.resize(static_cast<std::size_t>(config.extra_peering_metros));
  }
  presence_.insert(presence_.end(), extras.begin(), extras.end());
  std::sort(presence_.begin(), presence_.end());

  as_id_ = add_cdn_as(graph, presence_, config.links, rng);
  // add_cdn_as sorts/uniquifies; read back the authoritative list.
  presence_ = graph.as_node(as_id_).presence;

  // The interior WAN: a sparse fiber graph over the PoPs with Dijkstra
  // IGP costs — two nearby PoPs can be many fiber-km apart, which is what
  // makes BGP's topology-blindness (§5) a structural effect.
  backbone_ = BackboneGraph::build(metros, presence_, config.backbone, rng);

  // Each front-end's unicast /24 is announced at its own metro (always a
  // peering point, since every site metro is a PoP).
  unicast_announce_.resize(deployment_.size());
  for (const FrontEndSite& s : deployment_.sites()) {
    unicast_announce_[s.id.value] = {s.metro};
  }

  // Hot-potato interior routing: nearest front-end by IGP cost per PoP.
  nearest_fe_.resize(metros.size());
  for (MetroId pop : presence_) {
    FrontEndId best = deployment_.sites().front().id;
    Kilometers best_cost =
        backbone_.distance_km(pop, deployment_.site(best).metro);
    for (const FrontEndSite& s : deployment_.sites()) {
      const Kilometers cost = backbone_.distance_km(pop, s.metro);
      if (cost < best_cost) {
        best = s.id;
        best_cost = cost;
      }
    }
    nearest_fe_[pop.value] = best;
  }
}

const std::vector<MetroId>& CdnNetwork::unicast_announce_metros(
    FrontEndId fe) const {
  require(fe.valid() && fe.value < unicast_announce_.size(),
          "unknown front-end");
  return unicast_announce_[fe.value];
}

FrontEndId CdnNetwork::nearest_front_end(MetroId ingress) const {
  if (ingress.value >= nearest_fe_.size() ||
      !nearest_fe_[ingress.value].valid()) {
    throw ConfigError("ingress metro is not a CDN PoP: " +
                      graph_->metros().metro(ingress).name);
  }
  return nearest_fe_[ingress.value];
}

Kilometers CdnNetwork::backbone_km(MetroId ingress, FrontEndId fe) const {
  return backbone_.distance_km(ingress, deployment_.site(fe).metro);
}

}  // namespace acdn
