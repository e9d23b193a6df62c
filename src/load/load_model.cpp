#include "load/load_model.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace acdn {

std::size_t LoadMap::overloaded_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < offered.size(); ++i) {
    if (offered[i] > capacity[i]) ++n;
  }
  return n;
}

double LoadMap::total_offered() const {
  return std::accumulate(offered.begin(), offered.end(), 0.0);
}

LoadModel::LoadModel(const ClientPopulation& clients, const CdnRouter& router,
                     const LoadConfig& config)
    : clients_(&clients), router_(&router), config_(config) {
  require(config.headroom >= 1.0, "headroom must be at least 1");
  const std::size_t n = router.cdn().deployment().size();
  baseline_.offered.assign(n, 0.0);
  baseline_.capacity.assign(n, 0.0);
  client_ingress_.resize(clients.size());
  client_routable_.assign(clients.size(), false);

  const UnitRoutes routes = router.route_anycast_units(clients.clients());
  for (const Client24& c : clients.clients()) {
    const RouteResult& route = routes.for_client(c);
    if (!route.valid) continue;
    client_routable_[c.id.value] = true;
    client_ingress_[c.id.value] = route.ingress_metro;
    baseline_.offered[route.front_end.value] += c.daily_queries;
  }

  const double mean_load = baseline_.total_offered() / double(n);
  for (std::size_t i = 0; i < n; ++i) {
    baseline_.capacity[i] =
        std::max(baseline_.offered[i] * config.headroom,
                 mean_load * config.min_capacity_share * config.headroom);
  }
}

FrontEndId LoadModel::nearest_surviving(
    MetroId ingress, const std::vector<bool>& withdrawn) const {
  const CdnNetwork& cdn = router_->cdn();
  const Deployment& deployment = cdn.deployment();
  FrontEndId best;
  Kilometers best_cost = 0.0;
  for (const FrontEndSite& s : deployment.sites()) {
    if (withdrawn[s.id.value]) continue;
    const Kilometers cost = cdn.backbone_km(ingress, s.id);
    if (!best.valid() || cost < best_cost) {
      best = s.id;
      best_cost = cost;
    }
  }
  return best;  // invalid if every front-end is withdrawn
}

LoadMap LoadModel::with_withdrawn(const std::vector<bool>& withdrawn) const {
  require(withdrawn.size() == baseline_.offered.size(),
          "withdrawn mask size mismatch");
  LoadMap map;
  map.offered.assign(baseline_.offered.size(), 0.0);
  map.capacity = baseline_.capacity;

  for (const Client24& c : clients_->clients()) {
    if (!client_routable_[c.id.value]) continue;
    const FrontEndId fe =
        nearest_surviving(client_ingress_[c.id.value], withdrawn);
    if (!fe.valid()) continue;  // total outage: traffic is dropped
    map.offered[fe.value] += c.daily_queries;
  }
  return map;
}

}  // namespace acdn
