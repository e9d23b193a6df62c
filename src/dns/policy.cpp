#include "dns/policy.h"

#include "common/error.h"

namespace acdn {

DnsAnswer GeoClosestPolicy::resolve(const DnsQueryContext& query) const {
  // Geolocate the decision subject: the ECS prefix when present (per-prefix
  // decisions), otherwise the LDNS itself. The geolocation database may
  // mislocate either; the error model is keyed on the subject so the same
  // /24 always geolocates identically.
  GeoPoint where;
  const std::optional<ClientId> ecs_client =
      query.ecs_prefix ? clients_->find_by_prefix(*query.ecs_prefix)
                       : std::nullopt;
  if (ecs_client) {
    where = geo_->estimate(clients_->client(*ecs_client).location,
                           query.ecs_prefix->address().value());
  } else {
    where = geo_->estimate(ldns_->server(query.ldns).location,
                           0x1000000000ull + query.ldns.value);
  }
  const auto nearest = deployment_->nearest_sites(where, 1);
  require(!nearest.empty(), "deployment has no sites");
  return DnsAnswer{false, nearest.front()};
}

}  // namespace acdn
