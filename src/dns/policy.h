// Authoritative-side redirection policies.
//
// The CDN's authoritative nameserver decides, per query, whether to return
// the anycast address or a specific front-end's unicast address. Decisions
// are made at the granularity DNS allows: the querying LDNS, or the
// client's /24 when the resolver forwards an ECS prefix (§2, §6). The
// prediction-driven policies built on the paper's §6 scheme live in
// src/core; this header defines the interface and the two baselines.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cdn/deployment.h"
#include "common/types.h"
#include "dns/ldns.h"
#include "geo/geolocation.h"
#include "net/ipv4.h"

namespace acdn {

/// What the authoritative server knows when answering.
struct DnsQueryContext {
  LdnsId ldns;
  /// Present when the resolver forwards EDNS client-subnet (ECS).
  std::optional<Prefix> ecs_prefix;
  DayIndex day = 0;
};

/// The redirection decision.
struct DnsAnswer {
  bool anycast = true;
  /// Meaningful only when !anycast: the unicast front-end returned.
  FrontEndId front_end;
};

class RedirectionPolicy {
 public:
  virtual ~RedirectionPolicy() = default;
  [[nodiscard]] virtual DnsAnswer resolve(const DnsQueryContext& query) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Pure anycast: what the production CDN in the paper does.
class AnycastPolicy final : public RedirectionPolicy {
 public:
  [[nodiscard]] DnsAnswer resolve(const DnsQueryContext&) const override {
    return DnsAnswer{true, FrontEndId{}};
  }
  [[nodiscard]] std::string name() const override { return "anycast"; }
};

/// Geo-DNS baseline: return the front-end geographically closest to the
/// LDNS (or to the ECS prefix's geolocated position when present), using
/// the — imperfect — geolocation database.
class GeoClosestPolicy final : public RedirectionPolicy {
 public:
  GeoClosestPolicy(const Deployment& deployment, const LdnsPopulation& ldns,
                   const ClientPopulation& clients,
                   const GeolocationModel& geo)
      : deployment_(&deployment),
        ldns_(&ldns),
        clients_(&clients),
        geo_(&geo) {}

  [[nodiscard]] DnsAnswer resolve(const DnsQueryContext& query) const override;
  [[nodiscard]] std::string name() const override { return "geo-closest"; }

 private:
  const Deployment* deployment_;
  const LdnsPopulation* ldns_;
  const ClientPopulation* clients_;
  const GeolocationModel* geo_;
};

}  // namespace acdn
