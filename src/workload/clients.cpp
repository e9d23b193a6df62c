#include "workload/clients.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace acdn {

void WorkloadConfig::validate() const {
  require(total_client_24s > 0, "need at least one client /24");
  require(volume_pareto_alpha > 1.0,
          "volume_pareto_alpha must exceed 1 for a finite mean");
  require(base_daily_queries > 0.0, "base_daily_queries must be positive");
  require(placement_median_km > 0.0, "placement_median_km must be positive");
  require(placement_sigma >= 0.0, "placement_sigma must be non-negative");
  require(placement_max_km >= placement_median_km,
          "placement_max_km must be at least the median");
}

double region_penetration(Region r) {
  switch (r) {
    case Region::kNorthAmerica: return 0.90;
    case Region::kEurope:       return 0.85;
    case Region::kOceania:      return 0.90;
    case Region::kAsia:         return 0.50;
    case Region::kSouthAmerica: return 0.55;
    case Region::kMiddleEast:   return 0.55;
    case Region::kAfrica:       return 0.30;
  }
  return 0.5;
}

ClientPopulation::ClientPopulation(std::vector<Client24> clients)
    : clients_(std::move(clients)) {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i].id = ClientId(static_cast<std::uint32_t>(i));
    by_prefix_.emplace(clients_[i].prefix, clients_[i].id);
  }
}

std::optional<ClientId> ClientPopulation::find_by_prefix(
    const Prefix& prefix) const {
  auto it = by_prefix_.find(prefix);
  if (it == by_prefix_.end()) return std::nullopt;
  return it->second;
}

ClientPopulation ClientPopulation::generate(const AsGraph& graph,
                                            const WorkloadConfig& config,
                                            PrefixAllocator& addresses,
                                            Rng& rng) {
  config.validate();
  const MetroDatabase& metros = graph.metros();

  // Apportion /24s to metros by population x penetration (largest
  // remainder method keeps the total exact).
  std::vector<double> weight;
  weight.reserve(metros.size());
  double total_weight = 0.0;
  for (const Metro& m : metros.all()) {
    const double w = m.population_millions * region_penetration(m.region);
    weight.push_back(w);
    total_weight += w;
  }
  require(total_weight > 0.0, "metro weights are all zero");

  std::vector<int> quota(metros.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t i = 0; i < metros.size(); ++i) {
    const double exact = config.total_client_24s * weight[i] / total_weight;
    quota[i] = static_cast<int>(std::floor(exact));
    assigned += quota[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; assigned < config.total_client_24s; ++i, ++assigned) {
    ++quota[remainders[i % remainders.size()].second];
  }

  Rng gen = rng.fork("clients");
  std::vector<Client24> clients;
  clients.reserve(static_cast<std::size_t>(config.total_client_24s));
  const std::vector<std::vector<AsId>> isps_by_metro =
      graph.access_ases_by_metro();
  for (const Metro& m : metros.all()) {
    const std::vector<AsId>& isps = isps_by_metro[m.id.value];
    if (isps.empty()) {
      throw ConfigError("no access ISP present in metro " + m.name);
    }
    // National ISPs carry more subscribers than metro-local ones.
    std::vector<double> isp_weight;
    isp_weight.reserve(isps.size());
    for (AsId isp : isps) {
      isp_weight.push_back(
          graph.as_node(isp).presence.size() > 1 ? 3.0 : 1.0);
    }

    for (int k = 0; k < quota[m.id.value]; ++k) {
      Client24 c;
      c.prefix = addresses.allocate_slash24();
      c.metro = m.id;
      c.region = m.region;
      c.access_as = isps[gen.weighted_index(isp_weight)];
      const double r =
          std::min(gen.lognormal(std::log(config.placement_median_km),
                                 config.placement_sigma),
                   config.placement_max_km);
      c.location = destination_point(m.location, gen.uniform(0.0, 360.0), r);
      c.last_mile_ms = RttModel::draw_last_mile(config.last_mile, gen);
      c.daily_queries =
          config.base_daily_queries *
          (gen.pareto(0.5, config.volume_pareto_alpha));
      clients.push_back(std::move(c));
    }
  }
  return ClientPopulation(std::move(clients));
}

const Client24& ClientPopulation::client(ClientId id) const {
  if (!id.valid() || id.value >= clients_.size()) {
    throw NotFoundError("client id " + std::to_string(id.value));
  }
  return clients_[id.value];
}

Client24& ClientPopulation::client(ClientId id) {
  return const_cast<Client24&>(std::as_const(*this).client(id));
}

double ClientPopulation::total_query_weight() const {
  double total = 0.0;
  for (const Client24& c : clients_) total += c.daily_queries;
  return total;
}

}  // namespace acdn
