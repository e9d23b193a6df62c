#include "sim/world.h"

#include "common/check.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace acdn {

World::World(const ScenarioConfig& config)
    : config_(config), calendar_(config.start_date) {
  config_.validate();
  // Sync the process-wide fail-point registry to this scenario: arming
  // (or disarming, for an empty schedule) here means constructing a World
  // fully determines the fault state any later simulation sees.
  FailPointRegistry::global().arm(config_.faults);
  // Everything that draws from `rng` builds serially, in a fixed draw
  // order; the router's BGP tables and the beacon's precompute draw
  // nothing, so they fan out on up to simulation_threads lanes.
  Rng rng(config_.seed);
  const int threads = config_.simulation_threads;

  const MetroDatabase& metro_db = MetroDatabase::world();
  graph_ = std::make_unique<AsGraph>(
      build_topology(metro_db, config_.topology, rng));

  PrefixAllocator cdn_addresses = PrefixAllocator::cdn_pool();
  Deployment deployment =
      Deployment::make_default(metro_db, config_.deployment, cdn_addresses);
  cdn_ = std::make_unique<CdnNetwork>(*graph_, std::move(deployment),
                                      config_.cdn, rng);
  {
    const PhaseSpan phase("world.router_tables");
    router_ = std::make_unique<CdnRouter>(*graph_, *cdn_, threads);
  }

  PrefixAllocator client_addresses = PrefixAllocator::client_pool();
  clients_ = std::make_unique<ClientPopulation>(ClientPopulation::generate(
      *graph_, config_.workload, client_addresses, rng));
  ldns_ = std::make_unique<LdnsPopulation>(LdnsPopulation::build_and_assign(
      *clients_, metro_db, config_.dns, rng));

  geolocation_ = std::make_unique<GeolocationModel>(
      config_.geolocation, rng.fork("geolocation").next_u64());
  rtt_ = std::make_unique<RttModel>(config_.rtt);
  timing_ = std::make_unique<TimingModel>(config_.timing);
  schedule_ = std::make_unique<QuerySchedule>(config_.schedule, calendar_);

  {
    const PhaseSpan phase("world.beacon_precompute");
    beacon_ = std::make_unique<BeaconSystem>(*router_, metro_db, *clients_,
                                             *ldns_, *geolocation_, *rtt_,
                                             *timing_, config_.beacon,
                                             threads);
  }

  dynamics_ = std::make_unique<RouteDynamics>(config_.dynamics, calendar_,
                                              config_.seed);
  plan_ = std::make_unique<DayRoutePlan>(*router_, clients_->clients(),
                                         config_.max_route_alternatives,
                                         config_.flap_traffic_share);
  plan_->register_units(*dynamics_);

  Log(LogLevel::kInfo) << "world: " << graph_->as_count() << " ASes, "
                       << cdn_->deployment().size() << " front-ends, "
                       << clients_->size() << " client /24s, "
                       << ldns_->size() << " resolvers, "
                       << plan_->unit_count() << " routing units";
}

const MetroDatabase& World::metros() const { return MetroDatabase::world(); }

void World::prepare_day(DayIndex day, int threads) {
  dynamics_->advance_to(day);
  plan_->build(*dynamics_, threads);
}

DayRoute World::anycast_today(const Client24& client) const {
  ACDN_CHECK(plan_->current_for(*dynamics_))
      << "anycast_today on a stale day plan: call prepare_day after "
         "advancing route dynamics";
  return plan_->route_for(client);
}

}  // namespace acdn
