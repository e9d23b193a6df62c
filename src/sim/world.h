// The assembled world: topology, CDN, routing, clients, DNS, beacon.
//
// Construction is deterministic in the scenario (same config + seed =>
// identical world and identical simulation output). World is the long-
// lived owner of every subsystem; Simulation (sim/simulation.h) drives it
// day by day.
#pragma once

#include <memory>
#include <optional>

#include "beacon/beacon.h"
#include "cdn/day_plan.h"
#include "cdn/router.h"
#include "dns/ldns.h"
#include "routing/dynamics.h"
#include "sim/scenario.h"

namespace acdn {

class World {
 public:
  explicit World(const ScenarioConfig& config);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const SimCalendar& calendar() const { return calendar_; }
  [[nodiscard]] const MetroDatabase& metros() const;
  [[nodiscard]] const AsGraph& graph() const { return *graph_; }
  [[nodiscard]] const CdnNetwork& cdn() const { return *cdn_; }
  [[nodiscard]] const CdnRouter& router() const { return *router_; }
  [[nodiscard]] const ClientPopulation& clients() const { return *clients_; }
  [[nodiscard]] const LdnsPopulation& ldns() const { return *ldns_; }
  [[nodiscard]] const GeolocationModel& geolocation() const {
    return *geolocation_;
  }
  [[nodiscard]] const RttModel& rtt() const { return *rtt_; }
  [[nodiscard]] const TimingModel& timing() const { return *timing_; }
  [[nodiscard]] const QuerySchedule& schedule() const { return *schedule_; }
  [[nodiscard]] BeaconSystem& beacon() { return *beacon_; }
  [[nodiscard]] const BeaconSystem& beacon() const { return *beacon_; }
  [[nodiscard]] RouteDynamics& dynamics() { return *dynamics_; }
  [[nodiscard]] const RouteDynamics& dynamics() const { return *dynamics_; }

  /// Independent RNG substream derived from the scenario seed.
  [[nodiscard]] Rng fork_rng(std::string_view label) const {
    return Rng(config_.seed).fork(label);
  }

  /// Advances route dynamics to `day` and rebuilds the day-route plan so
  /// anycast_today answers from the per-unit table. The day driver
  /// (Simulation::run_day) calls this once per day before fanning out.
  void prepare_day(DayIndex day, int threads);

  /// O(1) lookup in the day plan. The plan must be current: prepare_day
  /// ran for the dynamics' present state (an ACDN_CHECK dies otherwise).
  [[nodiscard]] DayRoute anycast_today(const Client24& client) const;

  [[nodiscard]] const DayRoutePlan& day_plan() const { return *plan_; }

 private:
  ScenarioConfig config_;
  SimCalendar calendar_;
  std::unique_ptr<AsGraph> graph_;
  std::unique_ptr<CdnNetwork> cdn_;
  std::unique_ptr<CdnRouter> router_;
  std::unique_ptr<ClientPopulation> clients_;
  std::unique_ptr<LdnsPopulation> ldns_;
  std::unique_ptr<GeolocationModel> geolocation_;
  std::unique_ptr<RttModel> rtt_;
  std::unique_ptr<TimingModel> timing_;
  std::unique_ptr<QuerySchedule> schedule_;
  std::unique_ptr<BeaconSystem> beacon_;
  std::unique_ptr<RouteDynamics> dynamics_;
  std::unique_ptr<DayRoutePlan> plan_;
};

}  // namespace acdn
