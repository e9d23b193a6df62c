// Scenario configuration: every knob of the synthetic world in one place.
//
// paper_default() is tuned so the figure shapes land near the paper's
// (DESIGN.md §3 lists the targets); small_test() builds a tiny world for
// fast unit and integration tests. Both are deterministic given `seed`.
#pragma once

#include <cstdint>
#include <string>

#include "beacon/beacon.h"
#include "cdn/network.h"
#include "common/failpoint.h"
#include "common/sim_clock.h"
#include "dns/ldns.h"
#include "geo/geolocation.h"
#include "latency/rtt_model.h"
#include "latency/timing_api.h"
#include "routing/dynamics.h"
#include "topology/builder.h"
#include "workload/clients.h"
#include "workload/schedule.h"

namespace acdn {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  /// First simulated day. April 1, 2015 (a Wednesday) matches the paper.
  Date start_date{2015, 4, 1};

  TopologyConfig topology;
  DeploymentConfig deployment;
  CdnNetworkConfig cdn;
  WorkloadConfig workload;
  ScheduleConfig schedule;
  DnsConfig dns;
  GeolocationConfig geolocation;
  RttConfig rtt;
  TimingConfig timing;
  BeaconConfig beacon;
  DynamicsConfig dynamics;

  /// Fault-injection schedule. Empty by default (no fail point armed);
  /// World's constructor syncs the global FailPointRegistry to this, so
  /// constructing a World fully determines the process's fault state.
  FaultSchedule faults;

  /// Share of a flapping routing unit's daily traffic on the alternate
  /// route.
  double flap_traffic_share = 0.35;
  /// Route-candidate alternatives dynamics may select per unit (beyond
  /// this, BGP candidates are too poor to be realistic next-best picks).
  int max_route_alternatives = 3;

  /// Worker threads for World construction (the router's BGP tables and
  /// the beacon's candidate pools and pool routes) and for the per-client
  /// day loop. Set-up writes each result into its own slot; in the day
  /// loop every client draws from a (seed, day, client)-keyed RNG
  /// substream and outputs merge in client order. Results are
  /// byte-identical for any thread count.
  int simulation_threads = 1;

  /// Full-scale scenario matching the paper's world.
  static ScenarioConfig paper_default();
  /// Small world for fast tests (hundreds of clients, fewer sites).
  static ScenarioConfig small_test();

  /// Stable 64-bit FNV-1a digest (hex) over every world-shaping knob, for
  /// the run manifest: two runs with the same digest simulated the same
  /// world modulo seed. `seed` and `simulation_threads` are deliberately
  /// excluded — the seed is recorded separately, and the thread count
  /// cannot change results by the executor's determinism contract.
  [[nodiscard]] std::string digest() const;

  void validate() const;
};

}  // namespace acdn
