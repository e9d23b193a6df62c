// The JavaScript measurement beacon (paper §3.2.2, §3.3).
//
// After a sampled search-results page loads, the beacon times fetches to
// four front-ends:
//   (a) the one anycast routing selects,
//   (b) the front-end geographically closest to the client's LDNS,
//   (c,d) two front-ends drawn from the ten closest to the LDNS, with
//         selection probability weighted toward nearer candidates.
// A warm-up request removes DNS lookup time from the measurement, and the
// W3C Resource Timing API replaces the primitive timings when the browser
// supports it. Candidates are chosen per-LDNS using the (imperfect)
// geolocation database, exactly as the real system must.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "beacon/measurement.h"
#include "cdn/router.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "dns/ldns.h"
#include "geo/geolocation.h"
#include "latency/rtt_model.h"
#include "latency/timing_api.h"
#include "workload/clients.h"

namespace acdn {

/// Upper bound on BeaconConfig::candidate_pool: target planning runs on
/// fixed-capacity stack arrays so the per-beacon hot path allocates
/// nothing.
inline constexpr int kMaxCandidatePool = 32;
/// Upper bound on BeaconConfig::targets_per_beacon: the url_id layout
/// packs the fetch ordinal into beacon_id * 4 + k.
inline constexpr int kMaxTargetsPerBeacon = 4;

struct BeaconConfig {
  /// Candidate pool: front-ends nearest the LDNS considered for this
  /// LDNS's clients (§3.3 uses the ten closest; at most
  /// kMaxCandidatePool).
  int candidate_pool = 10;
  /// Fetches per beacon execution (anycast + closest + weighted randoms;
  /// at most kMaxTargetsPerBeacon).
  int targets_per_beacon = 4;
  /// Probability a fetch fails (timeout, aborted page, lost report): its
  /// DNS row exists but no HTTP row arrives, so the join drops it and the
  /// measurement has fewer than four targets — as in any real pipeline.
  double fetch_loss_prob = 0.015;
};

class BeaconSystem {
 public:
  /// Builds the per-LDNS candidate pools and pre-resolves every
  /// population client's pool routes, on up to `threads` executor lanes
  /// (the result is the same for any count).
  BeaconSystem(const CdnRouter& router, const MetroDatabase& metros,
               const ClientPopulation& clients, const LdnsPopulation& ldns,
               const GeolocationModel& geolocation, const RttModel& rtt,
               const TimingModel& timing, const BeaconConfig& config = {},
               int threads = 1);

  /// The ten-ish closest front-ends to `ldns` (geolocated), nearest first.
  [[nodiscard]] std::span<const FrontEndId> candidates_for(LdnsId ldns) const;

  /// Executes one beacon for `client` at `when`, given the front-end and
  /// geographic route anycast currently assigns it. Appends four rows to
  /// each log; the joined measurement is recovered later via
  /// MeasurementStore::join.
  ///
  /// `beacon_id` must be globally unique per execution; the caller derives
  /// it from stable coordinates (e.g. day/client/sequence) so executions
  /// are identifiable and the system needs no shared counter — which is
  /// what makes concurrent simulation days deterministic. Thread-safe for
  /// distinct clients.
  void run_beacon(std::uint64_t beacon_id, const Client24& client,
                  const SimTime& when, const RouteResult& anycast_route,
                  Rng& rng, std::vector<DnsLogEntry>& dns_log,
                  std::vector<HttpLogEntry>& http_log);

  /// Convenience overload using an internal sequence counter (single-
  /// threaded callers only).
  void run_beacon(const Client24& client, const SimTime& when,
                  const RouteResult& anycast_route, Rng& rng,
                  std::vector<DnsLogEntry>& dns_log,
                  std::vector<HttpLogEntry>& http_log) {
    run_beacon(next_beacon_id_++, client, when, anycast_route, rng, dns_log,
               http_log);
  }

  /// Calibration sweep (Figure 1): measure `client` to *every* candidate
  /// of its LDNS, nearest first. Returns one latency per candidate.
  [[nodiscard]] std::vector<Milliseconds> measure_all_candidates(
      const Client24& client, const SimTime& when, Rng& rng) const;

  /// True one-sample RTT from `client` to front-end `fe` over the unicast
  /// route (shared by beacon fetches and the Figure-1 sweep). A population
  /// client's own pool candidates read the pre-resolved store; any other
  /// (client, front-end) calls CdnRouter::route_unicast on every call, so
  /// a caller asking for many of those memoizes them itself.
  [[nodiscard]] Milliseconds unicast_rtt(const Client24& client, FrontEndId fe,
                                         const SimTime& when, Rng& rng) const;

  /// One-sample RTT over a resolved route (used for the anycast fetch).
  [[nodiscard]] Milliseconds route_rtt(const Client24& client,
                                       const RouteResult& route,
                                       const SimTime& when, Rng& rng) const;

  [[nodiscard]] const BeaconConfig& config() const { return config_; }

 private:
  /// True when `client` matches the population client of its id in LDNS
  /// (hence candidate pool), access AS and metro: its pool candidates'
  /// routes are then the ones in pool_routes_.
  [[nodiscard]] bool routes_from_pool(const Client24& client) const;

  /// The unicast route from `client` to `fe`: from pool_routes_ when
  /// routes_from_pool holds and `fe` is in the pool, else resolved by
  /// CdnRouter::route_unicast.
  [[nodiscard]] RouteResult unicast_route(const Client24& client,
                                          FrontEndId fe) const;

  /// A population client's route to its pool candidate `pool_index`,
  /// straight out of pool_routes_. `pool_index` must address a real
  /// candidate of the client's LDNS (DCHECKed).
  [[nodiscard]] const RouteResult& pool_route(const Client24& client,
                                              std::size_t pool_index) const;

  /// route_rtt with the diurnal factor precomputed: a beacon's fetches
  /// share one instant, so run_beacon computes it once per beacon.
  [[nodiscard]] Milliseconds route_rtt_at(const Client24& client,
                                          const RouteResult& route,
                                          double diurnal, Rng& rng) const;

  const CdnRouter* router_;
  const MetroDatabase* metros_;
  const ClientPopulation* clients_;
  const LdnsPopulation* ldns_;
  const RttModel* rtt_;
  const TimingModel* timing_;
  BeaconConfig config_;

  std::vector<std::vector<FrontEndId>> candidates_;  // per LdnsId
  /// Per-client great-circle distance to its metro center, precomputed:
  /// route_rtt would otherwise re-run haversine for every fetch of every
  /// beacon of the same /24. Indexed by ClientId.
  std::vector<Kilometers> client_local_km_;
  std::uint64_t next_beacon_id_ = 0;  // convenience-overload counter only
  /// The one unicast route store, indexed
  /// `client.id * candidate_pool + pool_index`: every population client's
  /// route to each of its LDNS's candidates, resolved at construction.
  /// Immutable afterwards, so the per-fetch hot path reads it with no
  /// lock, and run_beacon, knowing each unicast target's pool position,
  /// indexes it with one array load. Slots past a pool's real candidate
  /// count stay invalid and are never indexed.
  std::vector<RouteResult> pool_routes_;
};

}  // namespace acdn
