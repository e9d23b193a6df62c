#include "beacon/beacon.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/error.h"
#include "common/executor.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/radix.h"

namespace acdn {

namespace {

/// Field widths: 24 bits of AS above 20 of metro above 20 of front-end.
std::uint64_t unicast_key(AsId as, MetroId metro, FrontEndId fe) {
  ACDN_DCHECK_LT(std::uint64_t(as.value), std::uint64_t(1) << 24);
  ACDN_DCHECK_LT(std::uint64_t(metro.value), std::uint64_t(1) << 20);
  ACDN_DCHECK_LT(std::uint64_t(fe.value), std::uint64_t(1) << 20);
  return (std::uint64_t(as.value) << 40) |
         (std::uint64_t(metro.value) << 20) | std::uint64_t(fe.value);
}

}  // namespace

BeaconSystem::BeaconSystem(const CdnRouter& router,
                           const MetroDatabase& metros,
                           const ClientPopulation& clients,
                           const LdnsPopulation& ldns,
                           const GeolocationModel& geolocation,
                           const RttModel& rtt, const TimingModel& timing,
                           const BeaconConfig& config, int threads)
    : router_(&router),
      metros_(&metros),
      clients_(&clients),
      ldns_(&ldns),
      rtt_(&rtt),
      timing_(&timing),
      config_(config) {
  require(config_.candidate_pool >= 1, "candidate pool must be positive");
  require(config_.candidate_pool <= kMaxCandidatePool,
          "candidate pool exceeds kMaxCandidatePool");
  require(config_.targets_per_beacon >= 2,
          "beacon needs at least anycast + one unicast target");
  require(config_.targets_per_beacon <= kMaxTargetsPerBeacon,
          "targets_per_beacon exceeds the url_id fetch-ordinal stride");

  // Candidate selection per LDNS (paper §3.3): the N front-ends closest to
  // the LDNS *according to the geolocation database*. Each pool is a pure
  // function of its server (the estimate is keyed by server id), so the
  // pools fan out, each into its own slot.
  candidates_.resize(ldns.size());
  const Deployment& deployment = router.cdn().deployment();
  const std::span<const LdnsServer> servers = ldns.servers();
  Executor::global().parallel_for(
      0, servers.size(), threads, [&](std::size_t i) {
        const LdnsServer& server = servers[i];
        const GeoPoint estimated = geolocation.estimate(
            server.location, 0x1000000000ull + server.id.value);
        candidates_[server.id.value] = deployment.nearest_sites(
            estimated, static_cast<std::size_t>(config_.candidate_pool));
      });

  // Per-client distance to the metro center.
  client_local_km_.reserve(clients.size());
  for (const Client24& c : clients.clients()) {
    client_local_km_.push_back(
        haversine_km(c.location, metros.metro(c.metro).location));
  }

  // Pre-resolve the unicast route of every (client, pool slot) pair a
  // beacon can fetch, so the hot path reads an immutable table with no
  // locking. Clients sharing an (access AS, metro) unit share routes: sort
  // one (route key, slot) pair per slot so equal keys form runs, resolve
  // each run once on the executor and scatter its route to the run's
  // slots. A run writes only its own slots and every distinct key is
  // resolved exactly once, so the table and the router.unicast_lookups
  // count are the same for any `threads`.
  const std::size_t stride = static_cast<std::size_t>(config_.candidate_pool);
  pool_routes_.resize(clients.size() * stride);
  ACDN_CHECK_LE(pool_routes_.size(), std::size_t{UINT32_MAX})
      << "pool slots are packed as 32-bit payloads";
  {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> slots;
    keys.reserve(pool_routes_.size());
    slots.reserve(pool_routes_.size());
    for (const Client24& c : clients.clients()) {
      const std::span<const FrontEndId> pool = candidates_for(c.ldns);
      for (std::size_t j = 0; j < pool.size(); ++j) {
        keys.push_back(unicast_key(c.access_as, c.metro, pool[j]));
        slots.push_back(static_cast<std::uint32_t>(c.id.value * stride + j));
      }
    }
    radix_sort_pairs<std::uint32_t>(keys, slots);
    std::vector<std::size_t> runs;  // first index of each run, then the end
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i == 0 || keys[i] != keys[i - 1]) runs.push_back(i);
    }
    runs.push_back(keys.size());
    Executor::global().parallel_for(
        0, runs.size() - 1, threads, [&](std::size_t r) {
          // The run's first slot names a client and a pool entry with the
          // run's key; the route comes from them, not from decoding the key.
          const std::uint32_t first = slots[runs[r]];
          const Client24& c = clients.client(
              ClientId(static_cast<std::uint32_t>(first / stride)));
          const FrontEndId fe = candidates_for(c.ldns)[first % stride];
          const RouteResult route =
              router_->route_unicast(c.access_as, c.metro, fe);
          for (std::size_t i = runs[r]; i < runs[r + 1]; ++i) {
            pool_routes_[slots[i]] = route;
          }
        });
  }
}

std::span<const FrontEndId> BeaconSystem::candidates_for(LdnsId ldns) const {
  require(ldns.valid() && ldns.value < candidates_.size(), "unknown LDNS");
  return candidates_[ldns.value];
}

bool BeaconSystem::routes_from_pool(const Client24& client) const {
  const auto population = clients_->clients();
  if (client.id.value >= population.size()) return false;
  const Client24& own = population[client.id.value];
  return own.ldns == client.ldns && own.access_as == client.access_as &&
         own.metro == client.metro;
}

RouteResult BeaconSystem::unicast_route(const Client24& client,
                                        FrontEndId fe) const {
  if (routes_from_pool(client)) {
    const std::span<const FrontEndId> pool = candidates_for(client.ldns);
    const auto it = std::find(pool.begin(), pool.end(), fe);
    if (it != pool.end()) {
      return pool_route(client, static_cast<std::size_t>(it - pool.begin()));
    }
  }
  return router_->route_unicast(client.access_as, client.metro, fe);
}

const RouteResult& BeaconSystem::pool_route(const Client24& client,
                                            std::size_t pool_index) const {
  const std::size_t stride =
      static_cast<std::size_t>(config_.candidate_pool);
  const std::size_t slot = client.id.value * stride + pool_index;
  ACDN_DCHECK_LT(pool_index, candidates_for(client.ldns).size());
  ACDN_DCHECK_LT(slot, pool_routes_.size());
  return pool_routes_[slot];
}

Milliseconds BeaconSystem::route_rtt(const Client24& client,
                                     const RouteResult& route,
                                     const SimTime& when, Rng& rng) const {
  return route_rtt_at(client, route, rtt_->diurnal_factor(when), rng);
}

Milliseconds BeaconSystem::route_rtt_at(const Client24& client,
                                        const RouteResult& route,
                                        double diurnal, Rng& rng) const {
  require(route.valid, "route_rtt over an invalid route");
  // Memoized for population clients (identified by id + unchanged
  // coordinates); synthetic clients fall back to the direct computation.
  const auto clients = clients_->clients();
  const bool memoized =
      client.id.value < client_local_km_.size() &&
      clients[client.id.value].metro == client.metro &&
      clients[client.id.value].location == client.location;
  const Kilometers local =
      memoized ? client_local_km_[client.id.value]
               : haversine_km(client.location,
                              metros_->metro(client.metro).location);
  const Milliseconds base = rtt_->base_rtt(local + route.total_km(),
                                           route.as_hops,
                                           client.last_mile_ms);
  return rtt_->sample_at(base, diurnal, rng);
}

Milliseconds BeaconSystem::unicast_rtt(const Client24& client, FrontEndId fe,
                                       const SimTime& when, Rng& rng) const {
  const RouteResult route = unicast_route(client, fe);
  require(route.valid, "unicast prefix unreachable from client");
  return route_rtt(client, route, when, rng);
}

void BeaconSystem::run_beacon(std::uint64_t beacon_id, const Client24& client,
                              const SimTime& when,
                              const RouteResult& anycast_route, Rng& rng,
                              std::vector<DnsLogEntry>& dns_log,
                              std::vector<HttpLogEntry>& http_log) {
  const std::span<const FrontEndId> pool = candidates_for(client.ldns);

  // Target list: anycast, closest-to-LDNS, then weighted randoms from the
  // rest of the pool (closer candidates more likely, §3.3). Planning runs
  // on fixed-capacity stack arrays (bounds enforced at construction) so
  // the per-beacon hot path performs no heap allocation; the draw
  // sequence — one weighted_index over the surviving weights per pick —
  // is exactly the old vector-based one.
  // Pool position of each unicast target (kNoPool for the anycast slot):
  // population clients read unicast routes by direct pool_routes_ index
  // instead of searching the pool.
  constexpr std::uint8_t kNoPool = 0xff;
  std::array<BeaconMeasurement::Target, kMaxTargetsPerBeacon> plan;
  std::array<std::uint8_t, kMaxTargetsPerBeacon> plan_pool;
  std::size_t plan_n = 0;
  plan_pool[plan_n] = kNoPool;
  plan[plan_n++] = {true, anycast_route.front_end, 0.0};
  if (!pool.empty()) {
    plan_pool[plan_n] = 0;
    plan[plan_n++] = {false, pool.front(), 0.0};
  }

  std::array<FrontEndId, kMaxCandidatePool> rest;
  std::array<std::uint8_t, kMaxCandidatePool> rest_pool;
  std::array<double, kMaxCandidatePool> weights;
  std::size_t rest_n = pool.empty() ? 0 : pool.size() - 1;
  for (std::size_t i = 0; i < rest_n; ++i) {
    rest[i] = pool[i + 1];
    rest_pool[i] = static_cast<std::uint8_t>(i + 1);
    weights[i] = 1.0 / double(i + 2);  // rank-weighted: 3rd > 4th > ...
  }
  while (plan_n < static_cast<std::size_t>(config_.targets_per_beacon) &&
         rest_n > 0) {
    const std::size_t pick =
        rng.weighted_index(std::span<const double>(weights.data(), rest_n));
    plan_pool[plan_n] = rest_pool[pick];
    plan[plan_n++] = {false, rest[pick], 0.0};
    // Erase-by-index, order preserved — same survivor order (and thus the
    // same subsequent weighted draws) as the old vector::erase.
    for (std::size_t j = pick; j + 1 < rest_n; ++j) {
      rest[j] = rest[j + 1];
      rest_pool[j] = rest_pool[j + 1];
      weights[j] = weights[j + 1];
    }
    --rest_n;
  }

  // The flat route table is keyed by population identity; a synthetic
  // client (another LDNS, access AS or metro under a reused id) goes
  // through unicast_rtt.
  const bool pooled = routes_from_pool(client);

  // One browser per page load: Resource Timing support is per-beacon.
  const bool resource_timing = timing_->supports_resource_timing(rng);
  // All of a beacon's fetches happen at `when`: one diurnal cosine.
  const double diurnal = rtt_->diurnal_factor(when);

  metric_count("beacon.executions");
  metric_count("beacon.fetches", plan_n);

  // Injected faults. Decisions hash (day, url_id) — never `rng` — so a
  // disarmed run draws the exact same stream as a build without the
  // fail-point layer, and an armed schedule hits the same url_ids no
  // matter how clients are sharded across threads.
  static const FailPoint fetch_fault("beacon/http_fetch");

  for (std::size_t k = 0; k < plan_n; ++k) {
    const std::uint64_t url_id = beacon_id * 4 + k;

    const LdnsFault dns_fault = ldns_resolution_fault(when.day, url_id);
    if (dns_fault == LdnsFault::kServfail) {
      // SERVFAIL / timeout: the lookup fails, so the fetch never
      // happens — neither log side sees this target.
      continue;
    }
    // The warm-up fetch (not timed) populates the resolver cache, so the
    // timed fetch below excludes DNS latency by construction. Under
    // kLogLoss the resolver answered but its log row is lost; the fetch
    // proceeds and its HTTP row arrives as an orphan.
    if (dns_fault == LdnsFault::kNone) {
      dns_log.push_back(DnsLogEntry{url_id, client.ldns, when.day});
    }

    // A fetch can fail outright (timeout, user navigated away, report
    // lost); the DNS row stays, the HTTP row never arrives. This is
    // modeled world behavior (BeaconConfig), not an injected fault.
    // NOLINT-ACDN(failpoint): fetch_loss_prob models organic browser loss
    if (rng.bernoulli(config_.fetch_loss_prob)) continue;

    std::optional<Fault> fetch_fired = fetch_fault.fire(when.day, url_id);
    if (fetch_fired && (fetch_fired->kind == FaultKind::kDrop ||
                        fetch_fired->kind == FaultKind::kError)) {
      continue;  // beacon report lost in flight; DNS row stays
    }

    const Milliseconds true_rtt =
        plan[k].anycast
            ? route_rtt_at(client, anycast_route, diurnal, rng)
            : (pooled ? route_rtt_at(client, pool_route(client, plan_pool[k]),
                                     diurnal, rng)
                      : unicast_rtt(client, plan[k].front_end, when, rng));
    Milliseconds observed = timing_->observe(true_rtt, resource_timing, rng);
    if (fetch_fired) {
      if (fetch_fired->kind == FaultKind::kDelay) {
        observed += fetch_fired->magnitude;
      } else {  // kCorrupt: a skewed timer reading reaches the log
        observed *= 1.0 + fetch_fired->magnitude;
      }
    }
    http_log.push_back(HttpLogEntry{url_id, client.id, plan[k].anycast,
                                    plan[k].front_end, observed, when.day,
                                    when.hour_of_day()});
  }
}

std::vector<Milliseconds> BeaconSystem::measure_all_candidates(
    const Client24& client, const SimTime& when, Rng& rng) const {
  std::vector<Milliseconds> out;
  for (FrontEndId fe : candidates_for(client.ldns)) {
    out.push_back(unicast_rtt(client, fe, when, rng));
  }
  return out;
}

}  // namespace acdn
