#include "analysis/catchment.h"

#include <algorithm>

#include "common/check.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "stats/quantile.h"

namespace acdn {

int CatchmentSummary::foreign_clients() const {
  // The front-end's own country is the plurality country of its metro; we
  // carry it implicitly: countries not matching the site name's country
  // cannot be derived here, so count clients outside the *largest*
  // contributor as a proxy for geographic mixing.
  int total = 0;
  int largest = 0;
  for (const auto& [country, n] : countries) {
    total += n;
    largest = std::max(largest, n);
  }
  return total - largest;
}

namespace {

/// Partial catchment accumulation over one deterministic chunk of the
/// client range.
struct CatchmentShard {
  std::vector<CatchmentSummary> out;            // counts and sums only
  std::vector<std::vector<double>> distances;   // per front-end, in
                                                // client order
  double total_volume = 0.0;
  // Route-resolution tallies ride in the shard (no per-client metric
  // calls in the hot loop) and publish once after the fold.
  std::size_t routed = 0;
  std::size_t unroutable = 0;
};

}  // namespace

std::vector<CatchmentSummary> compute_catchments(
    const ClientPopulation& clients, const CdnRouter& router,
    const MetroDatabase& metros, int threads) {
  const PhaseSpan catchment_phase("analysis.catchment");
  const Deployment& deployment = router.cdn().deployment();
  const auto all = clients.clients();

  // Routes depend only on the routing unit, so each unit resolves once,
  // on the pool. Chunks of clients then accumulate into private shards
  // that fold in ascending chunk order; the chunk plan fixes the
  // floating-point association of every sum. The fold runs on the calling
  // thread: a client now costs one haversine and a few increments, and
  // shards spread over the workers left their per-front-end vectors as
  // free space in every worker's heap (sweep peak RSS +5%).
  const UnitRoutes routes = router.route_anycast_units(all, threads);
  CatchmentShard total = Executor::global().parallel_reduce(
      0, all.size(), /*parallelism=*/1, kReduceGrain, CatchmentShard{},
      [&](CatchmentShard& shard, std::size_t i) {
        if (shard.out.empty()) {
          shard.out.resize(deployment.size());
          shard.distances.resize(deployment.size());
        }
        const Client24& c = all[i];
        const RouteResult& route = routes.for_client(c);
        if (!route.valid) {
          ++shard.unroutable;
          return;
        }
        ++shard.routed;
        ACDN_DCHECK_LT(route.front_end.value, deployment.size())
            << "router returned a front-end outside the deployment";
        CatchmentSummary& summary = shard.out[route.front_end.value];
        ++summary.clients;
        summary.query_share += c.daily_queries;  // normalized below
        shard.total_volume += c.daily_queries;
        ++summary.countries[metros.metro(c.metro).country];
        shard.distances[route.front_end.value].push_back(haversine_km(
            c.location,
            metros.metro(deployment.site(route.front_end).metro).location));
      },
      [](CatchmentShard& acc, CatchmentShard&& shard) {
        if (shard.out.empty()) return;
        if (acc.out.empty()) {
          acc = std::move(shard);
          return;
        }
        // Shards size lazily but always to deployment.size(); a mismatch
        // here means per-front-end sums are being folded misaligned.
        ACDN_CHECK_EQ(acc.out.size(), shard.out.size())
            << "catchment shard fold misaligned";
        for (std::size_t fe = 0; fe < acc.out.size(); ++fe) {
          acc.out[fe].clients += shard.out[fe].clients;
          acc.out[fe].query_share += shard.out[fe].query_share;
          for (const auto& [country, n] : shard.out[fe].countries) {
            acc.out[fe].countries[country] += n;
          }
          acc.distances[fe].insert(acc.distances[fe].end(),
                                   shard.distances[fe].begin(),
                                   shard.distances[fe].end());
        }
        acc.total_volume += shard.total_volume;
        acc.routed += shard.routed;
        acc.unroutable += shard.unroutable;
      });
  metric_count("catchment.clients_routed", total.routed);
  metric_count("catchment.clients_unroutable", total.unroutable);
  if (total.out.empty()) {
    total.out.resize(deployment.size());
    total.distances.resize(deployment.size());
  }

  std::vector<CatchmentSummary> out = std::move(total.out);
  for (const FrontEndSite& s : deployment.sites()) {
    out[s.id.value].front_end = s.id;
    out[s.id.value].name = s.name;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (total.total_volume > 0.0) out[i].query_share /= total.total_volume;
    if (!total.distances[i].empty()) {
      out[i].median_client_km = quantile(total.distances[i], 0.5);
      out[i].p90_client_km = quantile(total.distances[i], 0.9);
    }
  }
  return out;
}

CatchmentHealth catchment_health(
    std::span<const CatchmentSummary> catchments) {
  CatchmentHealth health;
  if (catchments.empty()) return health;
  double active = 0.0;
  for (const CatchmentSummary& c : catchments) {
    if (c.clients > 0) active += 1.0;
    health.busiest_share = std::max(health.busiest_share, c.query_share);
    if (c.median_client_km <= 1000.0 && c.clients > 0) {
      // Approximation: credit the whole catchment when its median client
      // is within 1000 km (exact per-client accounting would need the raw
      // distances; the health indicator only steers provisioning).
      health.volume_within_1000km += c.query_share;
    }
  }
  health.active_front_ends = active / double(catchments.size());
  return health;
}

}  // namespace acdn
