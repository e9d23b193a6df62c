#include "analysis/figures.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/executor.h"
#include "common/radix.h"
#include "stats/quantile.h"

namespace acdn {

namespace {

/// One passive-log entry flattened for the radix group-by. Rows stay in
/// global (day, entry) scan order; the *stable* radix passes sort an
/// index permutation by (client, day, fe) with scan order as the implied
/// tie-breaker, so each (client, day, front-end) cell's queries still
/// accumulate in log order — the floating-point sequence matches the old
/// per-shard map exactly, without an explicit seq column.
struct PassiveRow {
  ClientId client;
  DayIndex day = 0;
  FrontEndId fe;
  double queries = 0.0;
};

/// One (client, day, front-end) cell with its summed queries. Cells are
/// sorted by (client, day, fe) — front-ends ascending within each day,
/// days ascending within each client: the iteration order the old nested
/// std::maps produced.
struct PassiveCell {
  ClientId client;
  DayIndex day = 0;
  FrontEndId fe;
  double queries = 0.0;
};

struct PassiveView {
  std::vector<PassiveCell> cells;
  /// Per-client run boundaries into `cells`, clients ascending.
  std::vector<Run> clients;
};

/// The passive log's days [first, end), grouped by client.
PassiveView passive_by_client(const PassiveLog& log, DayIndex first,
                              DayIndex end) {
  std::vector<PassiveRow> rows;
  {
    std::size_t total = 0;
    for (DayIndex d = first; d < end; ++d) total += log.by_day(d).size();
    rows.reserve(total);
  }
  for (DayIndex d = first; d < end; ++d) {
    for (const PassiveLogEntry& e : log.by_day(d)) {
      rows.push_back(PassiveRow{e.client, d, e.front_end, e.queries});
    }
  }

  // The (client, day, fe) composite is 96 bits — too wide for one packed
  // key — so LSD-chain two stable radix passes over a row-index
  // permutation: first by (day, fe), then by client. Stability makes the
  // second pass preserve the first pass's order within a client, and the
  // first pass preserve scan order within a cell.
  const std::size_t n = rows.size();
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    // NOLINT-ACDN(unchecked-pack): full 32-bit operands in disjoint halves
    keys[i] = (std::uint64_t{static_cast<std::uint32_t>(rows[i].day)} << 32) |
              rows[i].fe.value;
  }
  radix_sort_pairs(std::span<std::uint64_t>(keys),
                   std::span<std::uint32_t>(idx));
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rows[idx[i]].client.value;
  }
  radix_sort_pairs(std::span<std::uint64_t>(keys),
                   std::span<std::uint32_t>(idx));

  PassiveView view;
  const auto same_cell = [&](const PassiveRow& a, const PassiveRow& b) {
    return a.client == b.client && a.day == b.day && a.fe == b.fe;
  };
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (i < n && same_cell(rows[idx[begin]], rows[idx[i]])) continue;
    double queries = 0.0;
    for (std::size_t k = begin; k < i; ++k) {
      queries += rows[idx[k]].queries;  // ascending idx run = log order
    }
    const PassiveRow& head = rows[idx[begin]];
    view.cells.push_back(PassiveCell{head.client, head.day, head.fe, queries});
    begin = i;
  }
  for_each_run(
      std::span<const PassiveCell>(view.cells),
      [](const PassiveCell& a, const PassiveCell& b) {
        return a.client == b.client;
      },
      [&](Run run) { view.clients.push_back(run); });
  return view;
}

Kilometers client_fe_distance(const Client24& client, FrontEndId fe,
                              const Deployment& deployment,
                              const MetroDatabase& metros) {
  return haversine_km(client.location,
                      metros.metro(deployment.site(fe).metro).location);
}

}  // namespace

std::vector<DistributionBuilder> fig1_min_latency_by_pool_size(
    std::span<const std::vector<Milliseconds>> per_client,
    std::span<const int> ns, int threads) {
  return Executor::global().parallel_reduce(
      0, per_client.size(), threads, kReduceGrain,
      std::vector<DistributionBuilder>(ns.size()),
      [&](std::vector<DistributionBuilder>& shard, std::size_t c) {
        if (shard.empty()) shard.resize(ns.size());
        const std::vector<Milliseconds>& lat = per_client[c];
        if (lat.empty()) return;
        for (std::size_t i = 0; i < ns.size(); ++i) {
          const auto n = static_cast<std::size_t>(std::max(1, ns[i]));
          const auto end = std::min(n, lat.size());
          const Milliseconds best = *std::min_element(
              lat.begin(), lat.begin() + static_cast<long>(end));
          shard[i].add(best);
        }
      },
      [](std::vector<DistributionBuilder>& acc,
         std::vector<DistributionBuilder>&& shard) {
        if (shard.empty()) return;
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i].merge(std::move(shard[i]));
        }
      });
}

std::vector<DistributionBuilder> fig2_nth_closest_distances(
    const ClientPopulation& clients, const Deployment& deployment,
    const MetroDatabase& metros, int n, int threads) {
  require(n >= 1, "fig2 needs at least one rank");
  const auto all = clients.clients();
  return Executor::global().parallel_reduce(
      0, all.size(), threads, kReduceGrain,
      std::vector<DistributionBuilder>(static_cast<std::size_t>(n)),
      [&](std::vector<DistributionBuilder>& shard, std::size_t i) {
        if (shard.empty()) shard.resize(static_cast<std::size_t>(n));
        const Client24& c = all[i];
        const auto nearest =
            deployment.nearest_sites(c.location, static_cast<std::size_t>(n));
        for (std::size_t r = 0; r < nearest.size(); ++r) {
          shard[r].add(
              haversine_km(
                  c.location,
                  metros.metro(deployment.site(nearest[r]).metro).location),
              c.daily_queries);
        }
      },
      [](std::vector<DistributionBuilder>& acc,
         std::vector<DistributionBuilder>&& shard) {
        if (shard.empty()) return;
        for (std::size_t r = 0; r < acc.size(); ++r) {
          acc[r].merge(std::move(shard[r]));
        }
      });
}

DistributionBuilder fig3_anycast_minus_best_unicast(
    std::span<const BeaconMeasurement> measurements,
    const ClientPopulation& clients, std::optional<Region> region,
    int threads) {
  return Executor::global().parallel_reduce(
      0, measurements.size(), threads, kReduceGrain, DistributionBuilder{},
      [&](DistributionBuilder& shard, std::size_t i) {
        const BeaconMeasurement& m = measurements[i];
        if (region && clients.client(m.client).region != *region) return;
        const auto anycast = m.anycast_ms();
        const auto best = m.best_unicast();
        if (!anycast || !best) return;
        shard.add(*anycast - best->rtt_ms);
      },
      [](DistributionBuilder& acc, DistributionBuilder&& shard) {
        acc.merge(std::move(shard));
      });
}

Fig4Distances fig4_distances(const PassiveLog& log, DayIndex day,
                             const ClientPopulation& clients,
                             const Deployment& deployment,
                             const MetroDatabase& metros,
                             const GeolocationModel* geolocation,
                             int threads) {
  // Dominant front-end per client that day: highest query volume, lowest
  // id on ties (cells are front-end ascending within the client).
  const PassiveView per_client = passive_by_client(log, day, day + 1);

  return Executor::global().parallel_reduce(
      0, per_client.clients.size(), threads, kReduceGrain, Fig4Distances{},
      [&](Fig4Distances& shard, std::size_t i) {
        const Run run = per_client.clients[i];
        const PassiveCell& head = per_client.cells[run.begin];
        const Client24& client = clients.client(head.client);
        FrontEndId dominant = head.fe;
        double best_q = head.queries;
        for (std::size_t c = run.begin + 1; c < run.end; ++c) {
          if (per_client.cells[c].queries > best_q) {
            dominant = per_client.cells[c].fe;
            best_q = per_client.cells[c].queries;
          }
        }
        // The analysis only knows where the geolocation database puts the
        // client, not where it really is.
        const GeoPoint where =
            geolocation
                ? geolocation->estimate(client.location,
                                        client.prefix.address().value())
                : client.location;
        auto fe_distance = [&](FrontEndId fe) {
          return haversine_km(
              where, metros.metro(deployment.site(fe).metro).location);
        };
        const Kilometers to_fe = fe_distance(dominant);
        const auto closest = deployment.nearest_sites(where, 1);
        require(!closest.empty(), "deployment has no sites");
        const Kilometers to_closest = fe_distance(closest.front());

        shard.to_front_end.add(to_fe);
        shard.to_front_end_weighted.add(to_fe, client.daily_queries);
        shard.past_closest.add(to_fe - to_closest);
        shard.past_closest_weighted.add(to_fe - to_closest,
                                        client.daily_queries);
      },
      [](Fig4Distances& acc, Fig4Distances&& shard) {
        acc.to_front_end.merge(std::move(shard.to_front_end));
        acc.to_front_end_weighted.merge(
            std::move(shard.to_front_end_weighted));
        acc.past_closest.merge(std::move(shard.past_closest));
        acc.past_closest_weighted.merge(
            std::move(shard.past_closest_weighted));
      });
}

FlatMap<std::uint32_t, Milliseconds> daily_improvement(
    const DayAggregates& agg, const Fig5Config& config, int threads) {
  require(agg.grouping() == Grouping::kEcsPrefix,
          "daily_improvement scores per-/24 (ECS) aggregates");

  // Score every group independently on the pool; collect qualifying
  // groups back in ascending key order.
  const std::span<const DayAggregates::Group> groups = agg.groups();
  std::vector<std::optional<Milliseconds>> scored(groups.size());

  Executor::global().parallel_for(
      0, groups.size(), threads, [&](std::size_t i) {
        const DayAggregates::Group& group = groups[i];
        const DayAggregates::Target* anycast =
            agg.find_target(group, TargetKey{true, FrontEndId{}});
        if (anycast == nullptr ||
            static_cast<int>(anycast->count) <
                config.min_samples_per_target) {
          return;
        }
        const Milliseconds anycast_median = median(agg.samples(*anycast));

        std::optional<Milliseconds> best_unicast;
        for (const DayAggregates::Target& target : agg.targets(group)) {
          if (target.key.anycast) continue;
          if (static_cast<int>(target.count) < config.min_samples_per_target) {
            continue;
          }
          const Milliseconds med = median(agg.samples(target));
          if (!best_unicast || med < *best_unicast) best_unicast = med;
        }
        if (!best_unicast) return;
        scored[i] = anycast_median - *best_unicast;
      });

  FlatMap<std::uint32_t, Milliseconds> out;
  out.reserve(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (scored[i]) out.append(groups[i].key, *scored[i]);
  }
  return out;
}

FlatMap<std::uint32_t, Milliseconds> daily_improvement(
    const MeasurementColumns& measurements, const Fig5Config& config,
    int threads, ScratchArena* scratch) {
  return daily_improvement(
      DayAggregates::build(measurements, Grouping::kEcsPrefix, 1, scratch),
      config, threads);
}

FlatMap<std::uint32_t, Milliseconds> daily_improvement(
    std::span<const BeaconMeasurement> measurements,
    const Fig5Config& config, int threads) {
  MeasurementColumns columns;
  std::size_t targets = 0;
  for (const BeaconMeasurement& m : measurements) targets += m.targets.size();
  columns.reserve(measurements.size(), targets);
  for (const BeaconMeasurement& m : measurements) columns.push_back(m);
  return daily_improvement(columns, config, threads, nullptr);
}

std::vector<Fig5Day> fig5_daily_prevalence(const MeasurementStore& store,
                                           const Fig5Config& config,
                                           int threads) {
  // One arena across the day loop: the aggregation buffers warm up on day
  // 0 and are reused (no reallocation) for every later day.
  ScratchArena scratch;
  std::vector<Fig5Day> out;
  out.reserve(static_cast<std::size_t>(store.days()));
  for (DayIndex d = 0; d < store.days(); ++d) {
    const auto improvements =
        daily_improvement(store.columns(d), config, threads, &scratch);
    Fig5Day day;
    day.day = d;
    day.fraction_above.assign(config.thresholds.size(), 0.0);
    if (improvements.empty()) {
      out.push_back(std::move(day));
      continue;
    }
    for (const auto& [group, improvement] : improvements) {
      for (std::size_t i = 0; i < config.thresholds.size(); ++i) {
        const Milliseconds threshold =
            config.thresholds[i] == 0.0 ? config.epsilon_ms
                                        : config.thresholds[i];
        if (improvement > threshold) day.fraction_above[i] += 1.0;
      }
    }
    for (double& f : day.fraction_above) {
      f /= static_cast<double>(improvements.size());
    }
    out.push_back(std::move(day));
  }
  return out;
}

Fig6Duration fig6_poor_duration(const MeasurementStore& store,
                                const Fig5Config& config, int threads) {
  // Collect every (group, poor-day) pair packed group-major into one
  // radix-sortable key, then one group-by pass per /24.
  ScratchArena scratch;
  std::vector<std::uint64_t> poor;
  for (DayIndex d = 0; d < store.days(); ++d) {
    for (const auto& [group, improvement] :
         daily_improvement(store.columns(d), config, threads, &scratch)) {
      if (improvement > config.epsilon_ms) {
        // NOLINT-ACDN(unchecked-pack): 32-bit operands in disjoint halves
        poor.push_back((std::uint64_t{group} << 32) |
                       static_cast<std::uint32_t>(d));
      }
    }
  }
  radix_sort(std::span<std::uint64_t>(poor));

  Fig6Duration out;
  const auto day_of = [](std::uint64_t key) {
    return static_cast<std::uint32_t>(key);
  };
  for_each_run(
      std::span<const std::uint64_t>(poor),
      [](std::uint64_t a, std::uint64_t b) { return (a >> 32) == (b >> 32); },
      [&](Run run) {
        out.days_poor.add(static_cast<double>(run.size()));
        int longest = 1;
        int current = 1;
        for (std::size_t i = run.begin + 1; i < run.end; ++i) {
          current = (day_of(poor[i]) == day_of(poor[i - 1]) + 1) ? current + 1
                                                                 : 1;
          longest = std::max(longest, current);
        }
        out.max_consecutive.add(static_cast<double>(longest));
      });
  return out;
}

std::vector<double> fig7_cumulative_switched(const PassiveLog& log,
                                             int days, int threads) {
  const PassiveView per_client = passive_by_client(log, 0, days);
  if (per_client.clients.empty()) {
    return std::vector<double>(static_cast<std::size_t>(std::max(0, days)),
                               0.0);
  }

  // Per-day increments are counts of clients (exact small integers), so
  // the elementwise shard sums are order-insensitive and bit-exact.
  std::vector<double> switched = Executor::global().parallel_reduce(
      0, per_client.clients.size(), threads, kReduceGrain,
      std::vector<double>(static_cast<std::size_t>(days), 0.0),
      [&](std::vector<double>& shard, std::size_t i) {
        if (shard.empty()) shard.assign(static_cast<std::size_t>(days), 0.0);
        const Run client = per_client.clients[i];
        // Cells are (day, fe)-sorted within the client: the first cell
        // whose front-end differs from the client's first one marks the
        // day its cumulative front-end set grew past a single entry.
        const FrontEndId first_fe = per_client.cells[client.begin].fe;
        std::optional<DayIndex> first_switch;
        for (std::size_t c = client.begin + 1; c < client.end; ++c) {
          if (per_client.cells[c].fe != first_fe) {
            first_switch = per_client.cells[c].day;
            break;
          }
        }
        if (first_switch) {
          for (DayIndex d = *first_switch; d < days; ++d) {
            shard[static_cast<std::size_t>(d)] += 1.0;
          }
        }
      },
      [](std::vector<double>& acc, std::vector<double>&& shard) {
        if (shard.empty()) return;
        for (std::size_t d = 0; d < acc.size(); ++d) acc[d] += shard[d];
      });
  for (double& s : switched) {
    s /= static_cast<double>(per_client.clients.size());
  }
  return switched;
}

DistributionBuilder fig8_switch_distance(const PassiveLog& log, int days,
                                         const ClientPopulation& clients,
                                         const Deployment& deployment,
                                         const MetroDatabase& metros,
                                         int threads) {
  const PassiveView per_client = passive_by_client(log, 0, days);

  return Executor::global().parallel_reduce(
      0, per_client.clients.size(), threads, kReduceGrain,
      DistributionBuilder{},
      [&](DistributionBuilder& shard, std::size_t i) {
        const Run run = per_client.clients[i];
        const std::span<const PassiveCell> cells(
            per_client.cells.data() + run.begin, run.size());
        const Client24& client = clients.client(cells.front().client);
        auto distance = [&](FrontEndId fe) {
          return client_fe_distance(client, fe, deployment, metros);
        };

        std::optional<FrontEndId> previous;
        for_each_run(
            cells,
            [](const PassiveCell& a, const PassiveCell& b) {
              return a.day == b.day;
            },
            [&](Run day_run) {
              // Intra-day: more than one front-end seen the same day.
              if (day_run.size() > 1) {
                // Record the change between the two most-used front-ends.
                std::vector<std::pair<double, FrontEndId>> ranked;
                ranked.reserve(day_run.size());
                for (std::size_t k = day_run.begin; k < day_run.end; ++k) {
                  ranked.emplace_back(cells[k].queries, cells[k].fe);
                }
                std::sort(ranked.rbegin(), ranked.rend());
                shard.add(std::abs(distance(ranked[0].second) -
                                   distance(ranked[1].second)));
              }
              // Dominant front-end: highest query volume, lowest id on
              // ties — the old fe-ascending map walk with a strict `>`.
              FrontEndId today = cells[day_run.begin].fe;
              double best_q = cells[day_run.begin].queries;
              for (std::size_t k = day_run.begin + 1; k < day_run.end; ++k) {
                if (cells[k].queries > best_q) {
                  today = cells[k].fe;
                  best_q = cells[k].queries;
                }
              }
              if (previous && *previous != today) {
                shard.add(std::abs(distance(today) - distance(*previous)));
              }
              previous = today;
            });
      },
      [](DistributionBuilder& acc, DistributionBuilder&& shard) {
        acc.merge(std::move(shard));
      });
}

}  // namespace acdn
