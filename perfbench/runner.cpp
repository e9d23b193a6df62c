// Scenario benchmark runner: time to figures, end to end and per layer.
//
// Runs one workload closed-loop — one scenario at a time, the next only
// after the previous one wrote every output — doing what run_scenario does:
// build each World, run its days, run the analysis tail (figures,
// predictor, catchments) and write the outputs. The workload arrives as a
// generated config file (run.py writes it from the workload seed); the
// runner never sees the seed's origin.
//
//   perfbench_runner --config FILE
//
// Untraced mode (trace 0) runs repetitions with metrics off, as in
// production, and reports the end-to-end metrics — wall times — as sums of
// each step's best over the repetitions (see rep_best). Traced mode
// (trace 1) alternates an untraced and a traced repetition, then runs the
// ablations once. A traced repetition times each module's public calls from
// here, enables the metrics registry to cross-check those timers against the
// library's own PhaseSpan paths, replays World's constructor order through
// the public constructors to split set-up by module, and steps a twin World
// through prepare_day in lockstep (prepare_day rebuilds the plan, so timing
// it a second time on the same World would count the work twice). Time spent
// on that bookkeeping, on digests and on the twin is excluded from the
// repetition's total.
//
// Every operation — a World, a day, a figure, an output file — is checked
// against a digest: the pinned one when the config names a digest file,
// otherwise the first repetition's. A throw or a mismatch counts the
// operation as failed. The last stdout line is one JSON object.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/catchment.h"
#include "analysis/figures.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "core/evaluator.h"
#include "core/predictor.h"
#include "net/allocator.h"
#include "report/export.h"
#include "report/series.h"
#include "sim/pipeline.h"
#include "sim/simulation.h"
#include "sim/world.h"
#include "topology/builder.h"

namespace {

using namespace acdn;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ------------------------------------------------------------------ config

struct BenchConfig {
  std::uint64_t seed = 0;
  int days = 1;
  /// Expected beacon executions per simulated day, per World.
  double beacons_per_day = 8000.0;
  /// One World per factor, deployment scaled by it.
  std::vector<double> site_factors{1.0};
  int threads = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string pinned_digests;
  std::string write_digests;
  /// Derived from the above by world_configs(): one scenario per factor.
  std::vector<ScenarioConfig> worlds;
};

BenchConfig read_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read config " + path);
  BenchConfig b;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    if (key == "seed") {
      fields >> b.seed;
    } else if (key == "days") {
      fields >> b.days;
    } else if (key == "beacons_per_day") {
      fields >> b.beacons_per_day;
    } else if (key == "site_factors") {
      b.site_factors.clear();
      for (double f; fields >> f;) b.site_factors.push_back(f);
      if (!fields.eof()) throw std::runtime_error("bad value for " + key);
      continue;
    } else if (key == "threads") {
      fields >> b.threads;
    } else if (key == "seconds") {
      fields >> b.seconds;
    } else if (key == "trace") {
      fields >> b.trace;
    } else if (key == "out_dir") {
      std::getline(fields >> std::ws, b.out_dir);
    } else if (key == "pinned_digests") {
      std::getline(fields >> std::ws, b.pinned_digests);
    } else if (key == "write_digests") {
      std::getline(fields >> std::ws, b.write_digests);
    } else {
      throw std::runtime_error("unknown config key " + key);
    }
    if (fields.fail()) throw std::runtime_error("bad value for " + key);
  }
  if (b.days < 1 || b.threads < 1 || b.site_factors.empty() ||
      b.out_dir.empty() ||
      !(b.beacons_per_day > 0.0)) {
    throw std::runtime_error("config is missing or has out-of-range values");
  }
  return b;
}

/// Deployment scaled as in bench_ext_deployment_sweep.
DeploymentConfig scaled(DeploymentConfig d, double factor) {
  if (factor == 1.0) return d;
  for (int* region : {&d.north_america, &d.europe, &d.asia, &d.oceania,
                      &d.south_america, &d.africa, &d.middle_east}) {
    *region = std::max(1, int(*region * factor));
  }
  return d;
}

/// One scenario config per site factor. Client query volumes are heavy-
/// tailed, so at a fixed sampling rate the beacon count — and every timing
/// with it — swings by about ±20% from seed to seed. The sampling rate is
/// therefore set per World so that its expected beacon count over the
/// run's days is beacons_per_day a day; the seed still shapes everything
/// else. A probe World (built once, untimed) supplies the query volume.
std::vector<ScenarioConfig> world_configs(const BenchConfig& b) {
  std::vector<ScenarioConfig> out;
  for (const double factor : b.site_factors) {
    ScenarioConfig c = ScenarioConfig::paper_default();
    c.seed = b.seed;
    c.deployment = scaled(c.deployment, factor);
    c.simulation_threads = b.threads;
    const World probe(c);
    double volume = 0.0;
    for (DayIndex d = 0; d < b.days; ++d) {
      for (const Client24& client : probe.clients().clients()) {
        if (probe.schedule().is_active(client, d, c.seed)) {
          volume += probe.schedule().expected_queries_when_active(client, d);
        }
      }
    }
    if (!(volume > 0.0)) throw std::runtime_error("world has no query volume");
    c.schedule.beacon_sampling =
        std::min(1.0, b.beacons_per_day * b.days / volume);
    out.push_back(c);
  }
  return out;
}

// ----------------------------------------------------------------- digests

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(std::string_view s) {
    mix(std::uint64_t(s.size()));
    for (const char c : s) mix(std::uint64_t(std::uint8_t(c)));
  }
};

void mix_route(Digest& d, const RouteResult& r) {
  d.mix(std::uint64_t(r.valid));
  d.mix(std::uint64_t(r.front_end.value));
  d.mix(std::uint64_t(r.ingress_metro.value));
  d.mix(r.path_km);
  d.mix(r.backbone_km);
  d.mix(std::uint64_t(r.as_hops));
}

/// The content a World's constructor builds: every front-end site, every
/// client /24 (placement, volume, resolver), every resolver, and each
/// routing unit's best anycast route. A replay that drew from the RNG in
/// another order, or built a module differently, gives another digest.
std::uint64_t world_digest(const ScenarioConfig& config, const AsGraph& graph,
                           const Deployment& deployment,
                           const CdnRouter& router,
                           const ClientPopulation& clients,
                           const LdnsPopulation& ldns,
                           const DayRoutePlan& plan) {
  Digest d;
  d.mix(config.digest());
  d.mix(std::uint64_t(config.seed));
  d.mix(std::uint64_t(graph.as_count()));
  for (const FrontEndSite& s : deployment.sites()) {
    d.mix(std::uint64_t(s.id.value));
    d.mix(std::uint64_t(s.metro.value));
    d.mix(std::uint64_t(s.unicast_prefix.address().value()));
  }
  for (const LdnsServer& s : ldns.servers()) {
    d.mix(std::uint64_t(s.metro.value));
    d.mix(s.location.lat_deg);
    d.mix(s.location.lon_deg);
    d.mix(std::uint64_t(s.is_public));
    d.mix(std::uint64_t(s.owner.value));
  }
  std::vector<bool> unit_seen(plan.unit_count(), false);
  for (const Client24& c : clients.clients()) {
    d.mix(std::uint64_t(c.prefix.address().value()));
    d.mix(std::uint64_t(c.metro.value));
    d.mix(std::uint64_t(c.access_as.value));
    d.mix(c.location.lat_deg);
    d.mix(c.location.lon_deg);
    d.mix(c.last_mile_ms);
    d.mix(c.daily_queries);
    d.mix(std::uint64_t(c.ldns.value));
    const std::size_t unit = plan.unit_of(c);
    d.mix(std::uint64_t(unit));
    if (!unit_seen[unit]) {
      unit_seen[unit] = true;
      mix_route(d, router.route_anycast(c.access_as, c.metro));
    }
  }
  return d.h;
}

std::uint64_t world_digest(const World& w) {
  return world_digest(w.config(), w.graph(), w.cdn().deployment(), w.router(),
                      w.clients(), w.ldns(), w.day_plan());
}

void mix_columns(Digest& d, const MeasurementColumns& c) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    d.mix(c.beacon_id[i]);
    d.mix(std::uint64_t(c.client[i].value));
    d.mix(std::uint64_t(c.ldns[i].value));
    d.mix(std::uint64_t(c.day[i]));
    d.mix(c.hour[i]);
    for (std::size_t t = c.row_targets_begin(i); t < c.row_targets_end(i);
         ++t) {
      d.mix(std::uint64_t(c.target_anycast[t]));
      d.mix(std::uint64_t(c.target_front_end[t]));
      d.mix(c.target_rtt[t]);
    }
  }
}

/// One day of the store plus the day's passive log.
std::uint64_t day_digest(const Simulation& sim, DayIndex day) {
  Digest d;
  mix_columns(d, sim.measurements().columns(day));
  for (const PassiveLogEntry& e : sim.passive().by_day(day)) {
    d.mix(std::uint64_t(e.client.value));
    d.mix(std::uint64_t(e.front_end.value));
    d.mix(std::uint64_t(e.day));
    d.mix(e.queries);
  }
  return d.h;
}

std::uint64_t store_digest(const MeasurementStore& store, int days) {
  Digest d;
  for (DayIndex day = 0; day < days; ++day) mix_columns(d, store.columns(day));
  return d.h;
}

std::uint64_t figure_digest(const Figure& f) {
  Digest d;
  d.mix(f.title());
  for (const Series& s : f.series()) {
    d.mix(s.name);
    for (const DistPoint& p : s.points) {
      d.mix(p.x);
      d.mix(p.y);
    }
  }
  return d.h;
}

/// FNV-1a over the file's bytes; `bytes` receives its size.
std::uint64_t file_digest(const std::string& path, std::uint64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read output " + path);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::vector<char> buf(1 << 16);
  *bytes = 0;
  while (in) {
    in.read(buf.data(), std::streamsize(buf.size()));
    const auto n = static_cast<std::size_t>(in.gcount());
    *bytes += n;
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ std::uint8_t(buf[i])) * 0x100000001b3ull;
    }
  }
  return h;
}

/// Operation accounting: attempted and failed operations, each checked
/// against its reference digest (pinned, or first seen in this process).
class Ledger {
 public:
  explicit Ledger(const std::string& pinned_path) {
    if (pinned_path.empty()) return;
    std::ifstream in(pinned_path);
    if (!in) throw std::runtime_error("cannot read digests " + pinned_path);
    pinned_ = true;
    std::string op;
    std::string hex;
    while (in >> op >> hex) reference_[op] = std::stoull(hex, nullptr, 16);
  }

  void check(const std::string& op, std::uint64_t digest) {
    ++attempted_;
    seen_.emplace(op, digest);
    const auto it = reference_.find(op);
    if (it == reference_.end()) {
      if (pinned_) {
        fail_uncounted(op + ": no pinned digest");
      } else {
        reference_.emplace(op, digest);
      }
    } else if (it->second != digest) {
      fail_uncounted(op + ": digest differs from the " +
                     (pinned_ ? "pinned one" : "first repetition's"));
    }
  }

  /// An operation that threw, or a consistency check that did not hold.
  void fail(const std::string& what) {
    ++attempted_;
    fail_uncounted(what);
  }

  /// Both sides of a consistency check must agree.
  void expect_equal(const std::string& op, std::uint64_t a, std::uint64_t b) {
    if (a == b) {
      ++attempted_;
    } else {
      fail(op + ": digests disagree");
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  /// Digest over every operation's digest: equal for two runs that
  /// produced byte-identical worlds, days, figures and outputs.
  [[nodiscard]] std::uint64_t combined() const {
    Digest d;
    for (const auto& [op, digest] : seen_) {
      d.mix(op);
      d.mix(digest);
    }
    return d.h;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& [op, digest] : seen_) {
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(digest));
      out << op << ' ' << hex << '\n';
    }
    if (!out) throw std::runtime_error("cannot write digests " + path);
  }

 private:
  void fail_uncounted(const std::string& what) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }

  bool pinned_ = false;
  std::map<std::string, std::uint64_t> reference_;
  /// First digest seen per operation (what write() pins).
  std::map<std::string, std::uint64_t> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ----------------------------------------------------------------- tracing

/// Per-layer values of one traced repetition, summed over its Worlds and
/// days.
using Layers = std::map<std::string, double>;

/// Adds its scope's wall time (ms) to layers[key]; no-op without layers.
class Lap {
 public:
  Lap(Layers* layers, const char* key)
      : layers_(layers), key_(key), start_(Clock::now()) {}
  ~Lap() {
    if (layers_ != nullptr) (*layers_)[key_] += ms_since(start_);
  }
  Lap(const Lap&) = delete;
  Lap& operator=(const Lap&) = delete;

 private:
  Layers* layers_;
  const char* key_;
  Clock::time_point start_;
};

/// Metrics recording off for a scope (bookkeeping that must not count).
class MetricsPaused {
 public:
  MetricsPaused() { set_metrics_enabled(false); }
  ~MetricsPaused() { set_metrics_enabled(true); }
  MetricsPaused(const MetricsPaused&) = delete;
  MetricsPaused& operator=(const MetricsPaused&) = delete;
};

/// Replays World's constructor, step for step and with the same RNG draw
/// order, through the public constructors, timing each module. Returns the
/// digest world_digest(World) gives for the World this builds.
std::uint64_t replay_setup(const ScenarioConfig& world_cfg, Layers& layers) {
  ScenarioConfig config = world_cfg;
  config.validate();
  const SimCalendar calendar(config.start_date);
  FailPointRegistry::global().arm(config.faults);
  Rng rng(config.seed);
  const MetroDatabase& metro_db = MetroDatabase::world();

  auto start = Clock::now();
  AsGraph graph = build_topology(metro_db, config.topology, rng);
  layers["topology.build_ms"] += ms_since(start);

  start = Clock::now();
  PrefixAllocator cdn_addresses = PrefixAllocator::cdn_pool();
  Deployment deployment =
      Deployment::make_default(metro_db, config.deployment, cdn_addresses);
  const CdnNetwork cdn(graph, std::move(deployment), config.cdn, rng);
  const CdnRouter router(graph, cdn);
  layers["cdn.network_ms"] += ms_since(start);

  start = Clock::now();
  PrefixAllocator client_addresses = PrefixAllocator::client_pool();
  ClientPopulation clients = ClientPopulation::generate(
      graph, config.workload, client_addresses, rng);
  layers["workload.clients_ms"] += ms_since(start);

  start = Clock::now();
  const LdnsPopulation ldns =
      LdnsPopulation::build_and_assign(clients, metro_db, config.dns, rng);
  layers["dns.ldns_ms"] += ms_since(start);

  // The beacon's four small model objects ride with its precompute.
  start = Clock::now();
  const GeolocationModel geolocation(config.geolocation,
                                     rng.fork("geolocation").next_u64());
  const RttModel rtt(config.rtt);
  const TimingModel timing(config.timing);
  const QuerySchedule schedule(config.schedule, calendar);
  const BeaconSystem beacon(router, metro_db, clients, ldns, geolocation, rtt,
                            timing, config.beacon);
  layers["beacon.precompute_ms"] += ms_since(start);

  start = Clock::now();
  RouteDynamics dynamics(config.dynamics, calendar, config.seed);
  const DayRoutePlan plan(router, clients.clients(),
                          config.max_route_alternatives,
                          config.flap_traffic_share);
  plan.register_units(dynamics);
  layers["cdn.day_plan_ms"] += ms_since(start);

  return world_digest(config, graph, cdn.deployment(), router, clients, ldns,
                      plan);
}

// ---------------------------------------------------------------- the tail

struct Output {
  std::string name;
  Figure figure;
};

Series cdf_series(std::string name, const DistributionBuilder& d) {
  return Series{std::move(name), d.cdf()};
}

/// The analysis tail: the figures, the day-pair predictor and the
/// catchments. Each call into a module is timed into `layers`.
std::vector<Output> analyze(const BenchConfig& b, const World& world,
                            const Simulation& sim, Layers* layers) {
  const int days = sim.next_day();
  const int threads = b.threads;
  const MeasurementStore& store = sim.measurements();
  const Deployment& deployment = world.cdn().deployment();
  std::vector<Output> out;

  std::vector<BeaconMeasurement> rows;
  {
    const Lap lap(layers, "store.by_day_ms");
    for (DayIndex d = 0; d < days; ++d) {
      const std::vector<BeaconMeasurement> day = store.by_day(d);
      rows.insert(rows.end(), day.begin(), day.end());
    }
  }
  {
    // Sampled on a 1 ms grid, as the paper plots it: Figure::write_csv
    // interpolates every series at every x, so a per-beacon CCDF would make
    // the CSV quadratic in the beacon count.
    const Lap lap(layers, "analysis.fig3_ms");
    std::vector<double> xs;
    for (int x = 0; x <= 300; ++x) xs.push_back(double(x));
    Figure f("anycast vs unicast", "difference_ms", "ccdf");
    for (const auto& [name, region] :
         {std::pair<const char*, std::optional<Region>>{"world", std::nullopt},
          {"europe", Region::kEurope},
          {"north_america", Region::kNorthAmerica}}) {
      const DistributionBuilder diff = fig3_anycast_minus_best_unicast(
          rows, world.clients(), region, threads);
      f.add_series(Series{name, diff.ccdf_at(xs)});
    }
    out.push_back({"fig3_anycast_vs_unicast", std::move(f)});
  }
  {
    const Lap lap(layers, "analysis.fig4_ms");
    const Fig4Distances d4 =
        fig4_distances(sim.passive(), 0, world.clients(), deployment,
                       world.metros(), &world.geolocation(), threads);
    Figure f("client to front-end distance", "km", "cdf");
    f.add_series(cdf_series("to_front_end", d4.to_front_end));
    f.add_series(cdf_series("to_front_end_weighted", d4.to_front_end_weighted));
    f.add_series(cdf_series("past_closest", d4.past_closest));
    f.add_series(cdf_series("past_closest_weighted", d4.past_closest_weighted));
    out.push_back({"fig4_distance", std::move(f)});
  }
  {
    const Fig5Config fig5;
    {
      const Lap lap(layers, "analysis.fig5_ms");
      const std::vector<Fig5Day> prevalence =
          fig5_daily_prevalence(store, fig5, threads);
      Figure f("daily prevalence", "day", "fraction of /24s");
      for (std::size_t i = 0; i < fig5.thresholds.size(); ++i) {
        Series s{"above_" + std::to_string(int(fig5.thresholds[i])) + "ms",
                 {}};
        for (const Fig5Day& day : prevalence) {
          s.points.push_back({double(day.day), day.fraction_above[i]});
        }
        f.add_series(std::move(s));
      }
      out.push_back({"fig5_prevalence", std::move(f)});
    }
    {
      const Lap lap(layers, "analysis.fig6_ms");
      const Fig6Duration d6 = fig6_poor_duration(store, fig5, threads);
      Figure f("poor path duration", "days", "cdf");
      f.add_series(cdf_series("days_poor", d6.days_poor));
      f.add_series(cdf_series("max_consecutive", d6.max_consecutive));
      out.push_back({"fig6_poor_duration", std::move(f)});
    }
    {
      const Lap lap(layers, "analysis.fig7_ms");
      const std::vector<double> switched =
          fig7_cumulative_switched(sim.passive(), days, threads);
      Series s{"switched", {}};
      for (std::size_t i = 0; i < switched.size(); ++i) {
        s.points.push_back({double(i), switched[i]});
      }
      Figure f("front-end affinity", "day", "cumulative switched");
      f.add_series(std::move(s));
      out.push_back({"fig7_affinity", std::move(f)});
    }
    {
      const Lap lap(layers, "analysis.fig8_ms");
      const DistributionBuilder d8 =
          fig8_switch_distance(sim.passive(), days, world.clients(),
                               deployment, world.metros(), threads);
      Figure f("switch distance", "km", "cdf");
      f.add_series(cdf_series("switch_km", d8));
      out.push_back({"fig8_switch_distance", std::move(f)});
    }
    // Train on day D, score on day D+1, for every consecutive pair.
    PredictorConfig pc;
    pc.threads = threads;
    PredictionEvaluator::Config ec;
    ec.threads = threads;
    const PredictionEvaluator evaluator(world.clients(), world.ldns(), ec);
    ScratchArena scratch;
    Series improved{"improved_p50", {}};
    Series worse{"worse_p50", {}};
    for (DayIndex d = 0; d + 1 < days; ++d) {
      std::optional<DayAggregates> agg;
      {
        const Lap lap(layers, "analysis.aggregate_ms");
        agg.emplace(DayAggregates::build(store.columns(d),
                                         Grouping::kEcsPrefix, threads,
                                         &scratch));
      }
      HistoryPredictor predictor(pc);
      {
        const Lap lap(layers, "core.train_ms");
        predictor.train(*agg);
      }
      std::vector<EvalOutcome> outcomes;
      {
        const Lap lap(layers, "core.evaluate_ms");
        outcomes = evaluator.evaluate(predictor, store.columns(d + 1));
      }
      const Lap lap(layers, "core.summarize_ms");
      const EvalSummary summary = evaluator.summarize(outcomes);
      improved.points.push_back({double(d + 1), summary.fraction_improved_p50});
      worse.points.push_back({double(d + 1), summary.fraction_worse_p50});
    }
    Figure f("prediction", "day", "fraction of clients");
    f.add_series(std::move(improved));
    f.add_series(std::move(worse));
    out.push_back({"fig9_prediction", std::move(f)});
  }
  {
    const Lap lap(layers, "analysis.catchment_ms");
    const std::vector<CatchmentSummary> catchments = compute_catchments(
        world.clients(), world.router(), world.metros(), threads);
    const CatchmentHealth health = catchment_health(catchments);
    Series share{"query_share", {}};
    Series km{"median_client_km", {}};
    for (const CatchmentSummary& c : catchments) {
      share.points.push_back({double(c.front_end.value), c.query_share});
      km.points.push_back({double(c.front_end.value), c.median_client_km});
    }
    Figure f("catchments", "front_end", "value");
    f.add_series(std::move(share));
    f.add_series(std::move(km));
    f.add_series(Series{"health",
                        {{0.0, health.volume_within_1000km},
                         {1.0, health.active_front_ends},
                         {2.0, health.busiest_share}}});
    out.push_back({"catchments", std::move(f)});
  }
  return out;
}

/// Figure CSVs and both raw logs into `dir`; returns the files written.
std::vector<std::string> write_outputs(const std::vector<Output>& figures,
                                       const Simulation& sim,
                                       const std::string& dir,
                                       Layers* layers) {
  std::vector<std::string> files;
  {
    const Lap lap(layers, "report.figure_csv_ms");
    for (const Output& o : figures) {
      files.push_back(o.name + ".csv");
      o.figure.write_csv(dir + "/" + files.back());
    }
  }
  {
    const Lap lap(layers, "report.export_measurements_ms");
    files.push_back("measurements.csv");
    export_measurements(sim.measurements(), dir + "/" + files.back());
  }
  {
    const Lap lap(layers, "report.export_passive_ms");
    files.push_back("passive_log.csv");
    export_passive_log(sim.passive(), dir + "/" + files.back());
  }
  return files;
}

// ------------------------------------------------------------ repetitions

/// Wall times, in ms, of one scenario (one World: set-up, days, tail and
/// outputs), step by step: "setup", "day/<d>", "analysis/<call>",
/// "export/<call>" (each phase's untimed remainder is its "rest" call) and
/// the scenario's own "rest". Together the steps make the scenario's wall
/// time, bookkeeping excluded.
using Steps = std::map<std::string, double>;

/// One repetition: the steps of each of the workload's scenarios.
struct RepTimes {
  std::vector<Steps> scenarios;
};

/// The end-to-end phases of a list of scenarios, in ms.
struct Phases {
  double total_ms = 0.0;
  double setup_ms = 0.0;
  double analysis_ms = 0.0;
  double export_ms = 0.0;
  std::vector<double> day_ms;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

Phases phases(const std::vector<Steps>& scenarios) {
  Phases p;
  for (const Steps& steps : scenarios) {
    for (const auto& [step, ms] : steps) {
      p.total_ms += ms;
      if (step == "setup") p.setup_ms += ms;
      if (starts_with(step, "day/")) p.day_ms.push_back(ms);
      if (starts_with(step, "analysis/")) p.analysis_ms += ms;
      if (starts_with(step, "export/")) p.export_ms += ms;
    }
  }
  return p;
}

/// Files a phase's calls, timed into `laps`, under `prefix`, with the
/// phase's untimed remainder as prefix + "rest"; a traced repetition also
/// adds the calls to its layers.
void file_laps(Steps& steps, const std::string& prefix, const Layers& laps,
               double phase_ms, Layers* layers) {
  double rest = phase_ms;
  for (const auto& [call, ms] : laps) {
    steps[prefix + call] = ms;
    rest -= ms;
    if (layers != nullptr) (*layers)[call] += ms;
  }
  steps[prefix + "rest"] = std::max(0.0, rest);
}

std::uint64_t counter(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double phase_ms(const MetricsSnapshot& s, const std::string& path) {
  const auto it = s.phases.find(path);
  return it == s.phases.end() ? 0.0 : it->second.total_ms;
}

/// One scenario: every World of the workload, its days, tail and outputs.
/// `layers` non-null makes it the traced repetition.
RepTimes run_rep(const BenchConfig& b, Ledger& ledger, Layers* layers) {
  const bool traced = layers != nullptr;
  if (traced) {
    MetricsRegistry::global().reset();
    set_metrics_enabled(true);
  }
  RepTimes rep;
  double excluded_ms = 0.0;
  auto untimed = [&](auto&& fn) {
    const auto start = Clock::now();
    fn();
    excluded_ms += ms_since(start);
  };
  double join_rows = 0.0;
  double join_shards = 0.0;
  double out_bytes = 0.0;
  double setup_parts_ms = 0.0;

  for (std::size_t w = 0; w < b.worlds.size(); ++w) {
    const ScenarioConfig& cfg = b.worlds[w];
    std::string tag = "w";
    tag += std::to_string(w);
    Steps steps;
    const double excluded_before = excluded_ms;
    const auto scenario_start = Clock::now();

    std::unique_ptr<World> twin;
    std::uint64_t replayed = 0;
    if (traced) {
      untimed([&] {
        const MetricsPaused paused;
        Layers parts;
        // The twin first, so the replay and the timed World below both
        // build into warm caches.
        twin = std::make_unique<World>(cfg);
        replayed = replay_setup(cfg, parts);
        for (const auto& [key, ms] : parts) {
          (*layers)[key] += ms;
          setup_parts_ms += ms;
        }
      });
    }

    auto start = Clock::now();
    World world(cfg);
    steps["setup"] = ms_since(start);
    untimed([&] {
      ledger.check(tag + "/world", world_digest(world));
      if (traced) ledger.expect_equal(tag + "/replay", replayed,
                                      world_digest(world));
    });

    Simulation sim(world);
    std::vector<DnsLogEntry> dns_log;
    std::vector<HttpLogEntry> http_log;
    for (DayIndex d = 0; d < b.days; ++d) {
      if (!traced) {
        start = Clock::now();
        sim.run_day();
        steps["day/" + std::to_string(d)] = ms_since(start);
      } else {
        // run_day == run_day_kernel + join, byte for byte; splitting it
        // here times the store apart from the kernel.
        untimed([&] {
          const MetricsPaused paused;
          const auto t = Clock::now();
          twin->prepare_day(d, b.threads);
          (*layers)["cdn.prepare_day_ms"] += ms_since(t);
        });
        start = Clock::now();
        sim.run_day_kernel(dns_log, http_log);
        const double kernel_ms = ms_since(start);
        std::uint64_t tasks_before = 0;
        untimed([&] {
          tasks_before =
              counter(MetricsRegistry::global().snapshot(), "executor.tasks");
        });
        start = Clock::now();
        sim.measurements_mut().join(dns_log, http_log, b.threads);
        const double join_ms = ms_since(start);
        untimed([&] {
          const std::uint64_t tasks = counter(
              MetricsRegistry::global().snapshot(), "executor.tasks");
          // The sharded path runs one executor task per shard; the
          // single-shard presorted path runs none.
          join_shards += double(std::max<std::uint64_t>(1, tasks - tasks_before));
        });
        (*layers)["sim.kernel_ms"] += kernel_ms;
        (*layers)["store.join_ms"] += join_ms;
        join_rows += double(dns_log.size() + http_log.size());
        steps["day/" + std::to_string(d)] = kernel_ms + join_ms;
      }
      untimed([&] {
        ledger.check(tag + "/day" + std::to_string(d), day_digest(sim, d));
      });
    }

    Layers laps;
    start = Clock::now();
    const std::vector<Output> figures = analyze(b, world, sim, &laps);
    file_laps(steps, "analysis/", laps, ms_since(start), layers);
    untimed([&] {
      for (const Output& o : figures) {
        ledger.check(tag + "/fig/" + o.name, figure_digest(o.figure));
      }
    });

    const std::string dir = b.out_dir + "/outputs";
    untimed([&] {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
    });
    laps.clear();
    start = Clock::now();
    const std::vector<std::string> files =
        write_outputs(figures, sim, dir, &laps);
    file_laps(steps, "export/", laps, ms_since(start), layers);
    untimed([&] {
      for (const std::string& file : files) {
        std::uint64_t bytes = 0;
        ledger.check(tag + "/out/" + file,
                     file_digest(dir + "/" + file, &bytes));
        out_bytes += double(bytes);
      }
      std::filesystem::remove_all(dir);
      twin.reset();
    });
    double rest = ms_since(scenario_start) - (excluded_ms - excluded_before);
    for (const auto& step : steps) rest -= step.second;
    steps["rest"] = std::max(0.0, rest);
    rep.scenarios.push_back(std::move(steps));
  }

  if (traced) {
    set_metrics_enabled(false);
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    const Phases totals = phases(rep.scenarios);
    Layers& l = *layers;
    const double days = double(totals.day_ms.size());
    l["sim.clients_ms"] = phase_ms(snap, "sim.day/clients");
    l["sim.merge_ms"] =
        l["sim.kernel_ms"] - l["cdn.prepare_day_ms"] - l["sim.clients_ms"];
    l["sim.beacons"] = double(counter(snap, "sim.beacons"));
    l["beacon.fetches"] = double(counter(snap, "beacon.fetches"));
    const double hits = double(counter(snap, "route_plan.cache_hits"));
    const double resolves = double(counter(snap, "route_plan.resolves"));
    l["route_plan.hit_ratio"] = hits / std::max(1.0, hits + resolves);
    l["store.join_ns_per_row"] = l["store.join_ms"] * 1e6 /
                                 std::max(1.0, join_rows);
    l["store.join_shards"] = join_shards / std::max(1.0, days);
    l["join.match_ratio"] =
        double(counter(snap, "join.joined_targets")) /
        std::max(1.0, double(counter(snap, "join.http_rows")));
    const double export_ms = l["report.figure_csv_ms"] +
                             l["report.export_measurements_ms"] +
                             l["report.export_passive_ms"];
    l["report.export_mb_per_s"] = out_bytes / 1e6 / (export_ms / 1e3);
    l["executor.tasks"] = double(counter(snap, "executor.tasks"));
    l["executor.steals"] = double(counter(snap, "executor.steals"));

    // Outside timers against the library's own spans.
    double gap = 0.0;
    const std::pair<const char*, const char*> pairs[] = {
        {"sim.kernel_ms", "sim.day"},
        {"store.join_ms", "join"},
        {"core.train_ms", "predictor.train"},
        {"core.evaluate_ms", "evaluator.evaluate"},
        {"analysis.catchment_ms", "analysis.catchment"}};
    for (const auto& [layer, path] : pairs) {
      if (l[layer] <= 0.0) continue;
      const double span = phase_ms(snap, path);
      std::fprintf(stderr, "span check: %-22s %10.3f ms  %-20s %10.3f ms\n",
                   layer, l[layer], path, span);
      gap = std::max(gap, std::abs(l[layer] - span) / l[layer]);
    }
    l["trace.span_gap_frac"] = gap;

    // Do the layers account for the repetition's wall time?
    double covered = setup_parts_ms;
    for (const char* key :
         {"sim.kernel_ms", "store.join_ms", "store.by_day_ms",
          "analysis.fig3_ms", "analysis.fig4_ms", "analysis.fig5_ms",
          "analysis.fig6_ms", "analysis.fig7_ms", "analysis.fig8_ms",
          "analysis.aggregate_ms", "core.train_ms", "core.evaluate_ms",
          "core.summarize_ms",
          "analysis.catchment_ms", "report.figure_csv_ms",
          "report.export_measurements_ms", "report.export_passive_ms"}) {
      covered += l[key];
    }
    l["trace.coverage_frac"] = covered / totals.total_ms;
    l["trace.setup_coverage_frac"] = setup_parts_ms / totals.setup_ms;
  }
  return rep;
}

std::optional<RepTimes> run_rep_guarded(const BenchConfig& b, Ledger& ledger,
                                        Layers* layers) {
  try {
    return run_rep(b, ledger, layers);
  } catch (const std::exception& e) {
    set_metrics_enabled(false);
    ledger.fail(std::string("repetition threw: ") + e.what());
    return std::nullopt;
  }
}

// --------------------------------------------------------------- ablations

/// store.join_scaling: the join at b.threads versus 1 thread, on the
/// kernel's own logs. pipeline.*: ScenarioPipeline window {0, 2} x kernel
/// threads {1, b.threads}, analysis threads held at b.threads.
void run_ablations(const BenchConfig& b, Ledger& ledger, Layers& layers) {
  const ScenarioConfig& base = b.worlds.front();
  // A week, whatever the workload's own length: enough days for the
  // pipeline's window to fill and drain.
  constexpr int ablation_days = 7;
  {
    World world(base);
    Simulation sim(world);
    const int days = std::min(ablation_days, 3);
    std::vector<std::vector<DnsLogEntry>> dns(static_cast<std::size_t>(days));
    std::vector<std::vector<HttpLogEntry>> http(static_cast<std::size_t>(days));
    double rows = 0.0;
    for (int d = 0; d < days; ++d) {
      sim.run_day_kernel(dns[std::size_t(d)], http[std::size_t(d)]);
      rows += double(dns[std::size_t(d)].size() + http[std::size_t(d)].size());
    }
    constexpr int kRounds = 5;
    std::vector<double> one_ms;
    std::vector<double> many_ms;
    std::map<int, std::uint64_t> digests;
    for (int r = 0; r < kRounds; ++r) {
      // Alternate which thread count goes first in each round.
      for (const int t : r % 2 == 0 ? std::vector<int>{1, b.threads}
                                     : std::vector<int>{b.threads, 1}) {
        MeasurementStore store;
        const auto start = Clock::now();
        for (int d = 0; d < days; ++d) {
          store.join(dns[std::size_t(d)], http[std::size_t(d)], t);
        }
        (t == 1 ? one_ms : many_ms).push_back(ms_since(start));
        if (r == 0) digests[t] = store_digest(store, days);
      }
    }
    ledger.expect_equal("ablation/join_threads", digests[1],
                        digests[b.threads]);
    std::sort(one_ms.begin(), one_ms.end());
    std::sort(many_ms.begin(), many_ms.end());
    const double one = one_ms[kRounds / 2];
    const double many = many_ms[kRounds / 2];
    layers["store.join_scaling"] = many / one;
    layers["store.join_ns_per_row_1t"] = one * 1e6 / rows;
    layers["store.join_ns_per_row_nt"] = many * 1e6 / rows;
  }

  std::map<std::pair<int, int>, double> ms;
  std::optional<std::uint64_t> reference;
  for (const int kernel_threads : {1, b.threads}) {
    for (const int window : {0, 2}) {
      ScenarioConfig cfg = base;
      cfg.simulation_threads = kernel_threads;
      World world(cfg);
      Simulation sim(world);
      PipelineOptions options;
      options.window = window;
      options.threads = b.threads;
      PredictorConfig pc;
      pc.threads = b.threads;
      options.predictor = pc;
      ScenarioPipeline pipeline(sim, options);
      const auto start = Clock::now();
      const PipelineResult result = pipeline.run_days(ablation_days);
      ms[{kernel_threads, window}] = ms_since(start);
      Digest d;
      d.mix(store_digest(sim.measurements(), ablation_days));
      d.mix(result.observed);
      for (const Fig5Day& day : result.prevalence) {
        for (const double f : day.fraction_above) d.mix(f);
      }
      if (!reference) reference = d.h;
      ledger.expect_equal("ablation/pipeline_t" +
                              std::to_string(kernel_threads) + "_w" +
                              std::to_string(window),
                          *reference, d.h);
    }
  }
  layers["pipeline.overlap_gain"] =
      1.0 - ms[{b.threads, 2}] / ms[{b.threads, 0}];
  layers["pipeline.overlap_gain_1t"] = 1.0 - ms[{1, 2}] / ms[{1, 0}];
  layers["pipeline.kernel_thread_gain"] =
      1.0 - ms[{b.threads, 0}] / ms[{1, 0}];
}

// ------------------------------------------------------------------ output

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The end-to-end metrics: each step's best wall time over the
/// repetitions, summed over the workload's steps and scenarios. On a shared
/// host the program is slowed in bursts — another tenant's work, not the
/// program's — that hit a random share of the steps, so the fastest run of
/// a step is the steadiest reading of its own cost. A change that slows
/// every repetition of a step still moves it. A step is one call (a day,
/// a figure, a predictor pass, an export) and is the same work in every
/// repetition; total_s is the sum of the steps, so the phases add up to it.
std::map<std::string, double> rep_best(const std::vector<RepTimes>& reps) {
  std::vector<Steps> best;
  for (const RepTimes& r : reps) {
    if (best.empty()) {
      best = r.scenarios;
      continue;
    }
    for (std::size_t w = 0; w < best.size(); ++w) {
      for (auto& [step, ms] : best[w]) {
        ms = std::min(ms, r.scenarios[w].at(step));
      }
    }
  }
  const Phases p = phases(best);
  return {{"total_s", p.total_ms / 1e3},
          {"setup_s", p.setup_ms / 1e3},
          {"sim_day_ms", median(p.day_ms)},
          {"analysis_s", p.analysis_ms / 1e3},
          {"export_s", p.export_ms / 1e3}};
}

/// High-water resident set size in MB, from /proc/self/status.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

void print_result(const Ledger& ledger, std::size_t reps,
                  const std::map<std::string, double>& metrics,
                  const BenchConfig& b) {
  std::printf("{\"reps\": %zu, \"attempted\": %llu, \"failed\": %llu, ",
              reps, static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  std::printf("\"digest\": \"%016llx\", \"failures\": [",
              static_cast<unsigned long long>(ledger.combined()));
  for (std::size_t i = 0; i < ledger.failures().size(); ++i) {
    std::printf("%s%s", i ? ", " : "", json_string(ledger.failures()[i]).c_str());
  }
  std::printf("], \"stamp\": {\"nproc\": %u, \"simd\": \"%s\", "
              "\"threads\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\"}, ",
              std::thread::hardware_concurrency(),
              simd::name(simd::active()), b.threads, PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--config") {
    std::fprintf(stderr, "usage: %s --config FILE\n", argv[0]);
    return 2;
  }
  try {
    BenchConfig b = read_config(argv[2]);
    b.worlds = world_configs(b);
    Ledger ledger(b.pinned_digests);
    std::map<std::string, double> metrics;
    std::size_t reps = 0;
    const auto start = Clock::now();
    auto elapsed_s = [&] { return ms_since(start) / 1e3; };
    std::vector<RepTimes> untraced;
    double first_peak_mb = 0.0;
    auto run_untraced = [&] {
      if (auto rep = run_rep_guarded(b, ledger, nullptr)) {
        const Phases p = phases(rep->scenarios);
        std::fprintf(stderr,
                     "rep %zu: %.4f s  (setup %.4f s, analysis %.4f s, "
                     "export %.4f s)  peak %.1f MB\n",
                     reps, p.total_ms / 1e3, p.setup_ms / 1e3,
                     p.analysis_ms / 1e3, p.export_ms / 1e3, peak_rss_mb());
        untraced.push_back(std::move(*rep));
      }
      // One scenario in a fresh process, as run_scenario runs it: later
      // repetitions add allocator fragmentation, not program memory.
      if (reps == 1) first_peak_mb = peak_rss_mb();
    };

    if (!b.trace) {
      // At least three repetitions to take the best of.
      while (reps < 3 || elapsed_s() < b.seconds) {
        ++reps;
        run_untraced();
      }
      metrics = rep_best(untraced);
      metrics["peak_rss_mb"] = first_peak_mb;
    } else {
      std::vector<Layers> traced;
      std::vector<RepTimes> traced_times;
      while (reps == 0 || elapsed_s() < b.seconds) {
        ++reps;
        run_untraced();
        Layers layers;
        if (auto rep = run_rep_guarded(b, ledger, &layers)) {
          traced.push_back(std::move(layers));
          traced_times.push_back(std::move(*rep));
        }
      }
      for (const Layers& l : traced) {
        for (const auto& entry : l) metrics[entry.first] = 0.0;
      }
      for (auto& [name, value] : metrics) {
        std::vector<double> values;
        for (const Layers& l : traced) {
          const auto it = l.find(name);
          if (it != l.end()) values.push_back(it->second);
        }
        value = median(values);
      }
      // Read the same way as the end-to-end total.
      const double traced_s = rep_best(traced_times).at("total_s");
      const double untraced_s = rep_best(untraced).at("total_s");
      metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s;
      try {
        Layers ablations;
        run_ablations(b, ledger, ablations);
        metrics.insert(ablations.begin(), ablations.end());
      } catch (const std::exception& e) {
        ledger.fail(std::string("ablation threw: ") + e.what());
      }
    }
    if (!b.write_digests.empty()) ledger.write(b.write_digests);
    print_result(ledger, reps, metrics, b);
    return ledger.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
