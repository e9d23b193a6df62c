// Scenario runner: the library as a command-line tool. Builds a world from
// flags, simulates N days, and writes the standard analysis outputs
// (figure CSVs + a console summary) — the entry point for a user who wants
// data out without writing C++.
//
//   $ ./run_scenario --seed 7 --days 7 --clients 4000 --sampling 0.05
//                    --remote-peering 0.10 --csv-prefix out_ --metrics
//
// Every run records pipeline metrics and writes a JSON run manifest
// (<prefix>run_manifest.json) next to the CSVs: config digest, seed, date
// range, output list and the full metrics snapshot. --metrics additionally
// prints the snapshot as a summary table.
//
// --chaos arms the canned fault schedule (front-end outages, a mid-week
// BGP reset/withdrawal burst, 10% beacon sample loss, sporadic CSV write
// errors), runs the degraded train/evaluate pipeline on top of the
// simulation, and records the schedule plus per-fail-point trigger counts
// in the manifest. --fault-seed N replays a different draw of the same
// schedule; everything stays deterministic per (seed, fault-seed).
//
// Unknown flags exit with usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "analysis/catchment.h"
#include "analysis/figures.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/resilience.h"
#include "report/export.h"
#include "report/run_report.h"
#include "report/series.h"
#include "sim/simulation.h"
#include "sim/world.h"

namespace {

using namespace acdn;

struct Flags {
  std::uint64_t seed = 42;
  int days = 7;
  int clients = 4000;
  double sampling = 0.02;
  double remote_peering = 0.10;
  int threads = 1;
  std::string csv_prefix = "scenario_";
  bool verbose = false;
  bool metrics = false;
  bool chaos = false;
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--days N] [--clients N] [--sampling F]\n"
      "          [--remote-peering F] [--threads N] [--csv-prefix STR]\n"
      "          [--metrics] [--verbose] [--chaos] [--fault-seed N]\n",
      argv0);
}

/// The canned chaos schedule: permanent low-rate front-end outages and
/// beacon sample loss, a two-day BGP reset + withdrawal burst mid-run,
/// and sporadic CSV write errors at export time.
FaultSchedule chaos_schedule(std::uint64_t fault_seed, int days) {
  const DayIndex burst = days / 2;
  FaultSchedule faults;
  faults.seed = fault_seed;
  faults.rules.push_back(
      {"cdn/front_end", FaultKind::kError, 0.02, 0, kFaultWindowOpen, 0.0});
  faults.rules.push_back(
      {"bgp/session", FaultKind::kError, 0.5, burst, burst + 1, 0.0});
  faults.rules.push_back(
      {"bgp/withdrawal", FaultKind::kDrop, 0.25, burst, burst + 1, 0.0});
  faults.rules.push_back({"beacon/http_fetch", FaultKind::kDrop, 0.10, 0,
                          kFaultWindowOpen, 0.0});
  faults.rules.push_back(
      {"csv/write", FaultKind::kError, 0.05, 0, kFaultWindowOpen, 0.0});
  return faults;
}

bool parse(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--days") {
      const char* v = next();
      if (!v) return false;
      flags.days = std::atoi(v);
    } else if (arg == "--clients") {
      const char* v = next();
      if (!v) return false;
      flags.clients = std::atoi(v);
    } else if (arg == "--sampling") {
      const char* v = next();
      if (!v) return false;
      flags.sampling = std::atof(v);
    } else if (arg == "--remote-peering") {
      const char* v = next();
      if (!v) return false;
      flags.remote_peering = std::atof(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return false;
      flags.threads = std::atoi(v);
    } else if (arg == "--csv-prefix") {
      const char* v = next();
      if (!v) return false;
      flags.csv_prefix = v;
    } else if (arg == "--verbose") {
      flags.verbose = true;
    } else if (arg == "--metrics") {
      flags.metrics = true;
    } else if (arg == "--chaos") {
      flags.chaos = true;
    } else if (arg == "--fault-seed") {
      const char* v = next();
      if (!v) return false;
      flags.fault_seed = std::strtoull(v, nullptr, 10);
      flags.fault_seed_set = true;
    } else {
      return false;
    }
  }
  return flags.days > 0 && flags.clients > 0 && flags.threads > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse(argc, argv, flags)) {
    usage(argv[0]);
    return 2;
  }
  if (flags.verbose) set_log_level(LogLevel::kInfo);

  ScenarioConfig config = ScenarioConfig::paper_default();
  config.seed = flags.seed;
  config.workload.total_client_24s = flags.clients;
  config.schedule.beacon_sampling = flags.sampling;
  config.topology.remote_peering_fraction = flags.remote_peering;
  config.simulation_threads = flags.threads;
  if (flags.chaos) {
    // Derive the fault seed from the scenario seed unless pinned, so
    // plain `--chaos` runs are reproducible from the command line alone.
    config.faults = chaos_schedule(
        flags.fault_seed_set ? flags.fault_seed : flags.seed ^ 0xfa017ull,
        flags.days);
  }

  // The manifest wants a full picture, so recording is always on for the
  // runner; --metrics only controls the console table.
  set_metrics_enabled(true);

  World world(config);
  Simulation sim(world);
  sim.run_days(flags.days);

  // --- Console summary.
  std::size_t beacons = 0;
  for (DayIndex d = 0; d < flags.days; ++d) {
    beacons += sim.measurements().columns(d).size();
  }
  std::printf("world: %zu ASes, %zu front-ends, %zu client /24s\n",
              world.graph().as_count(), world.cdn().deployment().size(),
              world.clients().size());
  std::printf("simulated %d days (%s .. %s): %zu beacon executions\n",
              flags.days, world.calendar().date(0).to_string().c_str(),
              world.calendar().date(flags.days - 1).to_string().c_str(),
              beacons);

  std::vector<BeaconMeasurement> all;
  for (DayIndex d = 0; d < flags.days; ++d) {
    const auto day = sim.measurements().by_day(d);
    all.insert(all.end(), day.begin(), day.end());
  }
  const DistributionBuilder diff = fig3_anycast_minus_best_unicast(
      all, world.clients(), std::nullopt, flags.threads);
  std::printf("anycast >=25ms slower than best unicast: %.1f%% of requests\n",
              100.0 * (1.0 - diff.fraction_at_most(25.0)));

  // Operator view: the busiest anycast catchments.
  auto catchments = compute_catchments(world.clients(), world.router(),
                                       world.metros(), flags.threads);
  std::sort(catchments.begin(), catchments.end(),
            [](const CatchmentSummary& a, const CatchmentSummary& b) {
              return a.query_share > b.query_share;
            });
  const CatchmentHealth health = catchment_health(catchments);
  std::printf("\nbusiest catchments (of %zu front-ends, %.0f%% active, "
              "%.0f%% of volume served within 1000km):\n",
              catchments.size(), 100.0 * health.active_front_ends,
              100.0 * health.volume_within_1000km);
  std::printf("  %-16s %8s %8s %10s %10s\n", "front-end", "share",
              "clients", "median km", "countries");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, catchments.size());
       ++i) {
    const CatchmentSummary& c = catchments[i];
    std::printf("  %-16s %7.1f%% %8zu %10.0f %10zu\n", c.name.c_str(),
                100.0 * c.query_share, c.clients, c.median_client_km,
                c.countries.size());
  }

  // --- Degraded train/evaluate pipeline (chaos mode): exercises the
  // fallback paths under the armed schedule and feeds the staleness
  // counters into the manifest.
  std::uint64_t stale_train_days = 0;
  std::uint64_t stale_eval_days = 0;
  if (flags.chaos && flags.days >= 2) {
    ResilienceConfig rc;
    rc.predictor.threads = flags.threads;
    rc.evaluator.threads = flags.threads;
    DegradedPipeline pipeline(world.clients(), world.ldns(), rc);
    std::printf("\nchaos: degraded prediction pipeline\n");
    for (DayIndex d = 1; d < flags.days; ++d) {
      const DegradedPipeline::DayOutcome out =
          pipeline.step(sim.measurements(), d - 1, d);
      std::printf("  day %d: trained=%s evaluated=%s staleness=%d "
                  "improved_p50=%.1f%%\n",
                  d, out.trained_fresh ? "fresh" : "stale",
                  out.evaluated_fresh ? "fresh" : "carried", out.staleness,
                  100.0 * out.summary.fraction_improved_p50);
    }
    stale_train_days = pipeline.stale_train_days();
    stale_eval_days = pipeline.stale_eval_days();
  }

  // --- CSV exports. Under an armed "csv/write" schedule an export can
  // fail; the run degrades to the outputs that survived instead of dying.
  std::vector<std::string> outputs;
  std::vector<std::string> failed_outputs;
  auto write_output = [&](const std::string& path,
                          const std::function<void(const std::string&)>& fn) {
    try {
      fn(path);
      outputs.push_back(path);
    } catch (const Error& e) {
      failed_outputs.push_back(path);
      std::fprintf(stderr, "warning: output failed, continuing: %s\n",
                   e.what());
    }
  };

  Figure fig3("anycast vs unicast", "difference_ms", "ccdf");
  fig3.add_series(Series{"world", diff.ccdf()});
  write_output(flags.csv_prefix + "anycast_vs_unicast.csv",
               [&](const std::string& p) { fig3.write_csv(p); });

  const Fig4Distances d4 =
      fig4_distances(sim.passive(), 0, world.clients(),
                     world.cdn().deployment(), world.metros(),
                     &world.geolocation(), flags.threads);
  Figure fig4("client to front-end distance", "km", "cdf");
  fig4.add_series(Series{"to_front_end", d4.to_front_end.cdf()});
  fig4.add_series(Series{"past_closest", d4.past_closest.cdf()});
  write_output(flags.csv_prefix + "distance.csv",
               [&](const std::string& p) { fig4.write_csv(p); });

  const auto switched =
      fig7_cumulative_switched(sim.passive(), flags.days, flags.threads);
  Figure fig7("front-end affinity", "day", "cumulative switched");
  Series s7{"switched", {}};
  for (std::size_t i = 0; i < switched.size(); ++i) {
    s7.points.push_back({double(i), switched[i]});
  }
  fig7.add_series(std::move(s7));
  write_output(flags.csv_prefix + "affinity.csv",
               [&](const std::string& p) { fig7.write_csv(p); });

  // Raw logs, for analysis in external tooling (re-importable with
  // report/export.h).
  write_output(flags.csv_prefix + "passive_log.csv",
               [&](const std::string& p) {
                 export_passive_log(sim.passive(), p);
               });
  write_output(flags.csv_prefix + "measurements.csv",
               [&](const std::string& p) {
                 export_measurements(sim.measurements(), p);
               });

  // --- Run manifest: the structured record of what this run was.
  RunManifest manifest;
  manifest.tool = "run_scenario";
  manifest.config_digest = config.digest();
  manifest.seed = config.seed;
  manifest.days = flags.days;
  manifest.start_date = world.calendar().date(0).to_string();
  manifest.end_date = world.calendar().date(flags.days - 1).to_string();
  manifest.outputs = outputs;
  manifest.fault_injection = FaultInjectionRecord::from_registry();
  manifest.fault_injection.stale_train_days = stale_train_days;
  manifest.fault_injection.stale_eval_days = stale_eval_days;
  manifest.metrics = MetricsRegistry::global().snapshot();
  const std::string manifest_path =
      flags.csv_prefix + "run_manifest.json";
  try {
    write_run_manifest(manifest, manifest_path);
  } catch (const Error& e) {
    failed_outputs.push_back(manifest_path);
    std::fprintf(stderr, "warning: manifest failed, continuing: %s\n",
                 e.what());
  }
  if (!failed_outputs.empty()) {
    std::printf("%zu output(s) failed (injected or real I/O errors)\n",
                failed_outputs.size());
  }

  if (flags.metrics) {
    std::printf("\n== pipeline metrics ==\n%s",
                format_metrics_table(manifest.metrics).c_str());
  }

  std::printf("wrote %sanycast_vs_unicast.csv, %sdistance.csv, "
              "%saffinity.csv,\n      %spassive_log.csv, "
              "%smeasurements.csv, %srun_manifest.json\n",
              flags.csv_prefix.c_str(), flags.csv_prefix.c_str(),
              flags.csv_prefix.c_str(), flags.csv_prefix.c_str(),
              flags.csv_prefix.c_str(), flags.csv_prefix.c_str());
  return 0;
}
