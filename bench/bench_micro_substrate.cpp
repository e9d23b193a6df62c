// Substrate microbenchmarks (google-benchmark): the per-operation costs
// that determine how large a simulated world and measurement volume the
// library can handle.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "cdn/router.h"
#include "common/csv.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "net/radix_trie.h"
#include "routing/bgp.h"
#include "sim/world.h"
#include "stats/p2.h"
#include "stats/quantile.h"

namespace {

using namespace acdn;

const World& shared_world() {
  static World world(ScenarioConfig::paper_default());
  return world;
}

void BM_Haversine(benchmark::State& state) {
  const GeoPoint a{51.5, -0.1}, b{40.7, -74.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(haversine_km(a, b));
  }
}
BENCHMARK(BM_Haversine);

// A keyed substream as the day kernel uses one per client-day, activity
// roll and geolocation estimate: seed an Rng from a fresh key, then take
// D draws. Seeding dominates at small D.
void BM_RngKeyedSubstream(benchmark::State& state) {
  const auto draws = static_cast<int>(state.range(0));
  std::uint64_t key = 0;
  for (auto _ : state) {
    Rng rng(++key * 0x9e3779b97f4a7c15ull);
    for (int d = 0; d < draws; ++d) benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngKeyedSubstream)->Arg(1)->Arg(8)->Arg(64)->Arg(400);

void BM_RngWarmDraw(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngWarmDraw);

// One CSV field through CsvWriter::format_number. Whole numbers below 2^53
// with fewer than five trailing zeros (most ids, days) take its integral
// branch; a beacon id with five (70369280000000) and other doubles (RTTs)
// go through std::to_chars' shortest-digit search.
void BM_CsvFormatNumber(benchmark::State& state, double value) {
  // Read from memory each iteration, so the call sees run-time data.
  const std::vector<double> input{value};
  char buf[CsvWriter::kMaxNumberChars];
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsvWriter::format_number(buf, input[0]));
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_CsvFormatNumber, front_end_17, 17.0);
BENCHMARK_CAPTURE(BM_CsvFormatNumber, beacon_id_70369280000000,
                  70369280000000.0);
BENCHMARK_CAPTURE(BM_CsvFormatNumber, rtt_ms_23_456789012345678,
                  23.456789012345678);

void BM_RadixTrieLongestMatch(benchmark::State& state) {
  RadixTrie<int> trie;
  PrefixAllocator alloc = PrefixAllocator::client_pool();
  for (int i = 0; i < state.range(0); ++i) {
    trie.insert(alloc.allocate_slash24(), i);
  }
  Rng rng(1);
  std::vector<Ipv4Address> queries;
  for (int i = 0; i < 1024; ++i) {
    queries.push_back(
        Ipv4Address((10u << 24) | (rng.next_u64() & 0xffffff)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.longest_match(queries[i++ & 1023]));
  }
}
BENCHMARK(BM_RadixTrieLongestMatch)->Arg(1024)->Arg(16384);

void BM_P2Insert(benchmark::State& state) {
  P2Quantile p2(0.25);
  Rng rng(2);
  for (auto _ : state) {
    p2.add(rng.lognormal(3.0, 0.4));
  }
  benchmark::DoNotOptimize(p2.value());
}
BENCHMARK(BM_P2Insert);

void BM_ExactQuantile(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < state.range(0); ++i) {
    samples.push_back(rng.lognormal(3.0, 0.4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantile(samples, 0.25));
  }
}
BENCHMARK(BM_ExactQuantile)->Arg(64)->Arg(1024);

void BM_BgpAnycastTableCompute(benchmark::State& state) {
  const World& world = shared_world();
  const BgpSimulator sim(world.graph(), world.cdn().as_id());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.compute_anycast());
  }
}
BENCHMARK(BM_BgpAnycastTableCompute);

void BM_RouteAnycastLookup(benchmark::State& state) {
  const World& world = shared_world();
  const auto clients = world.clients().clients();
  std::size_t i = 0;
  for (auto _ : state) {
    const Client24& c = clients[i++ % clients.size()];
    benchmark::DoNotOptimize(
        world.router().route_anycast(c.access_as, c.metro));
  }
}
BENCHMARK(BM_RouteAnycastLookup);

void BM_BeaconRun(benchmark::State& state) {
  World& world = const_cast<World&>(shared_world());
  Rng rng(7);
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
  const auto clients = world.clients().clients();
  std::size_t i = 0;
  for (auto _ : state) {
    const Client24& c = clients[i++ % clients.size()];
    const RouteResult route =
        world.router().route_anycast(c.access_as, c.metro);
    world.beacon().run_beacon(c, SimTime{0, 43200.0}, route, rng, dns_log,
                              http_log);
    if (dns_log.size() > 1u << 16) {
      dns_log.clear();
      http_log.clear();
    }
  }
}
BENCHMARK(BM_BeaconRun);

// ------------------------------------------------------------- metrics
//
// The observability layer's cost contract: a disabled call site is one
// relaxed load and a branch; an enabled counter touches only the calling
// thread's shard. The *Metrics variants of the hot-path benchmarks above
// quantify the acceptance bound — instrumented beacon execution and route
// resolution within a few percent of the uninstrumented baselines.

void BM_MetricCounterDisabled(benchmark::State& state) {
  set_metrics_enabled(false);
  for (auto _ : state) {
    metric_count("bench.counter");
  }
}
BENCHMARK(BM_MetricCounterDisabled);

void BM_MetricCounterEnabled(benchmark::State& state) {
  set_metrics_enabled(true);
  for (auto _ : state) {
    metric_count("bench.counter");
  }
  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
}
BENCHMARK(BM_MetricCounterEnabled);

void BM_MetricHistogramEnabled(benchmark::State& state) {
  set_metrics_enabled(true);
  Rng rng(11);
  for (auto _ : state) {
    metric_observe("bench.hist", rng.lognormal(3.0, 0.4));
  }
  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
}
BENCHMARK(BM_MetricHistogramEnabled);

void BM_RouteAnycastLookupMetrics(benchmark::State& state) {
  set_metrics_enabled(true);
  const World& world = shared_world();
  const auto clients = world.clients().clients();
  std::size_t i = 0;
  for (auto _ : state) {
    const Client24& c = clients[i++ % clients.size()];
    benchmark::DoNotOptimize(
        world.router().route_anycast(c.access_as, c.metro));
  }
  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
}
BENCHMARK(BM_RouteAnycastLookupMetrics);

void BM_BeaconRunMetrics(benchmark::State& state) {
  set_metrics_enabled(true);
  World& world = const_cast<World&>(shared_world());
  Rng rng(7);
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
  const auto clients = world.clients().clients();
  std::size_t i = 0;
  for (auto _ : state) {
    const Client24& c = clients[i++ % clients.size()];
    const RouteResult route =
        world.router().route_anycast(c.access_as, c.metro);
    world.beacon().run_beacon(c, SimTime{0, 43200.0}, route, rng, dns_log,
                              http_log);
    if (dns_log.size() > 1u << 16) {
      dns_log.clear();
      http_log.clear();
    }
  }
  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
}
BENCHMARK(BM_BeaconRunMetrics);

// ------------------------------------------------------ executor scaling
//
// Day-loop-shaped kernel: ~1k independent items, tens of microseconds of
// total work. At this size per-call thread spawning is mostly overhead —
// the shape the persistent pool exists for. Compare BM_DayLoopSpawn vs
// BM_DayLoopPool at the same thread count.

std::uint64_t mix_item(std::size_t i) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull ^ (i + 1);
  for (int r = 0; r < 8; ++r) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
  }
  return x;
}

constexpr std::size_t kDayLoopItems = 1024;

/// The pre-executor parallel_for: spawn + join `threads` OS threads per
/// call. Kept verbatim as the baseline the pool is measured against.
void spawn_parallel_for(std::size_t begin, std::size_t end, int threads,
                        const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (threads <= 1 || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const auto workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  // NOLINT-ACDN(raw-thread): spawn-per-call baseline the pool is measured
  std::vector<std::thread> pool;  // against; must bypass the executor
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = begin + w; i < end; i += workers) fn(i);
    });
  }
  // NOLINT-ACDN(raw-thread): joining the baseline's own threads
  for (std::thread& t : pool) t.join();
}

void BM_DayLoopSpawn(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::vector<std::uint64_t> out(kDayLoopItems);
  for (auto _ : state) {
    spawn_parallel_for(0, kDayLoopItems, threads,
                       [&](std::size_t i) { out[i] = mix_item(i); });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DayLoopSpawn)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DayLoopPool(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::vector<std::uint64_t> out(kDayLoopItems);
  Executor& pool = Executor::global();
  for (auto _ : state) {
    pool.parallel_for(0, kDayLoopItems, threads,
                      [&](std::size_t i) { out[i] = mix_item(i); });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DayLoopPool)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_WorldConstructionSmall(benchmark::State& state) {
  for (auto _ : state) {
    World world(ScenarioConfig::small_test());
    benchmark::DoNotOptimize(world.clients().size());
  }
}
BENCHMARK(BM_WorldConstructionSmall)->Unit(benchmark::kMillisecond);

/// A paper-scale World at simulation_threads = Arg: the BGP tables and the
/// beacon precompute fan out over that many lanes; the rest of set-up is
/// serial.
void BM_WorldConstruction(benchmark::State& state) {
  ScenarioConfig config = ScenarioConfig::paper_default();
  config.simulation_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    World world(config);
    benchmark::DoNotOptimize(world.clients().size());
  }
}
BENCHMARK(BM_WorldConstruction)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
