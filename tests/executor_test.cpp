// Tests for the persistent work-stealing executor: chunk-plan stability,
// bit-identical reductions, exception propagation, stealing under skewed
// load, nested submission, and end-to-end determinism of the simulation +
// predictor pipeline across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/executor.h"
#include "core/predictor.h"
#include "report/export.h"
#include "sim/simulation.h"
#include "sim/world.h"

namespace acdn {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------ chunk plan

TEST(Executor, ChunkPlanDependsOnlyOnRangeAndGrain) {
  // The plan never sees the thread count, so chunk boundaries — and hence
  // reduction order — cannot vary with parallelism.
  const auto plan = Executor::plan_chunks(1000, 0);
  EXPECT_EQ(plan.chunk_size, 16u);  // ceil(1000 / 64)
  EXPECT_EQ(plan.chunks, 63u);

  const auto coarse = Executor::plan_chunks(1000, 512);
  EXPECT_EQ(coarse.chunk_size, 512u);
  EXPECT_EQ(coarse.chunks, 2u);

  const auto single = Executor::plan_chunks(100, 512);
  EXPECT_EQ(single.chunks, 1u);

  const auto tiny = Executor::plan_chunks(1, 0);
  EXPECT_EQ(tiny.chunk_size, 1u);
  EXPECT_EQ(tiny.chunks, 1u);
}

TEST(Executor, RunChunkedCoversRangeExactlyOnce) {
  Executor pool(3);
  for (int parallelism : {1, 2, 3, 16}) {
    std::vector<std::atomic<int>> hits(777);
    pool.run_chunked(5, 777, parallelism, 1,
                     [&](std::size_t, std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), (i >= 5) ? 1 : 0)
          << "i=" << i << " parallelism=" << parallelism;
    }
  }
}

// ------------------------------------------------------------- reduction

TEST(Executor, ParallelReduceBitIdenticalAcrossThreadCounts) {
  // Floating-point sums are order-sensitive; the executor folds per-chunk
  // shards in ascending chunk order, so the total must be *exactly* equal
  // for any thread count — EXPECT_EQ on doubles is intentional.
  constexpr std::size_t kN = 5000;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = std::sin(double(i)) * 1e3 + 1.0 / double(i + 1);
  }
  auto sum_with = [&](int threads) {
    return Executor::global().parallel_reduce(
        0, kN, threads, 1, 0.0,
        [&](double& acc, std::size_t i) { acc += values[i]; },
        [](double& acc, double&& shard) { acc += shard; });
  };
  const double serial = sum_with(1);
  for (int threads : {2, 7, default_thread_count()}) {
    EXPECT_EQ(sum_with(threads), serial) << "threads=" << threads;
  }
}

TEST(Executor, ParallelReduceEmptyRangeReturnsInit) {
  const double out = Executor::global().parallel_reduce(
      10, 10, 4, 1, 42.0, [](double&, std::size_t) { FAIL(); },
      [](double&, double&&) { FAIL(); });
  EXPECT_EQ(out, 42.0);
}

// ------------------------------------------------------------ exceptions

TEST(Executor, ExceptionPropagatesAndPoolSurvives) {
  EXPECT_THROW(Executor::global().parallel_for(
                   0, 10000, 4,
                   [](std::size_t i) {
                     if (i == 4321) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool is still usable after an exception.
  std::atomic<int> count{0};
  Executor::global().parallel_for(0, 100, 4,
                                  [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, ExceptionMessagePreserved) {
  try {
    Executor::global().parallel_for(0, 100, 1, [](std::size_t i) {
      if (i == 37) throw std::runtime_error("executor-test-message");
    });
    FAIL() << "expected parallel_for to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "executor-test-message");
  }
}

// ---------------------------------------------------------- work stealing

TEST(Executor, StealsAroundHeavyTailedTask) {
  // One chunk is ~1000x heavier than the rest; idle workers must steal the
  // remaining tiny chunks rather than queue behind it.
  Executor pool(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr std::size_t kN = 20000;
  pool.run_chunked(0, kN, 4, 1,
                   [&](std::size_t, std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) {
                       if (i == 0) {
                         volatile double x = 1.0;
                         for (int k = 0; k < 2000000; ++k) {
                           x = x * 1.0000001 + 1e-9;
                         }
                       }
                       sum.fetch_add(i + 1, std::memory_order_relaxed);
                     }
                   });
  EXPECT_EQ(sum.load(), std::uint64_t{kN} * (kN + 1) / 2);
}

TEST(Executor, ManyTinyBatches) {
  // Lots of small submissions stress batch setup/teardown and the wake
  // protocol rather than chunk execution.
  Executor pool(4);
  std::uint64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.run_chunked(0, 64, 4, 1,
                     [&](std::size_t, std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i) {
                         sum.fetch_add(1, std::memory_order_relaxed);
                       }
                     });
    total += sum.load();
  }
  EXPECT_EQ(total, 200u * 64u);
}

// ------------------------------------------------------- nested submission

TEST(Executor, NestedSubmissionCompletes) {
  // Outer tasks submit inner reductions from worker threads. The
  // submitter-participates design makes this deadlock-free even when every
  // worker is itself waiting on an inner batch.
  std::vector<std::uint64_t> totals(16, 0);
  Executor::global().parallel_for(0, totals.size(), 4, [&](std::size_t i) {
    totals[i] = Executor::global().parallel_reduce(
        0, 1000, 2, 1, std::uint64_t{0},
        // NOLINT-ACDN(parallel-fp-accum): these ARE the sanctioned
        [](std::uint64_t& acc, std::size_t j) { acc += j; },
        // NOLINT-ACDN(parallel-fp-accum): parallel_reduce fold lambdas
        [](std::uint64_t& acc, std::uint64_t&& shard) { acc += shard; });
  });
  for (std::uint64_t t : totals) EXPECT_EQ(t, 499500u);
}

// ------------------------------------------------- end-to-end determinism

struct RunArtifacts {
  std::string measurements;
  std::string passive;
  std::string predictions;
};

RunArtifacts run_pipeline(int threads) {
  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = threads;
  World world(config);
  Simulation sim(world);
  sim.run_days(3);

  RunArtifacts out;
  const std::string mpath = ::testing::TempDir() + "acdn_exec_meas.csv";
  const std::string ppath = ::testing::TempDir() + "acdn_exec_pass.csv";
  export_measurements(sim.measurements(), mpath);
  export_passive_log(sim.passive(), ppath);
  out.measurements = slurp(mpath);
  out.passive = slurp(ppath);
  std::remove(mpath.c_str());
  std::remove(ppath.c_str());

  PredictorConfig pc;
  pc.min_measurements = 1;
  pc.threads = threads;
  HistoryPredictor predictor(pc);
  predictor.train(sim.measurements().by_day(0));
  std::ostringstream ss;
  ss << std::hexfloat;  // byte-exact double rendering
  for (const auto& [group, p] : predictor.predictions()) {
    ss << group << ' ' << p.anycast << ' ' << p.front_end.value << ' '
       << p.predicted_ms << ' ' << (p.anycast_ms ? *p.anycast_ms : -1.0)
       << '\n';
  }
  out.predictions = ss.str();
  return out;
}

TEST(ExecutorDeterminism, PipelineByteIdenticalAcrossThreadCounts) {
  const RunArtifacts base = run_pipeline(1);
  ASSERT_FALSE(base.measurements.empty());
  ASSERT_FALSE(base.passive.empty());
  ASSERT_FALSE(base.predictions.empty());
  for (int threads : {2, 7, default_thread_count()}) {
    const RunArtifacts run = run_pipeline(threads);
    EXPECT_EQ(run.measurements, base.measurements) << "threads=" << threads;
    EXPECT_EQ(run.passive, base.passive) << "threads=" << threads;
    EXPECT_EQ(run.predictions, base.predictions) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace acdn
