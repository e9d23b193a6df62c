#include "common/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"

namespace acdn {

namespace {

/// Upper bound on chunks per batch: enough for stealing to balance a
/// heavy-tailed range across every core, few enough that per-chunk queue
/// traffic stays negligible.
constexpr std::size_t kMaxChunksPerBatch = 64;

}  // namespace

/// One submitted range. Lives on the submitting thread's stack for the
/// duration of run_chunked. The completion count is guarded by `m` (not
/// an atomic): the finishing executor decrements and notifies while
/// holding `m`, so the submitter cannot observe zero, return, and destroy
/// the batch while a worker still touches it.
struct Executor::Batch {
  const ChunkFn* fn = nullptr;
  /// Set on first failure; later chunks of the batch are skipped.
  std::atomic<bool> failed{false};
  /// Worker indices [stripe_base, stripe_base + stripe_size) mod pool
  /// size may execute this batch; the submitter always may. Tasks are
  /// only ever pushed to stripe members' deques.
  std::size_t stripe_base = 0;
  std::size_t stripe_size = 0;

  Mutex m;
  /// condition_variable_any: it waits on the relockable MutexLock, so
  /// the acquire/release cycle stays visible to -Wthread-safety.
  std::condition_variable_any done;
  std::size_t pending ACDN_GUARDED_BY(m) = 0;
  std::exception_ptr error ACDN_GUARDED_BY(m);
  std::size_t error_chunk ACDN_GUARDED_BY(m) =
      std::numeric_limits<std::size_t>::max();

  [[nodiscard]] bool allows(std::size_t worker_index,
                            std::size_t pool_size) const {
    return (worker_index + pool_size - stripe_base) % pool_size <
           stripe_size;
  }
};

struct Executor::Task {
  Batch* batch = nullptr;
  std::size_t chunk = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Heap twin of the stack Batch for asynchronous submission: the handle
/// and the pool share ownership through the TaskHandle's shared_ptr (the
/// pool side only ever holds the raw Batch* inside a queued Task, and the
/// handle cannot release the State before pending hits zero — its
/// destructor waits — so the Task's pointer never dangles).
struct TaskHandle::State {
  Executor::Batch batch;
  Executor::ChunkFn fn;
};

TaskHandle::~TaskHandle() { wait_no_throw(); }

TaskHandle& TaskHandle::operator=(TaskHandle&& other) noexcept {
  if (this != &other) {
    wait_no_throw();
    state_ = std::move(other.state_);
  }
  return *this;
}

void TaskHandle::wait_no_throw() noexcept {
  if (!state_) return;
  Executor::Batch& batch = state_->batch;
  MutexLock lk(batch.m);
  while (batch.pending != 0) batch.done.wait(lk);
}

void TaskHandle::join() {
  if (!state_) return;
  const std::shared_ptr<State> state = std::move(state_);
  Executor::Batch& batch = state->batch;
  std::exception_ptr error;
  {
    MutexLock lk(batch.m);
    while (batch.pending != 0) batch.done.wait(lk);
    error = batch.error;
  }
  if (error) std::rethrow_exception(error);
}

struct Executor::Worker {
  Mutex m;
  /// Holds only tasks this worker is allowed to run (stripe invariant).
  std::deque<Task> tasks ACDN_GUARDED_BY(m);
  std::condition_variable_any wake;
  bool stop ACDN_GUARDED_BY(m) = false;
};

Executor::Executor(int threads) {
  const std::size_t n = static_cast<std::size_t>(std::max(1, threads));
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Executor::~Executor() {
  // All run_chunked calls are blocking, so no batch is outstanding here;
  // the deques are empty and workers are either asleep or between tasks.
  for (auto& w : workers_) {
    MutexLock lk(w->m);
    w->stop = true;
    w->wake.notify_all();
  }
  for (std::thread& t : threads_) t.join();
}

Executor& Executor::global() {
  static Executor pool(default_thread_count());
  return pool;
}

Executor::ChunkPlan Executor::plan_chunks(std::size_t n,
                                          std::size_t grain) {
  ChunkPlan plan;
  if (n == 0) return plan;
  const std::size_t floor = std::max<std::size_t>(1, grain);
  plan.chunk_size =
      std::max(floor, (n + kMaxChunksPerBatch - 1) / kMaxChunksPerBatch);
  plan.chunks = (n + plan.chunk_size - 1) / plan.chunk_size;
  // The plan is the unit of determinism: every reduction folds exactly
  // `chunks` shards, and the chunks must tile [0, n) with no gap.
  ACDN_DCHECK_GT(plan.chunk_size, 0u);
  ACDN_DCHECK_GE(plan.chunks * plan.chunk_size, n)
      << "chunk plan does not cover the range";
  ACDN_DCHECK_LT((plan.chunks - 1) * plan.chunk_size, n)
      << "chunk plan has an empty trailing chunk";
  return plan;
}

bool Executor::try_pop_own(std::size_t index, Task& out) {
  Worker& w = *workers_[index];
  MutexLock lk(w.m);
  if (w.tasks.empty()) return false;
  // Newest first: LIFO on the own deque keeps the working set warm.
  out = w.tasks.back();
  w.tasks.pop_back();
  return true;
}

bool Executor::try_steal(std::size_t index, Task& out) {
  const std::size_t n = workers_.size();
  for (std::size_t hop = 1; hop < n; ++hop) {
    Worker& victim = *workers_[(index + hop) % n];
    MutexLock lk(victim.m);
    // Oldest first: FIFO steals take the largest untouched stretch of the
    // victim's range. Only tasks whose stripe admits this worker.
    for (auto it = victim.tasks.begin(); it != victim.tasks.end(); ++it) {
      if (!it->batch->allows(index, n)) continue;
      out = *it;
      victim.tasks.erase(it);
      metric_count_scheduling("executor.steals");
      return true;
    }
  }
  return false;
}

bool Executor::try_take_for_batch(Batch* batch, Task& out) {
  for (auto& wp : workers_) {
    Worker& w = *wp;
    MutexLock lk(w.m);
    for (auto it = w.tasks.begin(); it != w.tasks.end(); ++it) {
      if (it->batch != batch) continue;
      out = *it;
      w.tasks.erase(it);
      return true;
    }
  }
  return false;
}

void Executor::execute(const Task& task) {
  metric_count("executor.tasks");
  Batch& batch = *task.batch;
  if (!batch.failed.load(std::memory_order_acquire)) {
    try {
      (*batch.fn)(task.chunk, task.begin, task.end);
    } catch (...) {
      batch.failed.store(true, std::memory_order_release);
      MutexLock lk(batch.m);
      // Keep the exception of the lowest-indexed throwing chunk so the
      // surfaced error does not depend on scheduling more than it must.
      if (task.chunk < batch.error_chunk) {
        batch.error_chunk = task.chunk;
        batch.error = std::current_exception();
      }
    }
  }
  MutexLock lk(batch.m);
  if (--batch.pending == 0) batch.done.notify_all();
}

void Executor::worker_main(std::size_t index) {
  Worker& self = *workers_[index];
  for (;;) {
    Task task;
    if (try_pop_own(index, task) || try_steal(index, task)) {
      execute(task);
      continue;
    }
    MutexLock lk(self.m);
    // Sleep until a task lands in the own deque. Stealable work elsewhere
    // always comes with a notify to at least one stripe member, and a
    // member with an empty deque re-scans for steals before sleeping.
    // Explicit loop (not the predicate overload): the predicate lambda
    // would read guarded members from an unannotated context.
    while (!self.stop && self.tasks.empty()) self.wake.wait(lk);
    if (self.stop) return;
  }
}

TaskHandle Executor::submit(std::function<void()> fn) {
  auto state = std::make_shared<TaskHandle::State>();
  state->fn = [body = std::move(fn)](std::size_t, std::size_t, std::size_t) {
    body();
  };
  Batch& batch = state->batch;
  batch.fn = &state->fn;
  {
    // Not yet published; see run_chunked for why the lock stays anyway.
    MutexLock lk(batch.m);
    batch.pending = 1;
  }
  // Every worker may run (or steal) an async task — the stripe covers the
  // whole pool. The submitting thread does not participate: the point of
  // submit() is that the caller keeps doing other (serial) work.
  batch.stripe_base = 0;
  batch.stripe_size = workers_.size();
  static std::atomic<std::size_t> rotor{0};
  const std::size_t pool = workers_.size();
  Worker& w = *workers_[rotor.fetch_add(1, std::memory_order_relaxed) % pool];
  {
    MutexLock lk(w.m);
    w.tasks.push_back(Task{&batch, 0, 0, 1});
    w.wake.notify_one();
  }
  metric_count("executor.async_tasks");
  return TaskHandle(std::move(state));
}

void Executor::run_chunked(std::size_t begin, std::size_t end,
                           int parallelism, std::size_t grain,
                           const ChunkFn& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const ChunkPlan plan = plan_chunks(n, grain);

  const std::size_t pool = workers_.size();
  const std::size_t helpers = std::min<std::size_t>(
      pool, static_cast<std::size_t>(std::max(1, parallelism)) - 1);
  metric_count("executor.batches");
  metric_observe("executor.batch_chunks", double(plan.chunks));
  if (helpers == 0 || plan.chunks == 1) {
    // Serial fast path: the identical chunk plan, executed inline in
    // chunk order — bit-identical to the pooled path by construction.
    metric_count("executor.tasks", plan.chunks);
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      const std::size_t b = begin + c * plan.chunk_size;
      ACDN_DCHECK_LT(b, end) << "serial chunk starts past the range";
      fn(c, b, std::min(end, b + plan.chunk_size));
    }
    return;
  }

  Batch batch;
  batch.fn = &fn;
  {
    // Not yet published to any worker, but the analysis (rightly) cannot
    // prove that — and an uncontended lock here is one atomic op.
    MutexLock lk(batch.m);
    batch.pending = plan.chunks;
  }
  // Stripe the batch across `helpers` consecutive deques; rotate the base
  // per submission so repeated small batches spread over the pool. The
  // stripe caps which workers may run the batch, honoring `parallelism`
  // (helpers workers + the submitting thread).
  static std::atomic<std::size_t> rotor{0};
  batch.stripe_base = rotor.fetch_add(1, std::memory_order_relaxed) % pool;
  batch.stripe_size = helpers;

  // One lock + one wake per stripe member: push all of a worker's chunks
  // in a single critical section rather than locking per chunk. The tasks
  // already queued on the stripe (from concurrent or nested batches) are
  // summed in passing — a free queue-depth sample at submit time.
  std::size_t queued_before = 0;
  for (std::size_t h = 0; h < helpers; ++h) {
    Worker& w = *workers_[(batch.stripe_base + h) % pool];
    MutexLock lk(w.m);
    queued_before += w.tasks.size();
    for (std::size_t c = h; c < plan.chunks; c += helpers) {
      const std::size_t b = begin + c * plan.chunk_size;
      ACDN_DCHECK_LT(b, end) << "queued chunk starts past the range";
      w.tasks.push_back(
          Task{&batch, c, b, std::min(end, b + plan.chunk_size)});
    }
    w.wake.notify_one();
  }
  metric_observe("executor.queue_depth", double(queued_before));

  // The submitter works too: drain this batch's chunks (stealing them
  // back from worker deques), then sleep until the in-flight remainder
  // lands. Draining our own batch is what makes nested submission safe —
  // progress never depends on another worker being free.
  for (;;) {
    Task task;
    if (try_take_for_batch(&batch, task)) {
      execute(task);
      continue;
    }
    MutexLock lk(batch.m);
    while (batch.pending != 0) batch.done.wait(lk);
    break;
  }
  std::exception_ptr error;
  {
    MutexLock lk(batch.m);
    error = batch.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace acdn
