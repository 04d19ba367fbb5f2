#ifndef SPADE_EXEC_THREAD_POOL_H_
#define SPADE_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/cancel.h"

namespace spade {

/// \brief Fixed-size worker pool over one mutex-guarded FIFO queue.
///
/// Every Submit, from any thread (the caller driving the pipeline or a
/// running task fanning out), appends to the one queue and wakes one
/// sleeping worker; workers pop from the front. The pipeline submits a
/// handful of coarse tasks per run (CFS evaluations, ParallelFor helpers,
/// serve requests), so one lock on the transfer path costs nothing
/// measurable.
///
/// The destructor drains every queued task before joining (a task submitted
/// is a task run, including tasks submitted by running tasks), so
/// fire-and-forget submissions never leak work.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Tasks must not throw (use TaskScheduler::ParallelFor
  /// for exception propagation).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency(), never less than 1.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;               // waits on queue_ / stop_
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_
  std::vector<std::thread> workers_;
};

/// The pool behind an entry point's TaskScheduler, sized by the rule every
/// entry point shares: `num_threads` compute threads in total (0 = hardware
/// concurrency), the calling thread among them — it participates in every
/// ParallelFor — so the pool carries num_threads - 1 workers, and is null
/// when that leaves none (a TaskScheduler over null runs inline).
std::unique_ptr<ThreadPool> MakeWorkerPool(size_t num_threads);

/// \brief Cooperative fork-join scheduling on top of a ThreadPool.
///
/// A null or single-threaded pool degrades to inline serial execution, so
/// callers write one code path. ParallelFor is safe to nest (a task body may
/// itself call ParallelFor on the same scheduler): the calling thread always
/// participates in the loop, so progress never depends on a pool worker
/// being free.
class TaskScheduler {
 public:
  /// `pool` may be null: every operation then runs inline on the caller.
  explicit TaskScheduler(ThreadPool* pool) : pool_(pool) {}

  /// The calling thread always participates in ParallelFor, so a pool of K
  /// workers gives K + 1 compute threads (see MakeWorkerPool).
  bool parallel() const { return pool_ != nullptr && pool_->num_threads() > 0; }
  /// Total compute threads a ParallelFor can use, caller included.
  size_t num_threads() const { return parallel() ? pool_->num_threads() + 1 : 1; }

  /// Run fn(0) .. fn(n-1), potentially concurrently, and block until all
  /// completed. Indexes are claimed atomically, so the distribution over
  /// threads is dynamic. The first exception thrown by any fn is rethrown
  /// on the calling thread after the loop drains.
  ///
  /// When `cancel` is non-null and cancel->AbortNow() becomes true,
  /// participants stop executing bodies for newly claimed indexes (already
  /// running bodies finish normally) and the loop drains early. The caller
  /// decides what a partially executed loop means; bodies that must not be
  /// skipped mid-range should check the token themselves.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const CancelCheck* cancel = nullptr);

  /// The underlying pool (null when serial). TaskGroup submits through this;
  /// algorithm code should prefer ParallelFor / TaskGroup.
  ThreadPool* pool() const { return pool_; }

 private:
  ThreadPool* pool_;
};

/// \brief A join handle over independently submitted tasks — the async
/// counterpart of ParallelFor, built for producer/consumer loops where
/// tasks are discovered one at a time (the serve loops submit one task per
/// request while they keep reading).
///
/// Run() enqueues a task on the scheduler's pool; on a serial scheduler it
/// executes inline, so callers have exactly one code path. Wait() blocks
/// until every submitted task finished and rethrows the first exception
/// any task threw. WaitPendingBelow() is the bounded-queue backpressure
/// primitive: a producer calls it between submissions to cap the number of
/// in-flight tasks (and therefore buffered requests).
///
/// Tasks must not themselves Wait() on this group, and the group must
/// outlive its tasks (the destructor waits). One thread drives Run/Wait;
/// the tasks themselves may run on any pool worker.
class TaskGroup {
 public:
  explicit TaskGroup(TaskScheduler* scheduler) : scheduler_(scheduler) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit one task (inline on a serial scheduler). Exceptions are captured
  /// and rethrown by Wait(), never propagated to the pool.
  void Run(std::function<void()> task);

  /// Block until every task submitted so far has finished; rethrows the
  /// first captured exception.
  void Wait();

  /// Block until fewer than `cap` submitted tasks remain unfinished
  /// (cap >= 1; no-op on a serial scheduler, where nothing is ever pending).
  void WaitPendingBelow(size_t cap);

 private:
  TaskScheduler* scheduler_;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t pending_ = 0;               // guarded by mutex_
  std::exception_ptr error_;         // guarded by mutex_
};

}  // namespace spade

#endif  // SPADE_EXEC_THREAD_POOL_H_
