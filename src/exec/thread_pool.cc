#include "src/exec/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "src/util/failpoint.h"

namespace spade {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  // A worker exits only when it finds stop_ set AND the queue empty. A task
  // still running elsewhere may enqueue more, but its own worker re-checks
  // the queue before it can exit, so every spawn chain drains before the
  // joins return.
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

size_t ThreadPool::HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to drain
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // release captured state before retaking the lock
    lock.lock();
  }
}

std::unique_ptr<ThreadPool> MakeWorkerPool(size_t num_threads) {
  if (num_threads == 0) num_threads = ThreadPool::HardwareConcurrency();
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads - 1);
}

void TaskScheduler::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                                const CancelCheck* cancel) {
  if (n == 0) return;
  if (!parallel() || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->AbortNow()) return;
      SPADE_FAILPOINT("exec.parallel_for");
      fn(i);
    }
    return;
  }

  struct State {
    std::function<void(size_t)> fn;
    size_t n = 0;
    const CancelCheck* cancel = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  // guarded by mutex
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;
  state->cancel = cancel;

  // Each participant claims indexes until none remain. Late-running helpers
  // (queued behind other work) find the loop drained and return immediately;
  // the shared_ptr keeps the state alive for them past our return. A
  // cancelled loop still claims and counts every index — it just stops
  // executing bodies — so the join condition below stays a simple counter.
  auto drain = [state] {
    for (;;) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) return;
      if (state->cancel == nullptr || !state->cancel->AbortNow()) {
        try {
          SPADE_FAILPOINT("exec.parallel_for");
          state->fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == state->n) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->cv.notify_all();
      }
    }
  };

  size_t helpers = std::min(n - 1, pool_->num_threads());
  for (size_t h = 0; h < helpers; ++h) pool_->Submit(drain);
  drain();  // the caller participates: progress even when the pool is busy

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock,
                 [&] { return state->done.load(std::memory_order_acquire) >= n; });
  // Move the error out under the mutex so the exception object is released on
  // this thread, not by whichever late helper drops the last State reference.
  std::exception_ptr error = std::move(state->error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

TaskGroup::~TaskGroup() {
  // A destroyed group must not leave tasks referencing it; swallow errors —
  // callers that care about exceptions call Wait() themselves.
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return pending_ == 0; });
}

void TaskGroup::Run(std::function<void()> task) {
  if (!scheduler_->parallel()) {
    // Serial degradation: execute inline, but keep the parallel error
    // contract (captured, rethrown at Wait) so callers see one behavior.
    try {
      SPADE_FAILPOINT("exec.taskgroup.task");
      task();
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  scheduler_->pool()->Submit([this, task = std::move(task)] {
    try {
      SPADE_FAILPOINT("exec.taskgroup.task");
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --pending_;
    cv_.notify_all();  // Wait and WaitPendingBelow both watch every decrement
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return pending_ == 0; });
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void TaskGroup::WaitPendingBelow(size_t cap) {
  if (cap == 0) cap = 1;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return pending_ < cap; });
}

}  // namespace spade
