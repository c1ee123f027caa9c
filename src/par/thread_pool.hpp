// Work-stealing thread pool — the pmpr scheduler.
//
// Replaces Intel TBB in this reproduction (see DESIGN.md §2). Provides:
//   * per-worker Chase–Lev deques with random-victim stealing,
//   * an injection queue for tasks submitted from non-pool threads,
//   * blocking waits that *help* (execute queued tasks) instead of idling,
//     which makes nested parallelism (the paper's "nested parallelization")
//     deadlock-free even on a single thread.
//
// Locking protocol (machine-checked via util/thread_annotations.hpp under
// Clang -Wthread-safety):
//   * inject_mutex_ guards injected_ (the external submission queue).
//   * sleep_mutex_ pairs with sleep_cv_ for the park/wake protocol; the
//     epoch/sleeper-count atomics let notify() skip it when nobody sleeps.
//
// Thread count: `ThreadPool::global()` reads the PMPR_THREADS environment
// variable, falling back to std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "obs/scheduler_probe.hpp"
#include "par/ws_deque.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::par {

/// Completion counter shared by a batch of tasks. `wait()` on the pool
/// blocks (helping) until the count returns to zero.
///
/// If a task throws, the first exception is captured here and rethrown
/// from the `ThreadPool::wait()` call (after all tasks of the group have
/// completed), so parallel loops have the same exception semantics as
/// their sequential counterparts.
class WaitGroup {
 public:
  void add(std::size_t n = 1) {
    // relaxed: add() runs strictly before the submit() that makes the task
    // visible; the deque/injection-queue handoff provides the ordering.
    pending_.fetch_add(n, std::memory_order_relaxed);
  }
  void done() {
    // acq_rel: release publishes the task's side effects (including a
    // captured exception_) to the waiter whose finished() observes 0;
    // acquire orders against other tasks' done() in the same group.
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] bool finished() const {
    // acquire: pairs with the release half of done() so the waiter sees
    // every completed task's writes once the count reaches zero.
    return pending_.load(std::memory_order_acquire) == 0;
  }

  /// Records the first exception thrown by a task of this group. Returns
  /// true if this call captured it, false if another task got there first
  /// (the caller should log the dropped exception rather than lose it
  /// silently).
  bool capture_exception(std::exception_ptr ep) {
    bool expected = false;
    // acq_rel: only the CAS winner stores exception_; the store is made
    // visible to the waiter by done()'s release, not by this flag (the
    // flag only elects the winner).
    if (has_exception_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      exception_ = std::move(ep);
      return true;
    }
    return false;
  }

  /// Rethrows the captured exception, if any. Called by wait() once the
  /// group has drained; safe to call repeatedly (rethrows each time).
  void rethrow_if_failed() {
    // acquire: pairs with the CAS release in capture_exception(); by this
    // point the group has drained, so exception_ is stable.
    if (has_exception_.load(std::memory_order_acquire) && exception_) {
      std::rethrow_exception(exception_);
    }
  }

 private:
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> has_exception_{false};
  std::exception_ptr exception_;
};

/// Implements obs::SchedulerProbe so the sampling profiler can snapshot the
/// pool without obs/ depending back on par/ (the pool depends on obs for
/// counters and trace spans).
class ThreadPool : public obs::SchedulerProbe {
 public:
  /// Creates a pool with `num_threads` workers (>=1). The calling thread is
  /// not a worker but helps while waiting.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, sized from PMPR_THREADS or hardware concurrency.
  static ThreadPool& global();

  /// Total worker threads (parallelism available to parallel_for).
  [[nodiscard]] std::size_t num_threads() const { return workers_.size(); }

  /// Submits `fn` for asynchronous execution. `wg.add(1)` must have been
  /// called by the submitter beforehand; the pool calls `wg.done()` after
  /// `fn` returns. If called from a worker thread the task goes to that
  /// worker's own deque (LIFO, preserving locality); otherwise it goes to
  /// the injection queue.
  void submit(std::function<void()> fn, WaitGroup& wg);

  /// Blocks until `wg.finished()`, executing queued tasks while waiting.
  /// Rethrows the first exception any task of the group raised.
  void wait(WaitGroup& wg);

  /// Index of the current thread within this pool: [0, num_threads) for
  /// workers, num_threads for the (helping) external thread slot, or -1 if
  /// the thread has never interacted with this pool.
  [[nodiscard]] static int current_worker_index();

  // Monitoring introspection (the obs::SchedulerProbe contract, consumed
  // by obs::Sampler). All are safe to call from any thread while the pool
  // runs; values are advisory gauges — in-flight pushes/pops/steals and
  // parks make them racy by contract.

  /// Probe alias for num_threads().
  [[nodiscard]] std::size_t num_workers() const override {
    return num_threads();
  }

  /// Approximate depth of worker `index`'s deque (0 if out of range).
  [[nodiscard]] std::size_t approx_queued(std::size_t index) const override;

  /// Approximate total queued tasks: every worker deque plus the
  /// injection queue.
  [[nodiscard]] std::size_t approx_total_queued() const override
      PMPR_EXCLUDES(inject_mutex_);

  /// Workers currently parked (or committing to park) on the sleep
  /// condvar.
  [[nodiscard]] std::size_t parked_workers() const override {
    // relaxed: an advisory gauge for the sampler; the park protocol itself
    // uses seq_cst on this counter (see notify()), a monitor read needs no
    // ordering with it.
    return num_sleepers_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> fn;
    WaitGroup* wg;
  };

  void worker_loop(std::size_t index);
  /// Attempts to find and run one task. Returns true if a task was run.
  bool try_run_one(std::size_t self_index);
  Task* try_pop_or_steal(std::size_t self_index) PMPR_EXCLUDES(inject_mutex_);
  Task* try_pop_injected() PMPR_EXCLUDES(inject_mutex_);
  void notify() PMPR_EXCLUDES(sleep_mutex_);

  std::vector<std::unique_ptr<WsDeque<Task>>> deques_;
  std::vector<std::thread> workers_;

  /// mutable: const monitoring reads (approx_total_queued) must be able to
  /// take the lock.
  mutable Mutex inject_mutex_;
  std::deque<Task*> injected_ PMPR_GUARDED_BY(inject_mutex_);

  Mutex sleep_mutex_;
  CondVar sleep_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  /// Workers currently parked (or committing to park) on sleep_cv_.
  /// notify() skips the mutex + notify entirely while this is zero — the
  /// common case when the pool is saturated — making submit() lock-free on
  /// the signalling side. See notify() for the ordering argument.
  std::atomic<std::uint32_t> num_sleepers_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace pmpr::par
