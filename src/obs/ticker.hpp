// Runtime telemetry: the one monitor-thread loop behind obs::Sampler and
// obs::Watchdog.
//
// A Ticker owns one background thread that names itself, runs a tick
// function, then waits `interval` on an interruptible condvar, until
// stop(). The first tick runs before the first stop check, so even a stop()
// that races the spawn yields one tick. stop() swaps the thread handle out
// under the lock and joins outside it, so concurrent and repeated stops
// are safe and exactly one caller joins. Shutdown is prompt: stop()
// notifies the condvar instead of waiting out an interval.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::obs {

class Ticker {
 public:
  Ticker() = default;
  ~Ticker() { stop(); }  ///< Stops and joins if still running.

  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Spawns the thread (named `name`) running `tick` every `interval`.
  /// Returns false, and does nothing, if already running.
  bool start(std::string name, std::chrono::milliseconds interval,
             std::function<void()> tick) {
    LockGuard lock(mu_);
    if (thread_.joinable()) return false;
    stop_requested_ = false;
    thread_ = std::thread(&Ticker::run, this, std::move(name), interval,
                          std::move(tick));
    return true;
  }

  /// Signals the thread and joins it. Returns true for the one caller that
  /// joined a running thread.
  bool stop() {
    std::thread t;
    {
      LockGuard lock(mu_);
      stop_requested_ = true;
      wake_cv_.notify_all();
      t.swap(thread_);
    }
    if (!t.joinable()) return false;
    t.join();
    return true;
  }

  [[nodiscard]] bool running() const {
    LockGuard lock(mu_);
    return thread_.joinable();
  }

 private:
  void run(const std::string& name, std::chrono::milliseconds interval,
           const std::function<void()>& tick) {
    set_thread_name(name);
    for (;;) {
      tick();
      LockGuard lock(mu_);
      if (stop_requested_) return;
      wake_cv_.wait_for(lock, interval);
    }
  }

  mutable Mutex mu_;
  CondVar wake_cv_;
  bool stop_requested_ PMPR_GUARDED_BY(mu_) = false;
  std::thread thread_ PMPR_GUARDED_BY(mu_);
};

}  // namespace pmpr::obs
