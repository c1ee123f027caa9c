// Runtime telemetry: heartbeats + stall watchdog (observability pillar 7,
// hang half — the flight recorder covers crashes, this covers the run
// that never comes back).
//
// Two pieces:
//
//   1. Heartbeats. Every participating thread owns a cache-line-padded
//      slot in an obs::ThreadSlots registry (obs/thread_slots.hpp)
//      holding {last-beat timestamp, current phase literal, beat tally}.
//      The thread pool beats per task and retires its slot when it parks;
//      the three runners and the paged store's map path beat at every
//      phase edge (via PMPR_PHASE, obs/phase.hpp). heartbeat() is one
//      relaxed load + branch when the gate is off.
//
//   2. The Watchdog monitor, run on an obs::Ticker thread (the loop
//      obs::Sampler runs on too). Each tick it scans
//      the *active* slots (phase != idle) for the stalest beat; when that
//      age exceeds the stall threshold and no slot has beaten since the
//      last fire, it records the stall (flight recorder + global stats),
//      writes a diagnostic dump naming the stalled phase (reusing the
//      crash-report writer on the safe path — obs/crash.cpp), logs a
//      warning, and optionally aborts the process. Detection latency is
//      at most threshold + check interval (interval defaults to
//      threshold/4, so < 1.25x threshold, well under the 2x budget the
//      smoke gate asserts).
//
// False-positive tuning (see DESIGN.md §7): the threshold bounds *phase
// silence*, not phase duration — phases beat at both edges, the pool
// beats per task, and idle workers retire their slots, so a legitimate
// quiet period only arises inside one long-running kernel call. Size
// --watchdog-ms to a multiple of the slowest expected single-window
// iterate phase, not of the whole run.
//
// Phase arguments must be string literals (static storage): slots store
// the pointer, and the crash path may dereference it at any time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/ticker.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::obs {

namespace detail {
/// Inline so heartbeats_enabled() compiles to one load per call site.
inline std::atomic<bool> g_heartbeats_enabled{false};
/// Out-of-line slow paths on the calling thread's slot.
void heartbeat_slow(const char* phase, std::int64_t t_ns);
void heartbeat_idle_slow();
}  // namespace detail

/// Whether heartbeat() records anything. The single check on the disabled
/// hot path.
[[nodiscard]] inline bool heartbeats_enabled() {
  // relaxed: an advisory on/off gate — stale reads only delay when
  // monitoring starts/stops by a beat or two; no data is published
  // through this flag.
  return detail::g_heartbeats_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables heartbeat recording. Returns the previous setting.
/// Watchdog::start()/stop() toggle this automatically; tests may drive it
/// directly.
bool set_heartbeats_enabled(bool enabled);

/// Marks the calling thread alive in `phase` (a string literal). Near-zero
/// cost when disabled. Called at phase edges and per pool task — never
/// per edge/iteration.
inline void heartbeat(const char* phase) {
  if (!heartbeats_enabled()) return;
  detail::heartbeat_slow(phase, trace_now_ns());
}

/// Retires the calling thread's slot (phase = idle): an idle thread is
/// not stalled, however old its last beat. Pool workers call this before
/// parking and after draining their queues.
inline void heartbeat_idle() {
  if (!heartbeats_enabled()) return;
  detail::heartbeat_idle_slow();
}

/// One slot's state as seen by the monitor/metrics (safe path).
struct HeartbeatView {
  std::uint32_t tid = 0;      ///< Thread slot index.
  std::string label;          ///< Thread slot label ("" when never set).
  std::string phase;          ///< Current phase ("" = idle slot).
  std::int64_t age_ns = 0;    ///< now - last beat (active slots only).
  std::uint64_t beats = 0;    ///< Lifetime beat tally.
};

/// Snapshot of every claimed slot (idle ones included, with phase "").
[[nodiscard]] std::vector<HeartbeatView> heartbeat_table();

/// Process-wide watchdog totals for the metrics "diagnostics" section.
struct WatchdogStats {
  std::uint64_t arms = 0;   ///< Watchdog::start() calls.
  std::uint64_t fires = 0;  ///< Stalls declared.
  /// Stalest active-heartbeat age ever observed by a watchdog tick (a
  /// high-water mark even across runs that never fired).
  std::int64_t max_heartbeat_age_ns = 0;
  std::string last_stalled_phase;  ///< Phase named by the latest fire.
};
[[nodiscard]] WatchdogStats watchdog_stats();

/// Zeroes the process-wide totals (test isolation; racy-by-contract).
void reset_watchdog_stats();

/// Writes the JSON array of claimed heartbeat slots
/// ({"tid","label","phase","age_ns","beats"}) to `fd` using only atomic
/// loads and write(2). Async-signal-safe; the crash handler calls it.
void watchdog_emit_heartbeats_json(int fd);

/// Allocates the heartbeat slots now, so crash reports always carry the
/// heartbeat table. Called by install_crash_handler(); harmless to call
/// repeatedly.
void watchdog_prewarm();

struct WatchdogOptions {
  /// An active slot whose last beat is older than this is a stall.
  std::chrono::milliseconds stall_threshold{2000};
  /// Monitor tick period. Zero (the default) derives threshold/4,
  /// clamped to [1 ms, threshold].
  std::chrono::milliseconds check_interval{0};
  /// Where fire() writes its diagnostic dump; "" = log only.
  std::string dump_path;
  /// Directory convenience: when dump_path is empty and this is set, the
  /// dump lands at <dump_dir>/pmpr-watchdog-<pid>.json.
  std::string dump_dir;
  /// std::abort() after dumping (turns a silent hang into a crash the
  /// crash handler and CI can see).
  bool abort_on_stall = false;
};

/// The stall monitor. Construction does not arm it; start() enables
/// heartbeats and spawns the monitor thread, stop() joins it and restores
/// the previous heartbeat gate. Shutdown is the Ticker's: prompt, and
/// concurrent/repeated stop() is safe.
class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions opts = {});
  ~Watchdog();  ///< Stops and joins if still running.

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Arms the watchdog. No-op if already running.
  void start();

  /// Signals the monitor and joins it. Idempotent and safe to race from
  /// several threads (exactly one caller joins, see Ticker::stop).
  void stop();

  [[nodiscard]] bool running() const { return ticker_.running(); }

  /// Stalls this instance has declared.
  [[nodiscard]] std::uint64_t fires() const {
    // relaxed: advisory monitor gauge.
    return fires_.load(std::memory_order_relaxed);
  }

  /// One evaluation of the stall predicate (exactly what the monitor
  /// does per tick). Returns true if it fired. Usable without start()
  /// when heartbeats are enabled manually — deterministic tests hinge on
  /// this.
  bool check_once();

 private:
  void fire(const char* phase, std::uint32_t tid, std::int64_t age_ns,
            std::uint64_t total_beats);
  [[nodiscard]] std::chrono::milliseconds effective_interval() const;

  const WatchdogOptions opts_;

  Mutex mu_;  ///< Serializes start() against the gate restore in stop().
  bool prev_heartbeats_ PMPR_GUARDED_BY(mu_) = false;

  std::atomic<std::uint64_t> fires_{0};
  /// Total beat tally at the last fire: a stall episode refires only
  /// after some slot made progress. Monitor-thread state (check_once
  /// callers must not race a live loop, like Sampler::sample_once).
  std::uint64_t beats_at_last_fire_ = 0;
  bool fired_since_progress_ = false;
  /// Last member: destroyed (stopped and joined) before the state the
  /// monitor thread reads.
  Ticker ticker_;
};

}  // namespace pmpr::obs
