#include "obs/watchdog.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/crash.hpp"
#include "obs/sigsafe.hpp"
#include "obs/thread_slots.hpp"
#include "util/logging.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace pmpr::obs {

namespace {

/// One padded per-thread heartbeat slot.
struct alignas(64) BeatSlot {
  std::atomic<std::int64_t> t_ns{0};       ///< Last beat (trace_now_ns).
  std::atomic<const char*> phase{nullptr}; ///< Literal; nullptr = idle.
  std::atomic<std::uint64_t> beats{0};
};

ThreadSlots<BeatSlot, kOwnedThreadSlots> g_beats;

/// One slot's monitor-read state; age_ns is 0 for idle slots.
struct BeatRead {
  const char* phase;
  std::int64_t age_ns;
  std::uint64_t beats;
};

// PMPR_ASYNC_SIGNAL_SAFE_BEGIN

BeatRead read_slot(const BeatSlot& slot, std::int64_t now) {
  // relaxed: advisory monitor reads, see heartbeat_slow.
  const char* phase = slot.phase.load(std::memory_order_relaxed);
  const std::int64_t t = slot.t_ns.load(std::memory_order_relaxed);
  const std::uint64_t beats =
      slot.beats.load(std::memory_order_relaxed);  // relaxed: ditto
  return {phase, phase != nullptr && t > 0 && now > t ? now - t : 0, beats};
}

// PMPR_ASYNC_SIGNAL_SAFE_END

// Process-wide watchdog totals (all Watchdog instances feed them; the
// metrics writer and crash reports read them).
std::atomic<std::uint64_t> g_arms{0};
std::atomic<std::uint64_t> g_fires{0};
std::atomic<std::int64_t> g_max_age_ns{0};
/// Points at a phase literal (static storage), so crash-path reads are
/// always dereferenceable.
std::atomic<const char*> g_last_stalled_phase{nullptr};

std::int64_t to_ns(std::chrono::milliseconds ms) {
  return static_cast<std::int64_t>(ms.count()) * 1000000;
}

}  // namespace

namespace detail {

void heartbeat_slow(const char* phase, std::int64_t t_ns) {
  BeatSlot& slot = g_beats.mine();
  // relaxed: heartbeat fields are advisory monitor-read state — the
  // watchdog tolerates a stale (phase, t_ns) pairing for one tick, and
  // `phase` only ever points to static storage.
  slot.t_ns.store(t_ns, std::memory_order_relaxed);
  slot.phase.store(phase, std::memory_order_relaxed);  // relaxed: ditto
  slot.beats.fetch_add(1, std::memory_order_relaxed);  // relaxed: ditto
}

void heartbeat_idle_slow() {
  // relaxed: advisory retirement; a one-tick-stale idle flag only delays
  // the slot leaving the stall scan.
  g_beats.mine().phase.store(nullptr, std::memory_order_relaxed);
}

}  // namespace detail

bool set_heartbeats_enabled(bool enabled) {
  if (enabled) {
    g_beats.ensure();  // allocate the slots before the first beat
  }
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_heartbeats_enabled.exchange(enabled);
}

std::vector<HeartbeatView> heartbeat_table() {
  std::vector<HeartbeatView> out;
  const std::int64_t now = trace_now_ns();
  g_beats.for_each_claimed([&](std::size_t i, const BeatSlot& slot) {
    const BeatRead r = read_slot(slot, now);
    HeartbeatView v;
    v.tid = static_cast<std::uint32_t>(i);
    v.label = thread_slot_label(i).text;
    if (r.phase != nullptr) v.phase = r.phase;
    v.age_ns = r.age_ns;
    v.beats = r.beats;
    out.push_back(std::move(v));
  });
  return out;
}

WatchdogStats watchdog_stats() {
  WatchdogStats stats;
  // seq_cst loads of cold stats.
  stats.arms = g_arms.load();
  stats.fires = g_fires.load();
  stats.max_heartbeat_age_ns = g_max_age_ns.load();
  const char* phase = g_last_stalled_phase.load();
  if (phase != nullptr) stats.last_stalled_phase = phase;
  return stats;
}

void reset_watchdog_stats() {
  // seq_cst stores: test-only reset of cold stats.
  g_arms.store(0);
  g_fires.store(0);
  g_max_age_ns.store(0);
  g_last_stalled_phase.store(nullptr);
}

// PMPR_ASYNC_SIGNAL_SAFE_BEGIN

void watchdog_emit_heartbeats_json(int fd) {
  sigsafe_puts(fd, "[");
  const std::int64_t now = trace_now_ns();
  bool any = false;
  g_beats.for_each_claimed([&](std::size_t i, const BeatSlot& slot) {
    const BeatRead r = read_slot(slot, now);
    sigsafe_puts(fd, any ? ",\n    {\"tid\": " : "\n    {\"tid\": ");
    any = true;
    sigsafe_put_u64(fd, i);
    sigsafe_puts(fd, ", \"label\": \"");
    sigsafe_put_json_str(fd, thread_slot_label(i).text);
    sigsafe_puts(fd, "\", \"phase\": \"");
    sigsafe_put_json_str(fd, r.phase != nullptr ? r.phase : "");
    sigsafe_puts(fd, "\", \"age_ns\": ");
    sigsafe_put_i64(fd, r.age_ns);
    sigsafe_puts(fd, ", \"beats\": ");
    sigsafe_put_u64(fd, r.beats);
    sigsafe_puts(fd, "}");
  });
  sigsafe_puts(fd, any ? "\n  ]" : "]");
}

// PMPR_ASYNC_SIGNAL_SAFE_END

void watchdog_prewarm() { g_beats.ensure(); }

Watchdog::Watchdog(WatchdogOptions opts) : opts_(std::move(opts)) {}

Watchdog::~Watchdog() { stop(); }

std::chrono::milliseconds Watchdog::effective_interval() const {
  std::chrono::milliseconds interval = opts_.check_interval;
  if (interval.count() <= 0) interval = opts_.stall_threshold / 4;
  interval = std::min(interval, opts_.stall_threshold);
  return std::max(interval, std::chrono::milliseconds(1));
}

void Watchdog::start() {
  LockGuard lock(mu_);
  if (ticker_.running()) return;
  prev_heartbeats_ = set_heartbeats_enabled(true);
  // seq_cst add of a cold stat.
  g_arms.fetch_add(1);
  fr_record(FrEvent::kWatchdogArm, "watchdog",
            static_cast<std::uint64_t>(to_ns(opts_.stall_threshold)));
  ticker_.start("obs.watchdog", effective_interval(), [this] { check_once(); });
}

void Watchdog::stop() {
  // Only the one caller that joined the monitor restores the gate.
  if (!ticker_.stop()) return;
  LockGuard lock(mu_);
  set_heartbeats_enabled(prev_heartbeats_);
}

bool Watchdog::check_once() {
  const std::int64_t now = trace_now_ns();
  const char* worst_phase = nullptr;
  std::uint32_t worst_tid = 0;
  std::int64_t worst_age = 0;
  std::uint64_t total_beats = 0;
  g_beats.for_each_claimed([&](std::size_t i, const BeatSlot& slot) {
    const BeatRead r = read_slot(slot, now);
    total_beats += r.beats;
    if (r.age_ns > worst_age) {
      worst_age = r.age_ns;
      worst_phase = r.phase;
      worst_tid = static_cast<std::uint32_t>(i);
    }
  });
  // seq_cst CAS-max watermark on a cold stat.
  std::int64_t seen = g_max_age_ns.load();
  while (worst_age > seen &&
         !g_max_age_ns.compare_exchange_weak(seen, worst_age)) {
  }
  // Any progress since the last fire re-arms the episode: a continuing
  // stall with zero beats is the same incident and must not refire every
  // tick.
  if (total_beats != beats_at_last_fire_) fired_since_progress_ = false;
  if (worst_phase == nullptr || worst_age <= to_ns(opts_.stall_threshold)) {
    return false;
  }
  if (fired_since_progress_) return false;
  fire(worst_phase, worst_tid, worst_age, total_beats);
  return true;
}

void Watchdog::fire(const char* phase, std::uint32_t tid,
                    std::int64_t age_ns, std::uint64_t total_beats) {
  fired_since_progress_ = true;
  beats_at_last_fire_ = total_beats;
  // relaxed: advisory per-instance gauge read by fires().
  fires_.fetch_add(1, std::memory_order_relaxed);
  // seq_cst stores/adds of cold stats (phase points to a literal).
  g_fires.fetch_add(1);
  g_last_stalled_phase.store(phase);
  fr_record(FrEvent::kWatchdogFire, phase,
            static_cast<std::uint64_t>(age_ns), tid);

  std::string path = opts_.dump_path;
  if (path.empty() && !opts_.dump_dir.empty()) {
#if defined(__unix__) || defined(__APPLE__)
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    path = opts_.dump_dir + "/pmpr-watchdog-" + std::to_string(pid) +
           ".json";
  }
  bool dumped = false;
  if (!path.empty()) {
    DiagnosticContext ctx;
    ctx.kind = "watchdog_stall";
    ctx.stalled_phase = phase;
    ctx.stalled_tid = tid;
    ctx.stall_age_ns = age_ns;
    ctx.threshold_ns = to_ns(opts_.stall_threshold);
    dumped = write_diagnostic_report(path, ctx);
  }
  PMPR_LOG(kWarn) << "watchdog: no heartbeat for "
                  << age_ns / 1000000 << " ms in phase '" << phase
                  << "' (tid " << tid << ", threshold "
                  << opts_.stall_threshold.count() << " ms)"
                  << (dumped ? " — diagnostic dump: " + path : std::string());
  if (opts_.abort_on_stall) std::abort();
}

}  // namespace pmpr::obs
