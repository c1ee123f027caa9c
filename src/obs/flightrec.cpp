#include "obs/flightrec.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <ostream>

#include "obs/sigsafe.hpp"
#include "obs/thread_slots.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::obs {

namespace {

constexpr std::array<const char*, kNumFrEvents> kFrEventNames = {
    "span_begin", "span_end",     "window_done",   "task_run",
    "park",       "unpark",       "evict",         "refault",
    "error",      "watchdog_arm", "watchdog_fire", "mark",
};

/// Per-ring capacity. 128 recent events per thread is enough to cover the
/// last few windows of work (each window records ~8 phase edges) while
/// keeping the whole leaked registry around 1.4 MB — and the registry is
/// only allocated once the recorder or crash handler is actually used.
constexpr std::size_t kRingCap = 128;
constexpr std::size_t kErrorLen = 128;
constexpr std::size_t kLastErrorLen = 160;

/// One ring record. Every field is an individually-relaxed atomic: after
/// the ring wraps a reader may combine fields from two different writes
/// (advisory-by-contract, like counters), but it can never see a torn
/// value — in particular `name` is always either nullptr or a valid
/// pointer to static-storage bytes, which is what makes the crash path's
/// pointer-chasing safe.
struct FrSlot {
  std::atomic<std::int64_t> t_ns{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint8_t> kind{0};
};

/// One padded per-thread ring in an obs::ThreadSlots registry (the
/// thread's label lives in the shared slot labels, thread_slots.hpp).
/// `error_buf` is plain chars written by the owning thread; cross-thread
/// reads (snapshot, crash handler) are racy-by-contract and see
/// possibly-stale but always NUL-terminated text.
struct alignas(64) FrBlock {
  std::array<FrSlot, kRingCap> ring{};
  std::atomic<std::uint64_t> next{0};      ///< Events ever written here.
  std::atomic<std::uint64_t> consumed{0};  ///< Drained seq (under drain mu).
  char error_buf[kErrorLen] = {};
};

ThreadSlots<FrBlock, kOwnedThreadSlots> g_rings;
std::atomic<std::uint64_t> g_drains{0};

/// Serializes drain/clear (the drain-exactly-once contract) and the
/// global last-error copy. Constant-initialized static storage, like
/// memory.cpp's probe lock.
Mutex g_drain_mu;

/// Process-wide last-error text for crash reports. Written under the
/// drain mutex on the safe path; the crash handler reads it raw (torn
/// text on a pathological race is acceptable in a best-effort dump).
char g_last_error[kLastErrorLen] = {};

std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// Copies the window [start, next) of one ring into `out`.
void copy_ring(const FrBlock& blk, std::uint32_t tid, std::uint64_t start,
               std::uint64_t next, std::vector<FlightEvent>& out) {
  for (std::uint64_t seq = start; seq < next; ++seq) {
    const FrSlot& s = blk.ring[seq % kRingCap];
    FlightEvent e;
    // relaxed loads: ring snapshots are advisory-by-contract while
    // writers are live (see flightrec.hpp); exact after quiesce.
    e.t_ns = s.t_ns.load(std::memory_order_relaxed);
    e.tid = tid;
    const std::uint8_t k = s.kind.load(std::memory_order_relaxed);
    e.kind = static_cast<FrEvent>(
        std::min<std::uint8_t>(k, kNumFrEvents - 1));
    const char* nm = s.name.load(std::memory_order_relaxed);  // relaxed: ditto
    if (nm != nullptr) e.name = nm;
    e.a = s.a.load(std::memory_order_relaxed);  // relaxed: ditto
    e.b = s.b.load(std::memory_order_relaxed);  // relaxed: ditto
    out.push_back(std::move(e));
  }
}

void sort_by_time(std::vector<FlightEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns != y.t_ns ? x.t_ns < y.t_ns
                                             : x.tid < y.tid;
                   });
}

}  // namespace

const char* to_string(FrEvent e) {
  return kFrEventNames[static_cast<std::size_t>(e)];
}

namespace detail {

void fr_add(FrEvent kind, const char* name, std::uint64_t a, std::uint64_t b,
            std::int64_t t_ns) {
  FrBlock& blk = g_rings.mine();
  // seq_cst fetch_add claims the slot; only the shared overflow block
  // ever contends on it (owned rings have a single writer), and the
  // recording rate is per-phase, not per-edge — cold enough for the
  // strongest order.
  const std::uint64_t seq = blk.next.fetch_add(1);
  FrSlot& s = blk.ring[seq % kRingCap];
  // relaxed stores: each field is individually atomic, readers tolerate
  // mixed-write records after a wrap (advisory-by-contract, see header),
  // and `name` only ever points to static storage.
  s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  s.name.store(name, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);  // relaxed: ditto
  s.t_ns.store(t_ns, std::memory_order_relaxed);  // relaxed: ditto
}

}  // namespace detail

bool set_flight_recorder_enabled(bool enabled) {
  if (enabled) {
    g_rings.ensure();  // allocate the rings before the first record
  }
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_flight_recorder_enabled.exchange(enabled);
}

void fr_record_error(const char* what) {
  if (!flight_recorder_enabled()) return;
  if (what == nullptr) what = "(unknown error)";
  FrBlock& blk = g_rings.mine();
  std::size_t n = 0;
  for (; n + 1 < kErrorLen && what[n] != '\0'; ++n) blk.error_buf[n] = what[n];
  blk.error_buf[n] = '\0';
  {
    // The global last-error copy is shared across threads; the drain
    // mutex serializes safe-path writers (the crash handler reads raw).
    LockGuard lock(g_drain_mu);
    std::size_t m = 0;
    for (; m + 1 < kLastErrorLen && what[m] != '\0'; ++m) {
      g_last_error[m] = what[m];
    }
    g_last_error[m] = '\0';
  }
  fr_record(FrEvent::kError, blk.error_buf);
}

std::vector<FlightEvent> snapshot_flight_recorder() {
  std::vector<FlightEvent> out;
  g_rings.for_each_claimed([&](std::size_t i, const FrBlock& blk) {
    // relaxed: advisory snapshot, see copy_ring.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    copy_ring(blk, static_cast<std::uint32_t>(i), sat_sub(next, kRingCap),
              next, out);
  });
  sort_by_time(out);
  return out;
}

std::vector<FlightEvent> drain_flight_recorder() {
  std::vector<FlightEvent> out;
  // The drain mutex is what makes "each event drained exactly once" hold
  // under concurrent drains: `consumed` is only advanced here.
  LockGuard lock(g_drain_mu);
  g_rings.for_each_claimed([&](std::size_t i, FrBlock& blk) {
    // relaxed: advisory while writers are live; events recorded after
    // this load land in the next drain.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    // relaxed: consumed is only mutated under g_drain_mu (held here).
    const std::uint64_t consumed =
        blk.consumed.load(std::memory_order_relaxed);
    const std::uint64_t start = std::max(consumed, sat_sub(next, kRingCap));
    copy_ring(blk, static_cast<std::uint32_t>(i), start, next, out);
    // relaxed: published to other drainers via g_drain_mu, not this store.
    blk.consumed.store(next, std::memory_order_relaxed);
  });
  // seq_cst add of a cold stat.
  g_drains.fetch_add(1);
  sort_by_time(out);
  return out;
}

void clear_flight_recorder() {
  LockGuard lock(g_drain_mu);
  g_rings.for_each_claimed([](std::size_t, FrBlock& blk) {
    for (FrSlot& s : blk.ring) {
      // relaxed: clear is racy-by-contract against live producers (like
      // reset_counters); totals stay advisory.
      s.t_ns.store(0, std::memory_order_relaxed);
      s.name.store(nullptr, std::memory_order_relaxed);
      s.a.store(0, std::memory_order_relaxed);
      s.b.store(0, std::memory_order_relaxed);     // relaxed: ditto
      s.kind.store(0, std::memory_order_relaxed);  // relaxed: ditto
    }
    // relaxed: same racy-by-contract reset.
    blk.next.store(0, std::memory_order_relaxed);
    blk.consumed.store(0, std::memory_order_relaxed);
  });
  // seq_cst store of a cold stat.
  g_drains.store(0);
  g_last_error[0] = '\0';
}

FlightRecorderStats flight_recorder_stats() {
  FlightRecorderStats stats;
  // seq_cst load of a cold stat.
  stats.drains = g_drains.load();
  g_rings.for_each_claimed([&](std::size_t, const FrBlock& blk) {
    // relaxed: advisory totals, see counters_snapshot for the argument.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    const std::uint64_t consumed =
        blk.consumed.load(std::memory_order_relaxed);
    ++stats.threads;
    stats.records += next;
    stats.dropped += sat_sub(sat_sub(next, kRingCap), consumed);
  });
  return stats;
}

std::string last_error() {
  LockGuard lock(g_drain_mu);
  return std::string(g_last_error);
}

void write_blackbox_json(std::ostream& out) {
  const FlightRecorderStats stats = flight_recorder_stats();
  const std::vector<FlightEvent> events = snapshot_flight_recorder();
  out << "{\n";
  out << "  \"schema\": \"pmpr-blackbox-v1\",\n";
  out << "  \"ring_capacity\": " << kRingCap << ",\n";
  out << "  \"stats\": {\"records\": " << stats.records
      << ", \"dropped\": " << stats.dropped
      << ", \"drains\": " << stats.drains
      << ", \"threads\": " << stats.threads << "},\n";
  out << "  \"last_error\": \"" << escape_json(last_error()) << "\",\n";
  out << "  \"threads\": [";
  g_rings.for_each_claimed([&](std::size_t i, const FrBlock& blk) {
    // relaxed: advisory gauge.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    out << (i == 0 ? "\n" : ",\n") << "    {\"tid\": " << i
        << ", \"label\": \"" << escape_json(thread_slot_label(i).text)
        << "\", \"records\": " << next << "}";
  });
  out << "\n  ],\n";
  out << "  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    out << "    {\"t_ns\": " << e.t_ns << ", \"tid\": " << e.tid
        << ", \"kind\": \"" << to_string(e.kind) << "\", \"name\": \""
        << escape_json(e.name) << "\", \"a\": " << e.a << ", \"b\": " << e.b
        << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

bool write_blackbox_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_blackbox_json(out);
  return static_cast<bool>(out);
}

// --- async-signal-safe emitters ----------------------------------------
//
// Called from obs/crash.cpp's signal handler. Only atomic loads on the
// pre-allocated registry plus the sigsafe.hpp write(2) helpers — the lint
// rule `signal-unsafe-in-handler` patrols these regions.

// PMPR_ASYNC_SIGNAL_SAFE_BEGIN

std::uint64_t fr_emit_events_json(int fd) {
  sigsafe_puts(fd, "[");
  std::uint64_t emitted = 0;
  g_rings.for_each_claimed([&](std::size_t i, const FrBlock& blk) {
    // relaxed: advisory ring window, as on the safe path.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    for (std::uint64_t seq = sat_sub(next, kRingCap); seq < next; ++seq) {
      const FrSlot& s = blk.ring[seq % kRingCap];
      // relaxed loads: advisory records, never torn per-field.
      const std::int64_t t = s.t_ns.load(std::memory_order_relaxed);
      std::uint8_t k = s.kind.load(std::memory_order_relaxed);
      if (k >= kNumFrEvents) k = kNumFrEvents - 1;
      const char* nm = s.name.load(std::memory_order_relaxed);  // ditto
      const std::uint64_t a = s.a.load(std::memory_order_relaxed);  // ditto
      const std::uint64_t b = s.b.load(std::memory_order_relaxed);  // ditto
      if (emitted != 0) sigsafe_puts(fd, ",");
      sigsafe_puts(fd, "\n    {\"t_ns\": ");
      sigsafe_put_i64(fd, t);
      sigsafe_puts(fd, ", \"tid\": ");
      sigsafe_put_u64(fd, i);
      sigsafe_puts(fd, ", \"kind\": \"");
      sigsafe_puts(fd, kFrEventNames[k]);
      sigsafe_puts(fd, "\", \"name\": \"");
      sigsafe_put_json_str(fd, nm != nullptr ? nm : "");
      sigsafe_puts(fd, "\", \"a\": ");
      sigsafe_put_u64(fd, a);
      sigsafe_puts(fd, ", \"b\": ");
      sigsafe_put_u64(fd, b);
      sigsafe_puts(fd, "}");
      ++emitted;
    }
  });
  sigsafe_puts(fd, emitted != 0 ? "\n  ]" : "]");
  return emitted;
}

void fr_emit_threads_json(int fd) {
  sigsafe_puts(fd, "[");
  bool any = false;
  g_rings.for_each_claimed([&](std::size_t i, const FrBlock& blk) {
    sigsafe_puts(fd, any ? ",\n    {\"tid\": " : "\n    {\"tid\": ");
    any = true;
    sigsafe_put_u64(fd, i);
    sigsafe_puts(fd, ", \"label\": \"");
    sigsafe_put_json_str(fd, thread_slot_label(i).text);
    sigsafe_puts(fd, "\", \"records\": ");
    // relaxed: advisory gauge.
    sigsafe_put_u64(fd, blk.next.load(std::memory_order_relaxed));
    sigsafe_puts(fd, "}");
  });
  sigsafe_puts(fd, any ? "\n  ]" : "]");
}

void fr_emit_last_error_json(int fd) { sigsafe_put_json_str(fd, g_last_error); }

// PMPR_ASYNC_SIGNAL_SAFE_END

void fr_prewarm() { g_rings.ensure(); }

}  // namespace pmpr::obs
