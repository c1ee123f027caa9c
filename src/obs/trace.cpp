#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/thread_slots.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::obs {

namespace {

/// A raw span record: the name pointer (a literal) is stored as-is.
struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-thread span buffer. The owning thread appends; collectors copy.
/// Both sides take `mu` — uncontended in steady state (collection happens
/// between runs), so the append cost is a plain lock/unlock.
struct ThreadBuf {
  explicit ThreadBuf(std::uint32_t id) : tid(id) {}
  const std::uint32_t tid;
  Mutex mu;
  std::vector<Record> records PMPR_GUARDED_BY(mu);
  /// Perfetto track label; empty = unnamed (no metadata event emitted).
  std::string name PMPR_GUARDED_BY(mu);
};

struct Registry {
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  Mutex mu;
  /// Owning list; buffers are never removed, so thread_local pointers into
  /// it stay valid for the thread's lifetime.
  std::vector<std::unique_ptr<ThreadBuf>> bufs PMPR_GUARDED_BY(mu);
  /// Counter-track samples ("ph":"C"). One flat list under the registry
  /// lock: the producer is the (single) sampler thread, so contention with
  /// span recording is limited to first-use thread registration.
  std::vector<CounterSample> counter_samples PMPR_GUARDED_BY(mu);
};

Registry& registry() {
  // Intentionally leaked singleton: pool worker threads may still close
  // spans while function-local statics are destroyed at exit, so the
  // registry (and its epoch) must outlive every thread.
  static Registry* r = new Registry;
  return *r;
}

thread_local ThreadBuf* tls_buf = nullptr;

/// Returns the calling thread's buffer, registering it on first use.
ThreadBuf& my_buf() {
  ThreadBuf* buf = tls_buf;
  if (buf == nullptr) {
    Registry& r = registry();
    LockGuard lock(r.mu);
    r.bufs.push_back(
        std::make_unique<ThreadBuf>(static_cast<std::uint32_t>(r.bufs.size())));
    buf = r.bufs.back().get();
    tls_buf = buf;
  }
  return *buf;
}

}  // namespace

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

namespace detail {

void record_span(const char* name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  ThreadBuf& buf = my_buf();
  LockGuard lock(buf.mu);
  buf.records.push_back(Record{name, start_ns, end_ns});
}

}  // namespace detail

void record_counter_sample(const char* name, std::int64_t t_ns,
                           double value) {
  if (!tracing_enabled()) return;
  Registry& r = registry();
  LockGuard lock(r.mu);
  r.counter_samples.push_back(CounterSample{name, t_ns, value});
}

std::vector<CounterSample> collect_counter_samples() {
  Registry& r = registry();
  std::vector<CounterSample> samples;
  {
    LockGuard lock(r.mu);
    samples = r.counter_samples;
  }
  std::sort(samples.begin(), samples.end(),
            [](const CounterSample& a, const CounterSample& b) {
              return a.t_ns != b.t_ns ? a.t_ns < b.t_ns : a.name < b.name;
            });
  return samples;
}

void set_thread_name(std::string_view name) {
  {
    ThreadBuf& buf = my_buf();
    LockGuard lock(buf.mu);
    buf.name.assign(name);
  }
  // One naming call labels every diagnostics surface: the Perfetto track
  // above, and the thread slot the blackbox, heartbeat table and crash
  // report all read.
  set_thread_slot_label(name);
}

bool set_tracing_enabled(bool enabled) {
  if (enabled) {
    registry();  // Pin the epoch before the first span can start.
  }
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_tracing_enabled.exchange(enabled);
}

void clear_trace() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  for (auto& buf : r.bufs) {
    LockGuard buf_lock(buf->mu);
    buf->records.clear();
  }
  r.counter_samples.clear();
}

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - registry().epoch)
      .count();
}

std::vector<TraceEvent> collect_trace() {
  std::vector<TraceEvent> events;
  Registry& r = registry();
  LockGuard lock(r.mu);
  for (auto& buf : r.bufs) {
    LockGuard buf_lock(buf->mu);
    for (const Record& rec : buf->records) {
      events.push_back(
          TraceEvent{rec.name, buf->tid, rec.start_ns, rec.end_ns});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  return events;
}

std::size_t trace_event_count() {
  std::size_t n = 0;
  Registry& r = registry();
  LockGuard lock(r.mu);
  for (auto& buf : r.bufs) {
    LockGuard buf_lock(buf->mu);
    n += buf->records.size();
  }
  return n;
}

namespace {

/// Microseconds with three decimals — nanosecond resolution in the µs
/// units Chrome trace mandates.
std::string micros(std::int64_t ns) {
  std::ostringstream num;
  num.setf(std::ios::fixed);
  num.precision(3);
  num << static_cast<double>(ns) * 1e-3;
  return num.str();
}

}  // namespace

void write_chrome_trace(std::ostream& out) {
  const std::vector<TraceEvent> events = collect_trace();
  const std::vector<CounterSample> samples = collect_counter_samples();
  std::vector<std::pair<std::uint32_t, std::string>> thread_names;
  {
    Registry& r = registry();
    LockGuard lock(r.mu);
    for (auto& buf : r.bufs) {
      LockGuard buf_lock(buf->mu);
      if (!buf->name.empty()) thread_names.emplace_back(buf->tid, buf->name);
    }
  }
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  const auto sep = [&]() -> const char* {
    const char* s = first ? "\n" : ",\n";
    first = false;
    return s;
  };
  // Perfetto track labels ("ph":"M" metadata). Only emitted alongside real
  // events — an empty trace stays a bare valid skeleton.
  if (!events.empty() || !samples.empty()) {
    out << sep()
        << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"args\": {\"name\": \"pmpr\"}}";
    for (const auto& [tid, name] : thread_names) {
      out << sep()
          << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
             "\"tid\": "
          << tid << ", \"args\": {\"name\": \"" << escape_json(name)
          << "\"}}";
    }
  }
  for (const TraceEvent& e : events) {
    // Chrome trace "complete" event: ts/dur in microseconds.
    out << sep() << "    {\"name\": \"" << escape_json(e.name)
        << "\", \"cat\": \"pmpr\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
        << e.tid << ", \"ts\": " << micros(e.start_ns)
        << ", \"dur\": " << micros(e.end_ns - e.start_ns) << "}";
  }
  for (const CounterSample& s : samples) {
    // Counter event: Perfetto draws one area-chart track per name, fed by
    // the single "value" series in args.
    std::ostringstream val;
    val.setf(std::ios::fixed);
    val.precision(3);
    val << s.value;
    out << sep() << "    {\"name\": \"" << escape_json(s.name)
        << "\", \"cat\": \"pmpr\", \"ph\": \"C\", \"pid\": 0, \"tid\": 0, "
           "\"ts\": "
        << micros(s.t_ns) << ", \"args\": {\"value\": " << val.str()
        << "}}";
  }
  out << "\n  ]\n}\n";
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

}  // namespace pmpr::obs
