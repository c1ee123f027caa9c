// Span recording and self-time accounting for the traced run.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

#include "bench.hpp"

namespace pmpr::perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int this_thread_tag() {
  return static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
}

// Open spans of this thread, innermost last. One tracer lives per process,
// so a plain thread_local stack suffices.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

Tracer::Tracer() : owner_thread_(this_thread_tag()) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name, bool adopts_workers)
    : tracer_(tracer), adopts_(adopts_workers) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, adopts_);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_, adopts_);
}

std::int64_t Tracer::open(const char* name, bool adopts_workers) {
  const int thread = this_thread_tag();
  const std::int64_t parent =
      !t_open.empty() ? t_open.back()
                      : (thread == owner_thread_ ? -1 : adopting_.load());
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, now_ns(), -1, parent, thread});
  }
  t_open.push_back(id);
  if (adopts_workers && thread == owner_thread_) adopting_.store(id);
  return id;
}

void Tracer::close(std::int64_t id, bool adopts_workers) {
  const std::int64_t end = now_ns();
  t_open.pop_back();
  if (adopts_workers && this_thread_tag() == owner_thread_) {
    adopting_.store(-1);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans()) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::int64_t Tracer::last(std::string_view name) const {
  const std::vector<Span> all = spans();
  for (std::size_t i = all.size(); i-- > 0;) {
    if (name == all[i].name) return static_cast<std::int64_t>(i);
  }
  return -1;
}

double Tracer::self_seconds_under(std::string_view name,
                                  std::int64_t parent) const {
  const std::vector<Span> all = spans();
  // Children of every span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      all.size());
  for (const Span& s : all) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0 || s.parent != parent || name != s.name) continue;
    // Union of the children's intervals, clipped to this span.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    total += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return total;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& meta) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t base = all.empty() ? 0 : all.front().start_ns;
  out << "{\"machine\": " << meta << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns - base
        << ", \"end_ns\": " << s.end_ns - base << ", \"parent\": " << s.parent
        << ", \"thread\": " << s.thread << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace pmpr::perfbench
