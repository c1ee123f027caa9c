// Runtime telemetry: the one RAII runner-phase scope.
//
// `PMPR_PHASE("window.iterate", obs::Phase::kIterate, w)` covers the
// enclosing scope and feeds every per-phase signal from one timestamp pair:
// the trace span (pillar 2), the phase histogram (pillar 4), the flight
// recorder's kSpanBegin/kSpanEnd events with `id` as payload, and the
// calling thread's heartbeat at both edges (pillar 7). The clock is read
// once at entry and once at exit, and only if some gate was on at entry;
// with every gate off the scope costs four relaxed loads. Trace and
// histogram follow their gates at entry (a span that began records even if
// tracing stops mid-phase); once the clock was read, recorder and heartbeat
// follow theirs at each edge. `name` must be a string literal: every
// consumer stores the pointer.
#pragma once

#include <cstdint>

#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace pmpr::obs {

/// The RAII scope behind PMPR_PHASE; prefer the macro.
class PhaseScope {
 public:
  PhaseScope(const char* name, Phase phase, std::uint64_t id)
      : name_(name),
        phase_(phase),
        id_(id),
        trace_(tracing_enabled()),
        histogram_(histograms_enabled()) {
    const bool recorder = flight_recorder_enabled();
    const bool beat = heartbeats_enabled();
    if (!(trace_ || histogram_ || recorder || beat)) return;
    start_ns_ = trace_now_ns();
    if (recorder) detail::fr_add(FrEvent::kSpanBegin, name_, id_, 0, start_ns_);
    if (beat) detail::heartbeat_slow(name_, start_ns_);
  }
  ~PhaseScope() {
    if (start_ns_ < 0) return;
    const std::int64_t end_ns = trace_now_ns();
    if (trace_) detail::record_span(name_, start_ns_, end_ns);
    if (histogram_) {
      detail::histogram_record(
          phase_, static_cast<std::uint64_t>(end_ns - start_ns_));
    }
    if (flight_recorder_enabled()) {
      detail::fr_add(FrEvent::kSpanEnd, name_, id_, 0, end_ns);
    }
    if (heartbeats_enabled()) detail::heartbeat_slow(name_, end_ns);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* name_;
  Phase phase_;
  std::uint64_t id_;
  bool trace_;
  bool histogram_;
  std::int64_t start_ns_ = -1;  ///< -1 = every gate was off at entry.
};

}  // namespace pmpr::obs

/// Opens runner phase `name` (a string literal) of histogram phase `phase`
/// for window/batch/part `id`, covering the enclosing scope.
#define PMPR_PHASE(name, phase, id)                                  \
  ::pmpr::obs::PhaseScope PMPR_TRACE_CONCAT(pmpr_phase_, __LINE__)( \
      name, phase, id)
