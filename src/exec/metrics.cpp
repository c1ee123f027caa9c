#include "exec/metrics.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/crash.hpp"
#include "obs/flightrec.hpp"
#include "obs/memory.hpp"
#include "obs/sampler.hpp"
#include "obs/watchdog.hpp"

namespace pmpr::obs {

namespace {

/// Shortest-round-trip-ish double formatting for JSON (no inf/nan inputs
/// by contract: residuals and seconds are finite).
std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

void write_phase_histogram(const PhaseHistogram& h, std::ostream& out) {
  out << "{\"count\": " << h.total_count()
      << ", \"mean_ns\": " << fmt(h.mean_ns())
      << ", \"p50_ns\": " << h.percentile_ns(0.50)
      << ", \"p90_ns\": " << h.percentile_ns(0.90)
      << ", \"p99_ns\": " << h.percentile_ns(0.99)
      << ", \"max_ns\": " << h.max_ns << ", \"sum_ns\": " << h.sum_ns
      << "}";
}

}  // namespace

void write_metrics_json(const RunResult& result, std::ostream& out,
                        const Sampler* sampler) {
  out << "{\n";
  out << "  \"schema\": \"pmpr-metrics-v4\",\n";
  out << "  \"build_seconds\": " << fmt(result.build_seconds) << ",\n";
  out << "  \"compute_seconds\": " << fmt(result.compute_seconds) << ",\n";
  out << "  \"total_seconds\": " << fmt(result.total_seconds()) << ",\n";
  out << "  \"num_windows\": " << result.num_windows << ",\n";
  out << "  \"total_iterations\": " << result.total_iterations << ",\n";
  out << "  \"peak_memory_bytes\": " << result.peak_memory_bytes << ",\n";
  // Resolved SIMD ISA of the run ("scalar"/"avx2"/"avx512"; "" for results
  // predating the field). The simd_sweep_* counters say how many compiled
  // SpMM sweeps actually ran on each ISA.
  out << "  \"simd_isa\": \"" << result.simd_isa << "\",\n";

  out << "  \"counters\": {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << to_string(static_cast<Counter>(i))
        << "\": " << result.counters.values[i];
  }
  out << "\n  },\n";

  out << "  \"histograms\": {";
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    out << (p == 0 ? "\n" : ",\n") << "    \""
        << to_string(static_cast<Phase>(p)) << "\": ";
    write_phase_histogram(result.histograms.phases[p], out);
  }
  out << "\n  },\n";

  // Memory pillar (v3). Always present, all zeros when
  // obs::set_memory_accounting_enabled(true) was not active during the
  // run. alloc/free are run deltas; live/peak are process watermarks.
  out << "  \"memory\": {\n";
  out << "    \"tags\": {";
  for (std::size_t i = 0; i < kNumMemTags; ++i) {
    const MemTagSnapshot& t = result.memory.tags[i];
    out << (i == 0 ? "\n" : ",\n") << "      \""
        << to_string(static_cast<MemTag>(i))
        << "\": {\"alloc_bytes\": " << t.alloc_bytes
        << ", \"free_bytes\": " << t.free_bytes
        << ", \"live_bytes\": " << t.live_bytes
        << ", \"peak_bytes\": " << t.peak_bytes << "}";
  }
  out << "\n    },\n";
  out << "    \"total_live_bytes\": " << result.memory.total_live_bytes
      << ",\n";
  out << "    \"peak_bytes_measured\": " << result.memory.total_peak_bytes
      << ",\n";
  out << "    \"peak_bytes_estimate\": " << result.peak_memory_estimate_bytes
      << ",\n";
  // Oocore ground truth vs charge: the mincore-scanned residency peak of
  // the mapped parts' payloads against the budget charge the LRU policy
  // maintained. The delta is never positive; a negative one means pages
  // of mapped parts had left the page cache.
  out << "    \"oocore_resident_peak_charged_bytes\": "
      << result.oocore_resident_peak_bytes << ",\n";
  out << "    \"oocore_resident_peak_measured_bytes\": "
      << result.oocore_measured_resident_peak_bytes << ",\n";
  out << "    \"oocore_residency_delta_bytes\": "
      << (static_cast<long long>(result.oocore_measured_resident_peak_bytes) -
          static_cast<long long>(result.oocore_resident_peak_bytes))
      << ",\n";
  out << "    \"read_amplification\": " << fmt(result.read_amplification)
      << "\n  },\n";

  // Always present so consumers need no existence checks; all zeros when
  // no sampler ran.
  const SamplerSummary sum =
      sampler != nullptr ? sampler->summary() : SamplerSummary{};
  out << "  \"sampler\": {\n";
  out << "    \"num_samples\": " << sum.num_samples << ",\n";
  out << "    \"interval_ms\": " << sum.interval_ms << ",\n";
  out << "    \"mean_total_queued\": " << fmt(sum.mean_total_queued)
      << ",\n";
  out << "    \"max_total_queued\": " << sum.max_total_queued << ",\n";
  out << "    \"mean_parked_workers\": " << fmt(sum.mean_parked_workers)
      << ",\n";
  out << "    \"max_parked_workers\": " << sum.max_parked_workers << ",\n";
  out << "    \"mean_steal_success_rate\": "
      << fmt(sum.mean_steal_success_rate) << "\n  },\n";

  // Diagnostics pillar (v4): flight-recorder health, watchdog totals, and
  // the live heartbeat table, read at write time (process-wide state, not
  // a RunResult delta — a metrics file is often the last artifact a sick
  // run manages to produce). All zeros/empty when the gates were off.
  const FlightRecorderStats fr = flight_recorder_stats();
  const WatchdogStats wd = watchdog_stats();
  out << "  \"diagnostics\": {\n";
  out << "    \"flight_recorder\": {\"enabled\": "
      << (flight_recorder_enabled() ? "true" : "false")
      << ", \"records\": " << fr.records << ", \"dropped\": " << fr.dropped
      << ", \"drains\": " << fr.drains << ", \"threads\": " << fr.threads
      << "},\n";
  out << "    \"watchdog\": {\"arms\": " << wd.arms
      << ", \"fires\": " << wd.fires
      << ", \"max_heartbeat_age_ns\": " << wd.max_heartbeat_age_ns
      << ", \"last_stalled_phase\": \"" << wd.last_stalled_phase << "\"},\n";
  out << "    \"crash_handler_installed\": "
      << (crash_handler_installed() ? "true" : "false") << ",\n";
  out << "    \"heartbeats\": [";
  const std::vector<HeartbeatView> beats = heartbeat_table();
  for (std::size_t i = 0; i < beats.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      {\"tid\": " << beats[i].tid
        << ", \"label\": \"" << beats[i].label << "\", \"phase\": \""
        << beats[i].phase << "\", \"age_ns\": " << beats[i].age_ns
        << ", \"beats\": " << beats[i].beats << "}";
  }
  out << (beats.empty() ? "]\n" : "\n    ]\n") << "  },\n";

  out << "  \"windows\": [";
  for (std::size_t w = 0; w < result.num_windows; ++w) {
    const int iters = w < result.iterations_per_window.size()
                          ? result.iterations_per_window[w]
                          : 0;
    const double final_residual =
        w < result.final_residuals.size() ? result.final_residuals[w] : 0.0;
    out << (w == 0 ? "\n" : ",\n");
    out << "    {\"window\": " << w << ", \"iterations\": " << iters
        << ", \"final_residual\": " << fmt(final_residual)
        << ", \"residuals\": [";
    if (w < result.residual_trajectories.size()) {
      const auto& traj = result.residual_trajectories[w];
      for (std::size_t i = 0; i < traj.size(); ++i) {
        out << (i == 0 ? "" : ", ") << fmt(traj[i]);
      }
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

bool write_metrics_json(const RunResult& result, const std::string& path,
                        const Sampler* sampler) {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_json(result, out, sampler);
  return static_cast<bool>(out);
}

}  // namespace pmpr::obs
