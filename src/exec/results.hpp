// Shared result plumbing for the three execution models.
//
// Runners time their phases (graph construction vs PageRank) and fill a
// RunResult with convergence, telemetry, and memory bookkeeping. The
// per-window vectors themselves go to a ResultSink
// (analysis/result_sink.hpp, re-exported here so runner callers get both
// halves from one include).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/result_sink.hpp"  // IWYU pragma: export
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/memory.hpp"

namespace pmpr {

/// Timing and convergence bookkeeping for one full analysis run.
struct RunResult {
  double build_seconds = 0.0;    ///< Graph representation construction.
  double compute_seconds = 0.0;  ///< PageRank iterations (incl. init).
  std::uint64_t total_iterations = 0;
  std::size_t num_windows = 0;
  std::vector<int> iterations_per_window;

  /// Last-iteration L1 residual per window (always filled).
  std::vector<double> final_residuals;
  /// Per-window per-iteration L1 residuals. Entries are empty unless
  /// obs::set_metrics_enabled(true) was active during the run (kernels
  /// skip the per-iteration recording otherwise).
  std::vector<std::vector<double>> residual_trajectories;
  /// Telemetry counters accrued registry-wide between run start and end
  /// (obs::counters_snapshot delta). All zero when counters are disabled;
  /// concurrent unrelated runs share the registry, so attribute with care.
  obs::CounterSnapshot counters;
  /// Per-phase (build/init/iterate/sink) per-window latency distributions,
  /// same registry-wide delta semantics as `counters`. All empty when
  /// obs::set_histograms_enabled(true) was not active during the run.
  obs::HistogramSnapshot histograms;
  /// Peak resident bytes of the run's representation + working sets. When
  /// memory accounting was enabled this is the *measured* tagged-charge
  /// watermark (memory.total_peak_bytes); otherwise it falls back to the
  /// model-specific estimate. peak_memory_estimate_bytes always keeps the
  /// estimate so drift between the two stays reportable.
  std::size_t peak_memory_bytes = 0;
  /// The model's formula-based estimate, regardless of accounting state.
  std::size_t peak_memory_estimate_bytes = 0;
  /// Tagged-accounting snapshot delta across the run (alloc/free are run
  /// deltas; live/peak are process watermarks at run end). All zero when
  /// obs::set_memory_accounting_enabled(true) was not active.
  obs::MemorySnapshot memory;
  /// Read amplification of compressed/oocore runs: encoded bytes decoded
  /// by compile passes over rank bytes delivered to sinks. 0 when the run
  /// decoded nothing (in-RAM storage) or counters were disabled.
  double read_amplification = 0.0;
  /// Resolved SIMD ISA of the run's options ("scalar" / "avx2" / "avx512").
  /// Compiled SpMM sweeps executed on this ISA; the per-ISA simd_sweep_*
  /// counters record how many. Set by all three runners (the SpMV-shaped
  /// offline/streaming kernels record what dispatch resolved even though
  /// they do not run the wide sweeps).
  std::string simd_isa;

  /// Bytes of the stored representation (raw or compressed, whichever the
  /// run used; postmortem runner only).
  std::size_t representation_bytes = 0;
  /// Out-of-core runs (StorageKind::kOutOfCore) only, zero otherwise:
  /// peak charged resident payload, on-disk store size, and the raw
  /// (uncompressed col+time) bytes the same adjacency would occupy — the
  /// working set an in-RAM run needs. store/raw is the compression ratio,
  /// peak/raw the residency reduction.
  std::size_t oocore_resident_peak_bytes = 0;
  std::size_t oocore_store_bytes = 0;
  std::size_t oocore_raw_bytes = 0;
  /// Measured (mincore) peak residency of the mapped parts' payloads in
  /// the oocore store, the ground truth for oocore_resident_peak_bytes'
  /// charge-based accounting. Zero for non-oocore runs.
  std::size_t oocore_measured_resident_peak_bytes = 0;

  [[nodiscard]] double total_seconds() const {
    return build_seconds + compute_seconds;
  }
};

}  // namespace pmpr
