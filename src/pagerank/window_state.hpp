// Per-window derived state over a multi-window graph's local vertex space:
// distinct out-degrees and the active vertex set. Built once per window
// (or once per SpMM batch for all lanes together) by the compile passes of
// pagerank/batch_csr.hpp and reused across power iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "par/parallel_for.hpp"

namespace pmpr {

/// State of one window (SpMV path).
struct WindowState {
  std::vector<std::uint32_t> out_degree;  ///< Distinct out-neighbors, local.
  std::vector<std::uint8_t> active;  ///< 1 iff vertex has an edge in window.
  std::size_t num_active = 0;

  void resize(std::size_t n) {
    out_degree.assign(n, 0);
    active.assign(n, 0);
    num_active = 0;
  }
};

/// Widest SpMM batch: one 64-lane mask word. The runner clamps
/// vector_length and max_lanes to it.
inline constexpr std::size_t kMaxSpmmLanes = 64;

/// State of an SpMM batch: `lanes` windows processed simultaneously.
/// Lane k corresponds to global window `first_window + k * window_stride`
/// (the strided pick of §4.4 that preserves partial initialization).
struct SpmmBatch {
  std::size_t lanes = 0;
  std::size_t first_window = 0;
  std::size_t window_stride = 1;

  [[nodiscard]] std::size_t window_of_lane(std::size_t k) const {
    return first_window + k * window_stride;
  }
};

/// Lane-interleaved degrees (deg[v*lanes + k]) plus one activity mask word
/// per vertex, bit k naming lane k.
struct SpmmWindowState {
  std::size_t lanes = 0;
  std::vector<std::uint32_t> out_degree;   ///< n * lanes, lane-interleaved.
  std::vector<std::uint64_t> active_mask;  ///< n words.
  std::vector<std::size_t> num_active;     ///< per lane.

  /// Vertex v's mask word.
  [[nodiscard]] const std::uint64_t* mask_of(std::size_t v) const {
    return &active_mask[v];
  }

  void resize(std::size_t n, std::size_t num_lanes) {
    lanes = num_lanes;
    out_degree.assign(n * num_lanes, 0);
    active_mask.assign(n, 0);
    num_active.assign(num_lanes, 0);
  }
};

/// Mask of the lanes of `batch` (at most kMaxSpmmLanes) whose window
/// contains timestamp `t`. Lanes are strided windows of one spec, so the
/// set bits form one contiguous run.
std::uint64_t lanes_containing(const WindowSpec& spec, const SpmmBatch& batch,
                               Timestamp t);

}  // namespace pmpr
