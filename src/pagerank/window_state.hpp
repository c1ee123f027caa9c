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
#include "util/bits.hpp"

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

/// Widest SpMM batch the kernels support: 8 mask words of 64 lanes. The
/// sweep kernels are instantiated for {1, 2, 4, 8} words (see
/// util/bits.hpp's mask_words_for).
inline constexpr std::size_t kMaxSpmmLanes = 512;

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

/// Lane-interleaved degrees (deg[v*lanes + k]) plus per-vertex activity
/// bitmasks. Masks are multi-word: mask_words consecutive uint64_t values
/// per vertex (mask_words_for(lanes) ∈ {1, 2, 4, 8}), bit k of word w
/// naming lane w*64 + k. For lanes <= 64 this degenerates to the original
/// one-word-per-vertex layout (active_mask[v] is that word).
struct SpmmWindowState {
  std::size_t lanes = 0;
  std::size_t mask_words = 1;
  std::vector<std::uint32_t> out_degree;   ///< n * lanes, lane-interleaved.
  std::vector<std::uint64_t> active_mask;  ///< n * mask_words.
  std::vector<std::size_t> num_active;     ///< per lane.

  [[nodiscard]] const std::uint64_t* mask_of(std::size_t v) const {
    return active_mask.data() + v * mask_words;
  }

  void resize(std::size_t n, std::size_t num_lanes) {
    lanes = num_lanes;
    mask_words = mask_words_for(num_lanes);
    out_degree.assign(n * num_lanes, 0);
    active_mask.assign(n * mask_words, 0);
    num_active.assign(num_lanes, 0);
  }
};

/// Inclusive range of lanes whose window contains a timestamp. Because
/// lanes are strided windows of one spec, the lanes containing any t form
/// one contiguous run — the structural fact that keeps multi-word mask
/// construction O(words) per run instead of O(lanes).
struct LaneSpan {
  std::size_t lo = 1;
  std::size_t hi = 0;
  [[nodiscard]] bool empty() const { return lo > hi; }
};

/// Lanes of `batch` whose window contains timestamp `t`.
LaneSpan lane_span_containing(const WindowSpec& spec, const SpmmBatch& batch,
                              Timestamp t);

/// ORs the lanes containing `t` into the multi-word mask `words`
/// (mask_words_for(batch.lanes) words). Any lane count up to kMaxSpmmLanes.
void lanes_containing_into(const WindowSpec& spec, const SpmmBatch& batch,
                           Timestamp t, std::uint64_t* words);

/// Single-word variant for batches of at most 64 lanes. Exposed for tests.
std::uint64_t lanes_containing(const WindowSpec& spec, const SpmmBatch& batch,
                               Timestamp t);

}  // namespace pmpr
