// SpMM-inspired postmortem PageRank kernel (paper §4.4).
//
// Computes PageRank for up to kMaxSpmmLanes (64) windows ("lanes") of the
// same multi-window graph simultaneously: each power iteration traverses
// the part's temporal CSR once and advances every live lane's vector. The
// PageRank vectors are lane-interleaved (x[v*lanes + k]), turning the
// mostly-random per-window vector accesses into mostly-regular ones — the
// SpMM memory-traffic win the paper borrows from linear algebra.
//
// Lanes are strided windows (G_j, G_{j+R}, G_{j+2R}, ...): the batch after
// this one holds each window's direct successor, so every batch but the
// first can use partial initialization (§4.4's region trick).
#pragma once

#include <span>
#include <vector>

#include "graph/multi_window.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/simd_dispatch.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr {

struct SpmmStats {
  int iterations = 0;  ///< Shared traversals executed (max over lanes).
  std::vector<PagerankStats> lane_stats;
};

/// Runs one SpMM batch over its compiled adjacency (precomputed lane
/// masks, run compression, active-row and dangling-row compaction) built
/// by compile_spmm_batch, so each sweep does no timestamp arithmetic and
/// touches only active rows. `x` and `scratch` are n*lanes,
/// lane-interleaved; lane k's slice of `x` holds its initial guess on
/// entry and its result on exit. `state` must come from the same
/// compile_spmm_batch call. Non-null `parallel` runs each shared sweep as
/// a parallel_for over rows. `simd` picks the sweep ISA (kAuto = best the
/// CPU supports; forced modes throw InvariantError when unsupported — see
/// simd_dispatch.hpp). Serial runs give results, residuals, and iteration
/// counts bit-identical to the reference kernel in tests/oracle/ on every
/// ISA.
SpmmStats pagerank_spmm(const SpmmWindowState& state,
                        const CompiledBatchCsr& compiled, std::span<double> x,
                        std::span<double> scratch,
                        const PagerankParams& params,
                        const par::ForOptions* parallel = nullptr,
                        SimdMode simd = SimdMode::kAuto);

}  // namespace pmpr
