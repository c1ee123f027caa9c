// Reference kernels: the slow, obviously correct postmortem traversals the
// production kernels (pagerank/batch_csr.hpp, spmv_temporal.hpp,
// spmm_temporal.hpp) are checked against.
//
// Each function re-derives everything from the raw temporal CSR on every
// call: the per-window state by one scatter pass, and the time filter and
// lane membership of every event on every power iteration. Serial only.
// The production kernels perform the same floating-point operations per
// vertex and lane in the same order, so a serial production run must match
// these bit for bit (tests/pagerank/compiled_kernels_test.cpp).
//
// The reference state builders and kernels read the raw in-CSR and reject
// compressed parts with InvariantError.
#pragma once

#include <span>

#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr::oracle {

/// Distinct out-degrees and activity of window [ts, te] of `part`.
void compute_window_state(const MultiWindowGraph& part, Timestamp ts,
                          Timestamp te, WindowState& out);

/// Degrees and activity for every lane of `batch` in one pass over the
/// part's temporal CSR. Throws InvariantError when batch.lanes is outside
/// [1, kMaxSpmmLanes].
void compute_spmm_state(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& out);

/// PageRank for window [ts, te] of `part`, pulling over the time-filtered
/// reverse temporal CSR. `x` holds the initial guess on entry and the
/// result on exit; `state` must come from compute_window_state for the
/// same window.
PagerankStats pagerank_window_spmv(const MultiWindowGraph& part, Timestamp ts,
                                   Timestamp te, const WindowState& state,
                                   std::span<double> x,
                                   std::span<double> scratch,
                                   const PagerankParams& params);

/// One SpMM batch: `x` and `scratch` are n*lanes, lane-interleaved. Every
/// power iteration re-derives each event's lane membership.
SpmmStats pagerank_spmm(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, const SpmmWindowState& state,
                        std::span<double> x, std::span<double> scratch,
                        const PagerankParams& params);

}  // namespace pmpr::oracle
