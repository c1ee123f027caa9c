// Batch-compiled adjacency: the per-iteration-invariant structure of an
// SpMM batch (or a single window) compiled into the representation once.
//
// A direct traversal of the temporal CSR would re-derive each event's lane
// membership (lanes_containing -> WindowSpec::windows_containing) and
// re-scan duplicate <neighbor, time> runs on every edge of every power
// iteration, and sweep all n rows even when the batch touches a fraction
// of them. All of that depends only on (part, spec, batch) — never on the
// iterate — so it is hoisted into a one-time per-batch build:
//
//   * run compression: per row, only the *distinct* in-neighbors, each
//     with a precomputed lane mask word (runs whose mask is zero are
//     dropped entirely), in a flat SoA layout (nbr[] / mask[]);
//   * active-row compaction: sweeps iterate active_rows — rows active in
//     at least one lane — instead of all n rows;
//   * dangling compaction: the per-iteration dangling-mass scan reads the
//     dangling_rows / dangling_mask lists (vertices dangling in at least
//     one lane) instead of rescanning the n-by-lanes degree matrix.
//
// The SpMM inner loop then becomes: load u, load the mask word, AND the
// live mask, fused multiply-add per set bit — no timestamp arithmetic. The
// kernels (scalar and the AVX2/AVX-512 sweeps of simd_sweep_*.cpp)
// execute the exact floating-point operations of the direct traversal
// with the same per-lane order, so results, residuals, and iteration
// counts are bit-identical, when run serially, to the reference kernels
// in tests/oracle/ (tests/pagerank/compiled_kernels_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "obs/memory.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr {

/// Compiled form of one SpMM batch over a part's local vertex space.
struct CompiledBatchCsr {
  std::size_t lanes = 0;
  /// Words per lane mask. Every mask is one word (kMaxSpmmLanes = 64).
  static constexpr std::size_t mask_words = 1;

  /// n + 1 offsets into nbr and mask. A row holds the distinct
  /// in-neighbors (ascending, inherited from the temporal CSR's row order)
  /// whose run intersects at least one lane's window.
  std::vector<std::size_t> row_ptr;
  std::vector<VertexId> nbr;
  /// Lane mask of each nbr entry; never zero.
  std::vector<std::uint64_t> mask;

  /// Rows v active in at least one lane, ascending. Sweeps visit only
  /// these.
  std::vector<VertexId> active_rows;

  /// Rows dangling (active with out-degree 0) in at least one lane,
  /// ascending, with the mask of those lanes.
  std::vector<VertexId> dangling_rows;
  std::vector<std::uint64_t> dangling_mask;

  [[nodiscard]] std::size_t num_rows() const {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  [[nodiscard]] std::span<const VertexId> row_nbr(VertexId v) const {
    return {nbr.data() + row_ptr[v], nbr.data() + row_ptr[v + 1]};
  }
  [[nodiscard]] std::span<const std::uint64_t> row_mask(VertexId v) const {
    return {mask.data() + row_ptr[v], mask.data() + row_ptr[v + 1]};
  }

  /// Bytes held by the compiled form (reported through memory_budget so
  /// the multi-window partitioner accounts for it).
  [[nodiscard]] std::size_t memory_bytes() const {
    return row_ptr.size() * sizeof(std::size_t) +
           nbr.size() * sizeof(VertexId) +
           mask.size() * sizeof(std::uint64_t) +
           active_rows.size() * sizeof(VertexId) +
           dangling_rows.size() * sizeof(VertexId) +
           dangling_mask.size() * sizeof(std::uint64_t);
  }

  /// memory_bytes() under MemTag::kCompiledKernel, refreshed by
  /// compile_spmm_batch.
  obs::MemCharge charge;
};

/// Builds `state` and `out` together: one run-compression pass scatters
/// the per-lane degrees and activity and emits the compiled adjacency.
/// `state` after the call is identical to the reference scatter's in
/// tests/oracle/. Non-null `parallel` runs the row passes as
/// parallel_fors. Throws InvariantError when batch.lanes is outside
/// [1, kMaxSpmmLanes].
///
/// Compressed parts (part.is_compressed()) stream: the passes decode one
/// chunk at a time into scratch — the raw CSR is never materialized — and
/// skip chunks whose time extent misses the batch's lane windows
/// (obs kChunksDecoded / kChunksPruned). Both storage kinds hand the same
/// rows to the same per-row passes, so the compiled form and `state` are
/// bit-identical. `scratch` (serial path only; the parallel path allocates
/// per callback) lets callers reuse decode buffers across batches; null
/// uses a local.
void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out,
                        const par::ForOptions* parallel = nullptr,
                        io::DecodeScratch* scratch = nullptr);

/// Compiled form of a single window (the SpMV path): distinct in-neighbors
/// with at least one event in the window, plus the compacted active and
/// dangling vertex lists.
struct CompiledWindowCsr {
  std::vector<std::size_t> row_ptr;  ///< n + 1 offsets into nbr.
  std::vector<VertexId> nbr;         ///< Distinct active in-neighbors.
  std::vector<VertexId> active_rows;   ///< Rows with state.active != 0.
  std::vector<VertexId> dangling_rows;  ///< Active rows with out-degree 0.

  [[nodiscard]] std::size_t num_rows() const {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  [[nodiscard]] std::span<const VertexId> row_nbr(VertexId v) const {
    return {nbr.data() + row_ptr[v], nbr.data() + row_ptr[v + 1]};
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return row_ptr.size() * sizeof(std::size_t) +
           (nbr.size() + active_rows.size() + dangling_rows.size()) *
               sizeof(VertexId);
  }

  /// memory_bytes() under MemTag::kCompiledKernel, refreshed by
  /// compile_window.
  obs::MemCharge charge;
};

/// Builds `state` and `out` for window [ts, te] together (state identical
/// to the reference scatter's in tests/oracle/). Streams compressed parts chunk by
/// chunk with [ts, te] pruning, like compile_spmm_batch.
void compile_window(const MultiWindowGraph& part, Timestamp ts, Timestamp te,
                    WindowState& state, CompiledWindowCsr& out,
                    const par::ForOptions* parallel = nullptr,
                    io::DecodeScratch* scratch = nullptr);

}  // namespace pmpr
