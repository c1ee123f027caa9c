#include "pagerank/batch_csr.hpp"

#include <array>
#include <atomic>
#include <cassert>

#include "obs/counters.hpp"
#include "util/check.hpp"

namespace pmpr {

namespace {

using RunMask = std::array<std::uint64_t, mask_words_for(kMaxSpmmLanes)>;

/// Conservative chunk prune: the chunk's entry time extent misses
/// [prune_lo, prune_hi] entirely, so every lanes_containing_into /
/// window-membership test on its events would come back empty. Empty
/// chunks (extent fields zeroed) prune trivially.
bool chunk_pruned(const io::ChunkMeta& m, Timestamp prune_lo,
                  Timestamp prune_hi) {
  return m.num_entries == 0 || m.time_max < prune_lo || m.time_min > prune_hi;
}

/// Per-pass decode/prune tallies, accumulated locally and flushed to the
/// obs counters once per compile (hot-loop discipline: never count() per
/// chunk).
struct ChunkTally {
  std::size_t decoded = 0;
  std::size_t pruned = 0;
  std::size_t bytes = 0;  ///< Encoded bytes of the decoded chunks.
};

/// Pass A of the SpMM compile for ONE row given as col/time spans: run
/// compression that counts the surviving (mask != 0) runs and scatters
/// degrees and activity exactly like the reference scatter in
/// tests/oracle/. Shared by the
/// raw-CSR sweep and the compressed-chunk streaming sweep, which is what
/// makes the two paths bit-identical by construction.
///
/// Atomicity ownership (audited for the serial/parallel split; the
/// TSan-gated stress in tests/pagerank/batch_csr_parallel_test.cpp guards
/// it):
///   * the returned entry count — consumed only by the thread sweeping
///     row v, in both paths. Never atomic.
///   * state.out_degree[u * lanes + k] and state.active_mask[u ...] —
///     cross-row scatter targets: row v bumps arbitrary u's slots. The
///     parallel path (Atomic = true) must use std::atomic_ref for *every*
///     one of these; the serial path (Atomic = false) owns the whole array
///     on one thread and uses plain increments — the two `if constexpr`
///     arms below are the same write routed per path, not a mixed mode.
///   * state.active_mask[v ...] (the row's own activity) is also a shared
///     slot: other rows scatter into v as a neighbor, so the parallel path
///     ORs it atomically too.
template <bool Atomic>
std::size_t scatter_row(const WindowSpec& spec, const SpmmBatch& batch,
                        SpmmWindowState& state, std::size_t v,
                        std::span<const VertexId> cols,
                        std::span<const Timestamp> times) {
  const std::size_t lanes = batch.lanes;
  const std::size_t words = state.mask_words;
  RunMask v_mask{};
  std::size_t entries = 0;
  std::size_t i = 0;
  while (i < cols.size()) {
    const VertexId u = cols[i];
    RunMask run_mask{};
    while (i < cols.size() && cols[i] == u) {
      lanes_containing_into(spec, batch, times[i], run_mask.data());
      ++i;
    }
    if (!mask_any(run_mask.data(), words)) continue;
    ++entries;
    for_each_set_lane(run_mask.data(), words, [&](std::size_t k) {
      if constexpr (Atomic) {
        std::atomic_ref<std::uint32_t> deg(state.out_degree[u * lanes + k]);
        // relaxed: pure commutative count; published by the join.
        deg.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++state.out_degree[u * lanes + k];
      }
    });
    for (std::size_t w = 0; w < words; ++w) {
      v_mask[w] |= run_mask[w];
      if (run_mask[w] == 0) continue;
      if constexpr (Atomic) {
        std::atomic_ref<std::uint64_t> am(state.active_mask[u * words + w]);
        // relaxed: commutative bit-set; published by the join.
        am.fetch_or(run_mask[w], std::memory_order_relaxed);
      } else {
        state.active_mask[u * words + w] |= run_mask[w];
      }
    }
  }
  for (std::size_t w = 0; w < words; ++w) {
    if (v_mask[w] == 0) continue;
    if constexpr (Atomic) {
      std::atomic_ref<std::uint64_t> am(state.active_mask[v * words + w]);
      // relaxed: commutative bit-set; published by the join.
      am.fetch_or(v_mask[w], std::memory_order_relaxed);
    } else {
      state.active_mask[v * words + w] |= v_mask[w];
    }
  }
  return entries;
}

/// Pass A over a raw part: sweep rows [lo, hi) of the in-CSR.
template <bool Atomic>
void count_and_scatter_rows(const MultiWindowGraph& part,
                            const WindowSpec& spec, const SpmmBatch& batch,
                            SpmmWindowState& state, CompiledBatchCsr& out,
                            std::size_t lo, std::size_t hi) {
  for (std::size_t v = lo; v < hi; ++v) {
    out.row_ptr[v + 1] = scatter_row<Atomic>(
        spec, batch, state, v, part.in.row_cols(static_cast<VertexId>(v)),
        part.in.row_times(static_cast<VertexId>(v)));
  }
}

/// One row of `scratch` (chunk-local index r) as col/time spans.
std::span<const VertexId> scratch_cols(const io::DecodeScratch& scratch,
                                       std::size_t r) {
  return {scratch.cols.data() + scratch.row_ptr[r],
          scratch.cols.data() + scratch.row_ptr[r + 1]};
}
std::span<const Timestamp> scratch_times(const io::DecodeScratch& scratch,
                                         std::size_t r) {
  return {scratch.times.data() + scratch.row_ptr[r],
          scratch.times.data() + scratch.row_ptr[r + 1]};
}

/// Pass A over a compressed part: sweep chunks [chunk_lo, chunk_hi),
/// decoding each non-pruned chunk into `scratch` and scattering its rows.
/// Pruned chunks keep their rows' zero counts (row_ptr was zero-assigned),
/// which matches the raw path exactly — an out-of-extent event joins no
/// lane. Rows never split across chunks, so chunk-parallel is row-parallel.
template <bool Atomic>
void count_and_scatter_chunks(const io::CompressedTemporalCsr& packed,
                              const WindowSpec& spec, const SpmmBatch& batch,
                              Timestamp prune_lo, Timestamp prune_hi,
                              SpmmWindowState& state, CompiledBatchCsr& out,
                              std::size_t chunk_lo, std::size_t chunk_hi,
                              io::DecodeScratch& scratch, ChunkTally& tally) {
  for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
    const io::ChunkMeta& m = packed.chunk(c);
    if (chunk_pruned(m, prune_lo, prune_hi)) {
      ++tally.pruned;
      continue;
    }
    ++tally.decoded;
    tally.bytes += m.byte_size;
    packed.decode_chunk(c, scratch);
    for (std::size_t r = 0; r < m.num_rows; ++r) {
      const std::size_t v = m.first_row + r;
      out.row_ptr[v + 1] = scatter_row<Atomic>(spec, batch, state, v,
                                               scratch_cols(scratch, r),
                                               scratch_times(scratch, r));
    }
  }
}

/// Pass B for one row: re-runs the (row-local) run scan and fills nbr/mask
/// at the prefix-summed offsets. No cross-row writes, so no atomics in
/// either path.
void fill_row(const WindowSpec& spec, const SpmmBatch& batch,
              CompiledBatchCsr& out, std::size_t v,
              std::span<const VertexId> cols,
              std::span<const Timestamp> times) {
  const std::size_t words = out.mask_words;
  std::size_t at = out.row_ptr[v];
  std::size_t i = 0;
  while (i < cols.size()) {
    const VertexId u = cols[i];
    RunMask run_mask{};
    while (i < cols.size() && cols[i] == u) {
      lanes_containing_into(spec, batch, times[i], run_mask.data());
      ++i;
    }
    if (!mask_any(run_mask.data(), words)) continue;
    out.nbr[at] = u;
    for (std::size_t w = 0; w < words; ++w) {
      out.mask[at * words + w] = run_mask[w];
    }
    ++at;
  }
  assert(at == out.row_ptr[v + 1]);
}

void fill_rows(const MultiWindowGraph& part, const WindowSpec& spec,
               const SpmmBatch& batch, CompiledBatchCsr& out, std::size_t lo,
               std::size_t hi) {
  for (std::size_t v = lo; v < hi; ++v) {
    fill_row(spec, batch, out, v, part.in.row_cols(static_cast<VertexId>(v)),
             part.in.row_times(static_cast<VertexId>(v)));
  }
}

/// Pass B over chunks. Must apply the same prune predicate as pass A: a
/// pruned chunk's rows counted zero entries, so row_ptr[v] == row_ptr[v+1]
/// and there is nothing to fill.
void fill_chunks(const io::CompressedTemporalCsr& packed,
                 const WindowSpec& spec, const SpmmBatch& batch,
                 Timestamp prune_lo, Timestamp prune_hi, CompiledBatchCsr& out,
                 std::size_t chunk_lo, std::size_t chunk_hi,
                 io::DecodeScratch& scratch, ChunkTally& tally) {
  for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
    const io::ChunkMeta& m = packed.chunk(c);
    if (chunk_pruned(m, prune_lo, prune_hi)) {
      ++tally.pruned;
      continue;
    }
    ++tally.decoded;
    tally.bytes += m.byte_size;
    packed.decode_chunk(c, scratch);
    for (std::size_t r = 0; r < m.num_rows; ++r) {
      fill_row(spec, batch, out, m.first_row + r, scratch_cols(scratch, r),
               scratch_times(scratch, r));
    }
  }
}

/// Shared chunk-pass driver: parallel over chunks (per-callback scratch)
/// or serial reusing the caller's scratch. `body(lo, hi, scratch, tally)`
/// runs one chunk range.
template <typename Body>
void run_chunk_pass(std::size_t num_chunks, const par::ForOptions* parallel,
                    io::DecodeScratch* scratch,
                    std::atomic<std::uint64_t>& decoded,
                    std::atomic<std::uint64_t>& pruned,
                    std::atomic<std::uint64_t>& bytes, Body&& body) {
  if (parallel != nullptr) {
    par::parallel_for_range(
        0, num_chunks, *parallel, [&](std::size_t lo, std::size_t hi) {
          io::DecodeScratch local;
          ChunkTally tally;
          body(lo, hi, local, tally);
          // relaxed: commutative tallies; published by the join.
          decoded.fetch_add(tally.decoded, std::memory_order_relaxed);
          pruned.fetch_add(tally.pruned, std::memory_order_relaxed);
          bytes.fetch_add(tally.bytes, std::memory_order_relaxed);
        });
  } else {
    io::DecodeScratch local;
    io::DecodeScratch& sc = scratch != nullptr ? *scratch : local;
    ChunkTally tally;
    body(0, num_chunks, sc, tally);
    // relaxed: single-threaded branch, nothing to order against.
    decoded.fetch_add(tally.decoded, std::memory_order_relaxed);
    pruned.fetch_add(tally.pruned, std::memory_order_relaxed);
    bytes.fetch_add(tally.bytes, std::memory_order_relaxed);
  }
}

void flush_chunk_counters(const std::atomic<std::uint64_t>& decoded,
                          const std::atomic<std::uint64_t>& pruned,
                          const std::atomic<std::uint64_t>& bytes) {
  // relaxed: callers flush after the compile's parallel-for join, which
  // already publishes every worker's tallies.
  const std::uint64_t d = decoded.load(std::memory_order_relaxed);
  const std::uint64_t p = pruned.load(std::memory_order_relaxed);
  const std::uint64_t b = bytes.load(std::memory_order_relaxed);
  if (d != 0) obs::count(obs::Counter::kChunksDecoded, d);
  if (p != 0) obs::count(obs::Counter::kChunksPruned, p);
  if (b != 0) obs::count(obs::Counter::kBytesDecoded, b);
}

}  // namespace

void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out, const par::ForOptions* parallel,
                        io::DecodeScratch* scratch) {
  // Release-mode check (was a debug assert): with -DNDEBUG an oversized
  // batch would silently shift lane bits out of the mask words — UB plus a
  // corrupt compiled form.
  PMPR_CHECK_MSG(batch.lanes >= 1 && batch.lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << batch.lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
  const std::size_t n = part.num_local();
  state.resize(n, batch.lanes);
  out.lanes = batch.lanes;
  out.mask_words = state.mask_words;
  out.row_ptr.assign(n + 1, 0);
  out.active_rows.clear();
  out.dangling_rows.clear();
  out.dangling_mask.clear();

  const bool streamed = part.is_compressed();
  std::atomic<std::uint64_t> decoded{0};
  std::atomic<std::uint64_t> pruned{0};
  std::atomic<std::uint64_t> decoded_bytes{0};
  // Union of the batch's lane windows: lanes are strided windows of one
  // spec, so coverage is [start(first lane), end(last lane)].
  const Timestamp prune_lo = spec.start(batch.first_window);
  const Timestamp prune_hi = spec.end(batch.window_of_lane(batch.lanes - 1));
  if (streamed) {
    const io::CompressedTemporalCsr& packed = *part.in_compressed;
    PMPR_CHECK_MSG(packed.num_rows() == n,
                   "compressed part covers " << packed.num_rows()
                                             << " rows, local space has "
                                             << n);
    run_chunk_pass(packed.num_chunks(), parallel, scratch, decoded, pruned,
                   decoded_bytes,
                   [&](std::size_t lo, std::size_t hi,
                       io::DecodeScratch& sc, ChunkTally& tally) {
                     if (parallel != nullptr) {
                       count_and_scatter_chunks<true>(packed, spec, batch,
                                                      prune_lo, prune_hi,
                                                      state, out, lo, hi, sc,
                                                      tally);
                     } else {
                       count_and_scatter_chunks<false>(packed, spec, batch,
                                                       prune_lo, prune_hi,
                                                       state, out, lo, hi, sc,
                                                       tally);
                     }
                   });
  } else if (parallel != nullptr) {
    par::parallel_for_range(
        0, n, *parallel, [&](std::size_t lo, std::size_t hi) {
          count_and_scatter_rows<true>(part, spec, batch, state, out, lo, hi);
        });
  } else {
    count_and_scatter_rows<false>(part, spec, batch, state, out, 0, n);
  }

  // Exclusive prefix sum turns per-row counts into offsets.
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t cnt = out.row_ptr[v + 1];
    out.row_ptr[v + 1] = total += cnt;
  }
  out.nbr.resize(total);
  out.mask.resize(total * out.mask_words);

  if (streamed) {
    const io::CompressedTemporalCsr& packed = *part.in_compressed;
    run_chunk_pass(packed.num_chunks(), parallel, scratch, decoded, pruned,
                   decoded_bytes,
                   [&](std::size_t lo, std::size_t hi,
                       io::DecodeScratch& sc, ChunkTally& tally) {
                     fill_chunks(packed, spec, batch, prune_lo, prune_hi, out,
                                 lo, hi, sc, tally);
                   });
  } else if (parallel != nullptr) {
    par::parallel_for_range(0, n, *parallel,
                            [&](std::size_t lo, std::size_t hi) {
                              fill_rows(part, spec, batch, out, lo, hi);
                            });
  } else {
    fill_rows(part, spec, batch, out, 0, n);
  }
  flush_chunk_counters(decoded, pruned, decoded_bytes);

  // Compaction lists + per-lane population (needs the complete degrees).
  const std::size_t lanes = batch.lanes;
  const std::size_t words = out.mask_words;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t* m = state.mask_of(v);
    if (!mask_any(m, words)) continue;
    out.active_rows.push_back(static_cast<VertexId>(v));
    RunMask dangling{};
    bool any_dangling = false;
    for_each_set_lane(m, words, [&](std::size_t k) {
      ++state.num_active[k];
      if (state.out_degree[v * lanes + k] == 0) {
        mask_set(dangling.data(), k);
        any_dangling = true;
      }
    });
    if (any_dangling) {
      out.dangling_rows.push_back(static_cast<VertexId>(v));
      for (std::size_t w = 0; w < words; ++w) {
        out.dangling_mask.push_back(dangling[w]);
      }
    }
  }
  out.charge.reset(obs::MemTag::kCompiledKernel, out.memory_bytes());
}

namespace {

/// SpMV pass A for one row given as spans (raw and streamed paths share
/// it, same reasoning as scatter_row).
template <bool Atomic>
std::size_t scatter_window_row(Timestamp ts, Timestamp te, WindowState& state,
                               std::size_t v, std::span<const VertexId> cols,
                               std::span<const Timestamp> times) {
  std::size_t entries = 0;
  for_each_active_neighbor_in_row(cols, times, ts, te, [&](VertexId u) {
    ++entries;
    if constexpr (Atomic) {
      std::atomic_ref<std::uint32_t> deg(state.out_degree[u]);
      // relaxed: pure commutative count; published by the join.
      deg.fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<std::uint8_t> act(state.active[u]);
      // relaxed: idempotent flag; published by the join.
      act.store(1, std::memory_order_relaxed);
    } else {
      ++state.out_degree[u];
      state.active[u] = 1;
    }
  });
  if (entries > 0) {
    if constexpr (Atomic) {
      std::atomic_ref<std::uint8_t> act(state.active[v]);
      // relaxed: idempotent flag; published by the join.
      act.store(1, std::memory_order_relaxed);
    } else {
      state.active[v] = 1;
    }
  }
  return entries;
}

template <bool Atomic>
void count_and_scatter_window_rows(const MultiWindowGraph& part, Timestamp ts,
                                   Timestamp te, WindowState& state,
                                   CompiledWindowCsr& out, std::size_t lo,
                                   std::size_t hi) {
  for (std::size_t v = lo; v < hi; ++v) {
    out.row_ptr[v + 1] = scatter_window_row<Atomic>(
        ts, te, state, v, part.in.row_cols(static_cast<VertexId>(v)),
        part.in.row_times(static_cast<VertexId>(v)));
  }
}

template <bool Atomic>
void count_and_scatter_window_chunks(const io::CompressedTemporalCsr& packed,
                                     Timestamp ts, Timestamp te,
                                     WindowState& state,
                                     CompiledWindowCsr& out,
                                     std::size_t chunk_lo,
                                     std::size_t chunk_hi,
                                     io::DecodeScratch& scratch,
                                     ChunkTally& tally) {
  for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
    const io::ChunkMeta& m = packed.chunk(c);
    if (chunk_pruned(m, ts, te)) {
      ++tally.pruned;
      continue;
    }
    ++tally.decoded;
    tally.bytes += m.byte_size;
    packed.decode_chunk(c, scratch);
    for (std::size_t r = 0; r < m.num_rows; ++r) {
      const std::size_t v = m.first_row + r;
      out.row_ptr[v + 1] = scatter_window_row<Atomic>(
          ts, te, state, v, scratch_cols(scratch, r),
          scratch_times(scratch, r));
    }
  }
}

void fill_window_row(Timestamp ts, Timestamp te, CompiledWindowCsr& out,
                     std::size_t v, std::span<const VertexId> cols,
                     std::span<const Timestamp> times) {
  std::size_t at = out.row_ptr[v];
  for_each_active_neighbor_in_row(cols, times, ts, te,
                                  [&](VertexId u) { out.nbr[at++] = u; });
  assert(at == out.row_ptr[v + 1]);
  (void)at;
}

void fill_window_rows(const MultiWindowGraph& part, Timestamp ts, Timestamp te,
                      CompiledWindowCsr& out, std::size_t lo, std::size_t hi) {
  for (std::size_t v = lo; v < hi; ++v) {
    fill_window_row(ts, te, out, v, part.in.row_cols(static_cast<VertexId>(v)),
                    part.in.row_times(static_cast<VertexId>(v)));
  }
}

void fill_window_chunks(const io::CompressedTemporalCsr& packed, Timestamp ts,
                        Timestamp te, CompiledWindowCsr& out,
                        std::size_t chunk_lo, std::size_t chunk_hi,
                        io::DecodeScratch& scratch, ChunkTally& tally) {
  for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
    const io::ChunkMeta& m = packed.chunk(c);
    if (chunk_pruned(m, ts, te)) {
      ++tally.pruned;
      continue;
    }
    ++tally.decoded;
    tally.bytes += m.byte_size;
    packed.decode_chunk(c, scratch);
    for (std::size_t r = 0; r < m.num_rows; ++r) {
      fill_window_row(ts, te, out, m.first_row + r, scratch_cols(scratch, r),
                      scratch_times(scratch, r));
    }
  }
}

}  // namespace

void compile_window(const MultiWindowGraph& part, Timestamp ts, Timestamp te,
                    WindowState& state, CompiledWindowCsr& out,
                    const par::ForOptions* parallel,
                    io::DecodeScratch* scratch) {
  const std::size_t n = part.num_local();
  state.resize(n);
  out.row_ptr.assign(n + 1, 0);
  out.active_rows.clear();
  out.dangling_rows.clear();

  const bool streamed = part.is_compressed();
  std::atomic<std::uint64_t> decoded{0};
  std::atomic<std::uint64_t> pruned{0};
  std::atomic<std::uint64_t> decoded_bytes{0};
  if (streamed) {
    const io::CompressedTemporalCsr& packed = *part.in_compressed;
    PMPR_CHECK_MSG(packed.num_rows() == n,
                   "compressed part covers " << packed.num_rows()
                                             << " rows, local space has "
                                             << n);
    run_chunk_pass(packed.num_chunks(), parallel, scratch, decoded, pruned,
                   decoded_bytes,
                   [&](std::size_t lo, std::size_t hi,
                       io::DecodeScratch& sc, ChunkTally& tally) {
                     if (parallel != nullptr) {
                       count_and_scatter_window_chunks<true>(
                           packed, ts, te, state, out, lo, hi, sc, tally);
                     } else {
                       count_and_scatter_window_chunks<false>(
                           packed, ts, te, state, out, lo, hi, sc, tally);
                     }
                   });
  } else if (parallel != nullptr) {
    par::parallel_for_range(
        0, n, *parallel, [&](std::size_t lo, std::size_t hi) {
          count_and_scatter_window_rows<true>(part, ts, te, state, out, lo,
                                              hi);
        });
  } else {
    count_and_scatter_window_rows<false>(part, ts, te, state, out, 0, n);
  }

  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t cnt = out.row_ptr[v + 1];
    out.row_ptr[v + 1] = total += cnt;
  }
  out.nbr.resize(total);

  if (streamed) {
    const io::CompressedTemporalCsr& packed = *part.in_compressed;
    run_chunk_pass(packed.num_chunks(), parallel, scratch, decoded, pruned,
                   decoded_bytes,
                   [&](std::size_t lo, std::size_t hi,
                       io::DecodeScratch& sc, ChunkTally& tally) {
                     fill_window_chunks(packed, ts, te, out, lo, hi, sc,
                                        tally);
                   });
  } else if (parallel != nullptr) {
    par::parallel_for_range(0, n, *parallel,
                            [&](std::size_t lo, std::size_t hi) {
                              fill_window_rows(part, ts, te, out, lo, hi);
                            });
  } else {
    fill_window_rows(part, ts, te, out, 0, n);
  }
  flush_chunk_counters(decoded, pruned, decoded_bytes);

  for (std::size_t v = 0; v < n; ++v) {
    if (state.active[v] == 0) continue;
    ++state.num_active;
    out.active_rows.push_back(static_cast<VertexId>(v));
    if (state.out_degree[v] == 0) {
      out.dangling_rows.push_back(static_cast<VertexId>(v));
    }
  }
  out.charge.reset(obs::MemTag::kCompiledKernel, out.memory_bytes());
}

}  // namespace pmpr
