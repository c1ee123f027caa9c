#include "pagerank/batch_csr.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>

#include "obs/counters.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace pmpr {

namespace {

/// Conservative chunk prune: the chunk's entry time extent misses
/// [prune_lo, prune_hi] entirely, so every lane / window-membership test on
/// its events would come back empty. Empty chunks (extent fields zeroed)
/// prune trivially.
bool chunk_pruned(const io::ChunkMeta& m, Timestamp prune_lo,
                  Timestamp prune_hi) {
  return m.num_entries == 0 || m.time_max < prune_lo || m.time_min > prune_hi;
}

/// Decode/prune tallies of one chunk range, flushed to the obs counters
/// once per range (hot-loop discipline: never count() per chunk).
struct ChunkTally {
  std::size_t decoded = 0;
  std::size_t pruned = 0;
  std::size_t bytes = 0;  ///< Encoded bytes of the decoded chunks.

  void flush() const {
    if (decoded != 0) obs::count(obs::Counter::kChunksDecoded, decoded);
    if (pruned != 0) obs::count(obs::Counter::kChunksPruned, pruned);
    if (bytes != 0) obs::count(obs::Counter::kBytesDecoded, bytes);
  }
};

/// One compile pass's walk over the rows of `part`: calls
/// `pass(v, cols, times)` for row v's in-neighbor and timestamp spans.
///   * A raw part is one unpruned row range; every row is passed.
///   * A compressed part is walked chunk by chunk. A chunk whose time
///     extent misses [prune_lo, prune_hi] is skipped, so its rows are never
///     passed — exactly what passing them would do, since none of their
///     events joins a window. The others are decoded into scratch
///     (kChunksDecoded / kChunksPruned / kBytesDecoded).
/// Non-null `parallel` splits the walk as a parallel_for over rows or
/// chunks (rows never split across chunks, so both are row-parallel); the
/// parallel chunk walk decodes into per-callback buffers, the serial one
/// into `scratch` (null uses a local).
template <typename Pass>
void walk_rows(const MultiWindowGraph& part, Timestamp prune_lo,
               Timestamp prune_hi, const par::ForOptions* parallel,
               io::DecodeScratch* scratch, Pass&& pass) {
  const std::size_t n = part.num_local();
  if (!part.is_compressed()) {
    const auto rows = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) {
        pass(v, part.in.row_cols(static_cast<VertexId>(v)),
             part.in.row_times(static_cast<VertexId>(v)));
      }
    };
    par::maybe_parallel_for_range(0, n, parallel, rows);
    return;
  }

  const io::CompressedTemporalCsr& packed = *part.in_compressed;
  PMPR_CHECK_MSG(packed.num_rows() == n,
                 "compressed part covers " << packed.num_rows()
                                           << " rows, local space has " << n);
  const auto chunks = [&](std::size_t lo, std::size_t hi,
                          io::DecodeScratch& sc) {
    ChunkTally tally;
    for (std::size_t c = lo; c < hi; ++c) {
      const io::ChunkMeta& m = packed.chunk(c);
      if (chunk_pruned(m, prune_lo, prune_hi)) {
        ++tally.pruned;
        continue;
      }
      ++tally.decoded;
      tally.bytes += m.byte_size;
      packed.decode_chunk(c, sc);
      for (std::size_t r = 0; r < m.num_rows; ++r) {
        const std::size_t b = sc.row_ptr[r];
        const std::size_t e = sc.row_ptr[r + 1];
        pass(m.first_row + r,
             std::span<const VertexId>(sc.cols.data() + b, e - b),
             std::span<const Timestamp>(sc.times.data() + b, e - b));
      }
    }
    tally.flush();
  };
  if (parallel != nullptr) {
    par::parallel_for_range(0, packed.num_chunks(), *parallel,
                            [&](std::size_t lo, std::size_t hi) {
                              io::DecodeScratch local;
                              chunks(lo, hi, local);
                            });
  } else {
    io::DecodeScratch local;
    chunks(0, packed.num_chunks(), scratch != nullptr ? *scratch : local);
  }
}

/// Calls `fn(u, mask)` for every distinct in-neighbor run ⟨v, u⟩ of a row
/// whose events fall in at least one lane's window; `mask` is the union of
/// those lanes.
template <typename Fn>
void for_each_live_run(const WindowSpec& spec, const SpmmBatch& batch,
                       std::span<const VertexId> cols,
                       std::span<const Timestamp> times, Fn&& fn) {
  std::size_t i = 0;
  while (i < cols.size()) {
    const VertexId u = cols[i];
    std::uint64_t mask = 0;
    for (; i < cols.size() && cols[i] == u; ++i) {
      mask |= lanes_containing(spec, batch, times[i]);
    }
    if (mask != 0) fn(u, mask);
  }
}

/// Pass A of the SpMM compile for one row: counts the row's live runs and
/// scatters activity plus the lane *differences* of the degrees. An entry
/// adds one to out_degree[u] in every lane its mask sets; each maximal run
/// [a, b] of set lanes is recorded as +1 at lane a and -1 (mod 2^32) at
/// lane b + 1 — dropped when b + 1 == lanes, the carry-out of the last
/// lane — so a run costs two writes however many lanes it spans.
/// finalize_spmm's prefix over each row's lanes turns the differences into
/// the reference scatter's degrees (tests/oracle/).
///
/// Atomicity ownership (the TSan-gated stress in
/// tests/pagerank/batch_csr_parallel_test.cpp guards it):
///   * the returned entry count — consumed only by the thread walking
///     row v. Never atomic.
///   * state.out_degree[u * lanes + k] and state.active_mask[u] —
///     cross-row scatter targets: row v bumps arbitrary u's slots. The
///     parallel walk (Atomic = true) must use std::atomic_ref for *every*
///     one of these; the serial walk (Atomic = false) owns the whole array
///     on one thread and uses plain writes — the two `if constexpr` arms
///     below are the same write routed per walk, not a mixed mode.
///   * state.active_mask[v] (the row's own activity) is also a shared
///     slot: other rows scatter into v as a neighbor, so the parallel walk
///     ORs it atomically too.
template <bool Atomic>
std::size_t scatter_row(const WindowSpec& spec, const SpmmBatch& batch,
                        SpmmWindowState& state, std::size_t v,
                        std::span<const VertexId> cols,
                        std::span<const Timestamp> times) {
  const std::size_t lanes = batch.lanes;
  const std::uint64_t in_batch = lanes_below(lanes);
  const auto bit_or = [](std::uint64_t& slot, std::uint64_t bits) {
    if constexpr (Atomic) {
      // relaxed: commutative bit-set; published by the join.
      std::atomic_ref<std::uint64_t>(slot).fetch_or(
          bits, std::memory_order_relaxed);
    } else {
      slot |= bits;
    }
  };
  const auto add = [](std::uint32_t& deg, std::uint32_t d) {
    if constexpr (Atomic) {
      // relaxed: commutative count, wrapping; published by the join.
      std::atomic_ref<std::uint32_t>(deg).fetch_add(
          d, std::memory_order_relaxed);
    } else {
      deg += d;
    }
  };
  std::uint64_t v_mask = 0;
  std::size_t entries = 0;
  for_each_live_run(
      spec, batch, cols, times, [&](VertexId u, std::uint64_t mask) {
        ++entries;
        v_mask |= mask;
        std::uint32_t* deg = &state.out_degree[u * lanes];
        const std::uint64_t starts = mask & ~(mask << 1);
        const std::uint64_t stops = (mask & ~(mask >> 1)) << 1 & in_batch;
        for_each_set_lane(starts, [&](std::size_t k) { add(deg[k], 1); });
        for_each_set_lane(stops, [&](std::size_t k) {
          add(deg[k], ~std::uint32_t{0});
        });
        bit_or(state.active_mask[u], mask);
      });
  if (v_mask != 0) bit_or(state.active_mask[v], v_mask);
  return entries;
}

/// Vertices per block of finalize_spmm's count and fill passes.
constexpr std::size_t kFinalizeBlock = 4096;

/// What one finalize block holds: its active and dangling rows and its
/// share of every lane's population.
struct BlockTally {
  std::size_t active = 0;
  std::size_t dangling = 0;
  std::array<std::size_t, kMaxSpmmLanes> lane_active{};
};

/// After pass A: turns state.out_degree's lane differences into degrees
/// and builds num_active plus the compaction lists. Count, prefix, fill
/// over fixed vertex blocks, so every list is ascending in v whichever
/// thread fills which block.
void finalize_spmm(SpmmWindowState& state, CompiledBatchCsr& out,
                   const par::ForOptions* parallel) {
  const std::size_t n = state.active_mask.size();
  const std::size_t lanes = state.lanes;
  const auto dangling_of = [&](std::size_t v, std::uint64_t m) {
    std::uint64_t dangling = 0;
    for_each_set_lane(m, [&](std::size_t k) {
      if (state.out_degree[v * lanes + k] == 0) dangling |= lane_bit(k);
    });
    return dangling;
  };
  const std::size_t num_blocks = (n + kFinalizeBlock - 1) / kFinalizeBlock;
  const auto block_end = [n](std::size_t b) {
    return std::min(n, (b + 1) * kFinalizeBlock);
  };
  std::vector<BlockTally> tally(num_blocks);
  const auto count = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      BlockTally& t = tally[b];
      for (std::size_t v = b * kFinalizeBlock; v < block_end(b); ++v) {
        const std::uint64_t m = state.active_mask[v];
        // Inactive rows are nobody's neighbor: their differences are 0.
        if (m == 0) continue;
        std::uint32_t* deg = &state.out_degree[v * lanes];
        for (std::size_t k = 1; k < lanes; ++k) deg[k] += deg[k - 1];
        ++t.active;
        for_each_set_lane(m, [&](std::size_t k) { ++t.lane_active[k]; });
        if (dangling_of(v, m) != 0) ++t.dangling;
      }
    }
  };
  par::maybe_parallel_for_range(0, num_blocks, parallel, count);

  std::vector<std::size_t> active_at(num_blocks);
  std::vector<std::size_t> dangling_at(num_blocks);
  std::size_t active = 0;
  std::size_t dangling = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    active_at[b] = active;
    dangling_at[b] = dangling;
    active += tally[b].active;
    dangling += tally[b].dangling;
    for (std::size_t k = 0; k < lanes; ++k) {
      state.num_active[k] += tally[b].lane_active[k];
    }
  }
  out.active_rows.resize(active);
  out.dangling_rows.resize(dangling);
  out.dangling_mask.resize(dangling);

  const auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      std::size_t a = active_at[b];
      std::size_t d = dangling_at[b];
      for (std::size_t v = b * kFinalizeBlock; v < block_end(b); ++v) {
        const std::uint64_t m = state.active_mask[v];
        if (m == 0) continue;
        out.active_rows[a++] = static_cast<VertexId>(v);
        const std::uint64_t dm = dangling_of(v, m);
        if (dm != 0) {
          out.dangling_rows[d] = static_cast<VertexId>(v);
          out.dangling_mask[d++] = dm;
        }
      }
    }
  };
  par::maybe_parallel_for_range(0, num_blocks, parallel, fill);
}

/// SpMV pass A for one row; atomicity as in scatter_row.
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

/// Exclusive prefix sum turning the per-row counts row_ptr[v + 1] into
/// offsets; returns the total.
std::size_t prefix_sum(std::vector<std::size_t>& row_ptr) {
  std::size_t total = 0;
  for (std::size_t v = 1; v < row_ptr.size(); ++v) {
    total += row_ptr[v];
    row_ptr[v] = total;
  }
  return total;
}

}  // namespace

void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out, const par::ForOptions* parallel,
                        io::DecodeScratch* scratch) {
  // Release-mode check: with -DNDEBUG an oversized batch would silently
  // shift lane bits out of the mask word — UB plus a corrupt compiled form.
  PMPR_CHECK_MSG(batch.lanes >= 1 && batch.lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << batch.lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
  const std::size_t n = part.num_local();
  const std::size_t lanes = batch.lanes;
  state.resize(n, lanes);
  out.lanes = lanes;
  out.row_ptr.assign(n + 1, 0);

  // Union of the batch's lane windows: lanes are strided windows of one
  // spec, so coverage is [start(first lane), end(last lane)].
  const Timestamp prune_lo = spec.start(batch.first_window);
  const Timestamp prune_hi = spec.end(batch.window_of_lane(lanes - 1));

  // Pass A: per-row entry counts, degrees and activity.
  walk_rows(part, prune_lo, prune_hi, parallel, scratch,
            [&](std::size_t v, std::span<const VertexId> cols,
                std::span<const Timestamp> times) {
              out.row_ptr[v + 1] =
                  parallel != nullptr
                      ? scatter_row<true>(spec, batch, state, v, cols, times)
                      : scatter_row<false>(spec, batch, state, v, cols,
                                           times);
            });

  const std::size_t total = prefix_sum(out.row_ptr);
  out.nbr.resize(total);
  out.mask.resize(total);

  // Pass B: re-runs each row's (row-local) run scan and fills nbr/mask at
  // the prefix-summed offsets. No cross-row writes, so no atomics.
  walk_rows(part, prune_lo, prune_hi, parallel, scratch,
            [&](std::size_t v, std::span<const VertexId> cols,
                std::span<const Timestamp> times) {
              std::size_t at = out.row_ptr[v];
              for_each_live_run(spec, batch, cols, times,
                                [&](VertexId u, std::uint64_t mask) {
                                  out.nbr[at] = u;
                                  out.mask[at] = mask;
                                  ++at;
                                });
              assert(at == out.row_ptr[v + 1]);
            });

  // Degrees, per-lane population and the compaction lists.
  finalize_spmm(state, out, parallel);
  out.charge.reset(obs::MemTag::kCompiledKernel, out.memory_bytes());
}

void compile_window(const MultiWindowGraph& part, Timestamp ts, Timestamp te,
                    WindowState& state, CompiledWindowCsr& out,
                    const par::ForOptions* parallel,
                    io::DecodeScratch* scratch) {
  const std::size_t n = part.num_local();
  state.resize(n);
  out.row_ptr.assign(n + 1, 0);
  out.active_rows.clear();
  out.dangling_rows.clear();

  walk_rows(part, ts, te, parallel, scratch,
            [&](std::size_t v, std::span<const VertexId> cols,
                std::span<const Timestamp> times) {
              out.row_ptr[v + 1] =
                  parallel != nullptr
                      ? scatter_window_row<true>(ts, te, state, v, cols, times)
                      : scatter_window_row<false>(ts, te, state, v, cols,
                                                  times);
            });

  out.nbr.resize(prefix_sum(out.row_ptr));

  walk_rows(part, ts, te, parallel, scratch,
            [&](std::size_t v, std::span<const VertexId> cols,
                std::span<const Timestamp> times) {
              std::size_t at = out.row_ptr[v];
              for_each_active_neighbor_in_row(
                  cols, times, ts, te, [&](VertexId u) { out.nbr[at++] = u; });
              assert(at == out.row_ptr[v + 1]);
            });

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
