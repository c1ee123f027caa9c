// Postmortem execution model (paper §4): the whole temporal graph is encoded
// once as a MultiWindowSet; PageRank runs over windows with
//   * partial initialization chained across consecutive windows of one part:
//     each part is one chain, processed in order by one task, so whether a
//     window warm-starts never depends on scheduling (§4.2, §4.3.1),
//   * window-level (one task per part) / application-level / nested
//     parallelism on the work-stealing pool (§4.3),
//   * the SpMV or SpMM-inspired kernel (§4.4); SpMM batches are strided so
//     every batch after the first still partial-initializes.
#pragma once

#include "exec/config.hpp"
#include "exec/results.hpp"
#include "graph/edge_list.hpp"
#include "graph/multi_window.hpp"
#include "graph/paged_multi_window.hpp"

namespace pmpr {

/// Builds the multi-window representation (timed as build_seconds) and runs
/// the analysis. `events` must be time-sorted. config.storage picks the
/// representation: raw in-RAM, compressed in-RAM (chunk-streaming compile),
/// or the mmap-backed out-of-core store paged under
/// config.memory_budget_bytes. Ranks are bit-identical across the three.
RunResult run_postmortem(const TemporalEdgeList& events,
                         const WindowSpec& spec, ResultSink& sink,
                         const PostmortemConfig& config);

/// Runs on an already-built representation (build_seconds = 0). Benchmarks
/// use this to sweep execution parameters without re-paying construction.
/// Honors compressed parts (set.compress_in_place()) but not
/// StorageKind::kOutOfCore — use run_postmortem_paged for that.
RunResult run_postmortem_prebuilt(const MultiWindowSet& set, ResultSink& sink,
                                  const PostmortemConfig& config);

/// Runs on an already-built paged store. Parts are processed in order:
/// each part is pinned (PagedMultiWindowSet::acquire) while its chain of
/// windows / batches computes (with in-kernel parallelism outside kWindow
/// mode), then released to the LRU.
/// Fills the oocore_* fields of RunResult from the store's
/// PagingStats.
RunResult run_postmortem_paged(PagedMultiWindowSet& paged, ResultSink& sink,
                               const PostmortemConfig& config);

}  // namespace pmpr
