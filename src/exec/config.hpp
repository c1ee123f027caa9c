// Postmortem execution configuration (paper §4.3–§4.4, §6.3.6).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "graph/edge_list.hpp"
#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/simd_dispatch.hpp"
#include "pagerank/window_state.hpp"
#include "par/partitioner.hpp"

namespace pmpr {

/// Which level(s) of parallelism the postmortem driver uses (paper §4.3).
enum class ParallelMode {
  kWindow,    ///< Across windows; each PageRank runs sequentially.
  kPagerank,  ///< Windows in order; parallelism inside each PageRank.
  kNested,    ///< Both at once (workstealing adapts between them).
};

/// SpMV-style (one window at a time) vs SpMM-inspired (a batch of windows
/// per matrix traversal, §4.4).
enum class KernelKind { kSpmv, kSpmm };

/// How the multi-window representation is stored while computing.
enum class StorageKind {
  /// Raw temporal CSR arrays, all parts resident (the seed behavior and
  /// the ablation baseline for the compressed paths).
  kInRam,
  /// Chunked delta+varint parts, all resident; the compile passes stream
  /// from the chunks (io/compressed_csr.hpp) — the raw arrays never exist
  /// after the build.
  kCompressed,
  /// Compressed parts serialized to an mmap-backed store file and paged
  /// in/out under config.memory_budget_bytes
  /// (graph/paged_multi_window.hpp).
  kOutOfCore,
};

[[nodiscard]] std::string_view to_string(ParallelMode m);
[[nodiscard]] std::string_view to_string(KernelKind k);
[[nodiscard]] std::string_view to_string(StorageKind s);
ParallelMode parse_parallel_mode(std::string_view name);
KernelKind parse_kernel_kind(std::string_view name);
StorageKind parse_storage_kind(std::string_view name);

struct PostmortemConfig {
  PagerankParams pr;
  ParallelMode mode = ParallelMode::kNested;
  KernelKind kernel = KernelKind::kSpmm;
  /// Partitioner and grain of the in-kernel loops (kPagerank, kNested).
  /// They do not split windows: window-level width is one task per part.
  par::Partitioner partitioner = par::Partitioner::kAuto;
  std::size_t grain = 1;
  /// Number of multi-window graphs Y (paper evaluates 6..1024, Fig. 8).
  /// Each part is one partial-init chain and one window-level task.
  std::size_t num_multi_windows = 6;
  /// How windows are assigned to multi-window graphs (kBalancedEvents is
  /// the paper's future-work decomposition; see graph/multi_window.hpp).
  PartitionPolicy partition_policy = PartitionPolicy::kUniformWindows;
  /// SpMM lanes ("vector length"; paper uses 8 or 16). A batch gets at
  /// most min(vector_length, max_lanes, kMaxSpmmLanes = 64) lanes, and no
  /// more than its part's window count.
  std::size_t vector_length = 16;
  /// Hard cap on SpMM lanes per batch, clamped to [1, kMaxSpmmLanes].
  /// vector_length asks for a width; max_lanes bounds what any batch may
  /// actually get.
  std::size_t max_lanes = kMaxSpmmLanes;
  /// ISA override for the compiled SpMM sweeps (kAuto = best the CPU
  /// supports; forced modes are for differential testing / perf triage and
  /// throw InvariantError when unsupported). Resolved once per run and
  /// recorded in RunResult::simd_isa.
  SimdMode simd = SimdMode::kAuto;
  bool partial_init = true;
  /// Representation storage: raw in-RAM (default), compressed in-RAM, or
  /// the mmap-backed out-of-core store. Ranks are bit-identical across all
  /// three.
  StorageKind storage = StorageKind::kInRam;
  /// kOutOfCore only: hard cap on resident compressed payload bytes. 0 =
  /// "one part at a time" (the cap adjusts to the largest part).
  std::size_t memory_budget_bytes = 0;
  /// kOutOfCore only: store-file location; empty picks a unique temp file.
  std::string spill_path;
  /// Run MultiWindowSet::validate() on the representation before computing
  /// (throws pmpr::InvariantError on a structural violation). O(V + E)
  /// once per run — cheap insurance for debugging and sanitizer CI.
  bool validate = false;
  /// Pool override for tests; nullptr = global pool.
  par::ThreadPool* pool = nullptr;
};

/// Per-window work profile used by suggest_config.
struct WorkloadProfile {
  std::size_t num_windows = 0;
  /// Share of all window-edges carried by the two heaviest windows, in
  /// [0, 1]. Detects the Enron/Epinions-like spike datasets where a couple
  /// of windows dominate (Fig. 4 discussion).
  double top2_share = 0.0;

  static WorkloadProfile from_window_edges(
      std::span<const std::size_t> window_edge_counts);
};

/// The paper's §6.3.6 rules of thumb: SpMM is never a bad choice; the auto
/// partitioner with grain <= 4; nested parallelism unless a couple of
/// windows dominate the workload (then application-level) or there are
/// very few windows relative to the machine.
PostmortemConfig suggest_config(const WorkloadProfile& profile,
                                std::size_t num_threads);

/// One-call form: profiles `events` under `spec` (event counts per window)
/// and applies the §6.3.6 rules. `num_threads` = 0 uses the global pool's
/// size.
PostmortemConfig suggest_config_for(const TemporalEdgeList& events,
                                    const WindowSpec& spec,
                                    std::size_t num_threads = 0);

}  // namespace pmpr
