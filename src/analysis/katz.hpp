// Postmortem Katz centrality over the sliding windows.
//
// A second iterative centrality on the same representation (the paper cites
// streaming Katz updates, Nathan & Bader): x = β·1 + a·Aᵀx iterated to a
// fixpoint, restricted to the window's active set. Like PageRank it
// benefits from warm-starting each window from its predecessor, so this
// kernel reuses the partial-initialization idea (values are carried, not
// renormalized — Katz is not a distribution).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/multi_window.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/window_state.hpp"
#include "par/parallel_for.hpp"

namespace pmpr::analysis {

struct KatzParams {
  /// Attenuation a. Convergence needs a < 1/λ_max; social-graph practice
  /// keeps it small.
  double attenuation = 0.05;
  double beta = 1.0;    ///< Base centrality per active vertex.
  double tol = 1e-9;    ///< L1 convergence threshold.
  int max_iters = 200;
};

struct KatzStats {
  int iterations = 0;
  double final_residual = 0.0;
};

/// Katz for one window over its compiled adjacency (compile_window).
/// `x` (size = locals) is the starting guess on entry (e.g. the previous
/// window's result, or all beta) and the result on exit; inactive vertices
/// end at 0. `state` must come from the same compile_window call (only
/// `active` is used; degrees are not needed for Katz).
KatzStats katz_window(const WindowState& state,
                      const CompiledWindowCsr& compiled, std::span<double> x,
                      std::span<double> scratch, const KatzParams& params,
                      const par::ForOptions* parallel = nullptr);

/// Per-window Katz summary for the whole analysis (sequential windows with
/// warm starts; kernel optionally parallel).
struct KatzSummary {
  std::size_t window = 0;
  int iterations = 0;
  VertexId top_vertex = kInvalidVertex;  ///< Global id of the Katz leader.
  double top_score = 0.0;
};

std::vector<KatzSummary> katz_over_windows(
    const MultiWindowSet& set, const KatzParams& params,
    const par::ForOptions* parallel = nullptr, bool warm_start = true);

}  // namespace pmpr::analysis
