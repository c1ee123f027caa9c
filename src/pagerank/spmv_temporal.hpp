// SpMV-style postmortem PageRank kernel (paper §4.1/§4.3): one window of a
// multi-window graph at a time, pulling over the window's compiled reverse
// adjacency. Compiling the window visits every stored event of the part
// once — Θ(|E_w|) — which is why the multi-window partitioning matters
// (Fig. 8).
#pragma once

#include <span>

#include "graph/multi_window.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr {

/// Runs PageRank for one window over its compiled adjacency (time filter
/// applied once, active-row and dangling-row compaction) built by
/// compile_window. `x` (size = part locals) holds the initial guess on
/// entry and the result on exit; `scratch` matches x. `state` must come
/// from the same compile_window call. Non-null `parallel` runs each sweep
/// as a parallel_for (the paper's "application/PR-level" parallelism
/// inside the kernel). Serial runs are bit-identical to the reference
/// kernel in tests/oracle/.
PagerankStats pagerank_window_spmv(const WindowState& state,
                                   const CompiledWindowCsr& compiled,
                                   std::span<double> x,
                                   std::span<double> scratch,
                                   const PagerankParams& params,
                                   const par::ForOptions* parallel = nullptr);

}  // namespace pmpr
