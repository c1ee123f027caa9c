#include "pagerank/spmv_temporal.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "obs/counters.hpp"

namespace pmpr {

namespace {

/// Compiled-layout sweep over active_rows[lo, hi): the window's time filter
/// was applied at compile time, so the inner loop is a plain CSR gather.
double sweep_compiled_rows(const CompiledWindowCsr& compiled,
                           const WindowState& state,
                           std::span<const double> x, std::span<double> x_next,
                           double base, double one_minus_alpha, std::size_t lo,
                           std::size_t hi) {
  double diff = 0.0;
  std::uint64_t edges = 0;  // flushed once per chunk, not per edge
  for (std::size_t r = lo; r < hi; ++r) {
    const VertexId v = compiled.active_rows[r];
    double sum = 0.0;
    const auto nbrs = compiled.row_nbr(v);
    edges += nbrs.size();
    for (const VertexId u : nbrs) {
      sum += x[u] / static_cast<double>(state.out_degree[u]);
    }
    const double next = base + one_minus_alpha * sum;
    diff += std::abs(next - x[v]);
    x_next[v] = next;
  }
  obs::count(obs::Counter::kEdgesTraversed, edges);
  return diff;
}

}  // namespace

PagerankStats pagerank_window_spmv(const WindowState& state,
                                   const CompiledWindowCsr& compiled,
                                   std::span<double> x,
                                   std::span<double> scratch,
                                   const PagerankParams& params,
                                   const par::ForOptions* parallel) {
  const std::size_t n = compiled.num_rows();
  assert(x.size() == n && scratch.size() == n);
  PagerankStats stats;
  if (state.num_active == 0) {
    for (auto& v : x) v = 0.0;
    return stats;
  }
  const auto n_active = static_cast<double>(state.num_active);
  const double one_minus_alpha = 1.0 - params.alpha;

  // Sweeps visit only active rows, so inactive rows are zeroed once, in
  // both buffers.
  std::size_t next_active = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (next_active < compiled.active_rows.size() &&
        compiled.active_rows[next_active] == v) {
      ++next_active;
      continue;
    }
    x[v] = 0.0;
    scratch[v] = 0.0;
  }

  double* cur = x.data();
  double* next = scratch.data();
  const std::size_t rows = compiled.active_rows.size();

  for (int iter = 0; iter < params.max_iters; ++iter) {
    std::span<const double> cur_span(cur, n);
    std::span<double> next_span(next, n);
    // Compiled dangling scan: only the precompiled dangling vertices are
    // read, not all n rows.
    double dangling = 0.0;
    if (params.redistribute_dangling) {
      for (const VertexId v : compiled.dangling_rows) dangling += cur[v];
    }
    const double base = (params.alpha + one_minus_alpha * dangling) / n_active;

    double diff = 0.0;
    if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, rows, 0.0, *parallel,
          [&](std::size_t lo, std::size_t hi) {
            return sweep_compiled_rows(compiled, state, cur_span, next_span,
                                       base, one_minus_alpha, lo, hi);
          },
          [](double a, double b) { return a + b; });
    } else {
      diff = sweep_compiled_rows(compiled, state, cur_span, next_span, base,
                                 one_minus_alpha, 0, rows);
    }

    std::swap(cur, next);
    stats.iterations = iter + 1;
    stats.final_residual = diff;
    if (obs::metrics_enabled()) stats.residuals.push_back(diff);
    if (diff < params.tol) break;
  }
  obs::count(obs::Counter::kIterations,
             static_cast<std::uint64_t>(stats.iterations));
  if (params.redistribute_dangling) {
    obs::count(obs::Counter::kDanglingScanned,
               static_cast<std::uint64_t>(stats.iterations) *
                   compiled.dangling_rows.size());
  }
  if (stats.converged(params)) obs::count(obs::Counter::kLanesConverged);

  if (cur != x.data()) {
    std::copy(cur, cur + n, x.data());
  }
  return stats;
}

}  // namespace pmpr
