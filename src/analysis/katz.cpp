#include "analysis/katz.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

namespace pmpr::analysis {

namespace {

double sweep_rows(const CompiledWindowCsr& compiled, const WindowState& state,
                  std::span<const double> x, std::span<double> x_next,
                  const KatzParams& params, std::size_t lo, std::size_t hi) {
  double diff = 0.0;
  for (std::size_t v = lo; v < hi; ++v) {
    if (state.active[v] == 0) {
      x_next[v] = 0.0;
      continue;
    }
    double sum = 0.0;
    for (const VertexId u : compiled.row_nbr(static_cast<VertexId>(v))) {
      sum += x[u];
    }
    const double next = params.beta + params.attenuation * sum;
    diff += std::abs(next - x[v]);
    x_next[v] = next;
  }
  return diff;
}

}  // namespace

KatzStats katz_window(const WindowState& state,
                      const CompiledWindowCsr& compiled, std::span<double> x,
                      std::span<double> scratch, const KatzParams& params,
                      const par::ForOptions* parallel) {
  const std::size_t n = compiled.num_rows();
  assert(x.size() == n && scratch.size() == n);
  KatzStats stats;
  if (state.num_active == 0) {
    for (auto& v : x) v = 0.0;
    return stats;
  }
  double* cur = x.data();
  double* next = scratch.data();
  for (int iter = 0; iter < params.max_iters; ++iter) {
    std::span<const double> cur_span(cur, n);
    std::span<double> next_span(next, n);
    double diff = 0.0;
    if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, n, 0.0, *parallel,
          [&](std::size_t lo, std::size_t hi) {
            return sweep_rows(compiled, state, cur_span, next_span, params,
                              lo, hi);
          },
          [](double a, double b) { return a + b; });
    } else {
      diff = sweep_rows(compiled, state, cur_span, next_span, params, 0, n);
    }
    std::swap(cur, next);
    stats.iterations = iter + 1;
    stats.final_residual = diff;
    if (diff < params.tol) break;
  }
  if (cur != x.data()) {
    std::memcpy(x.data(), cur, n * sizeof(double));
  }
  return stats;
}

std::vector<KatzSummary> katz_over_windows(const MultiWindowSet& set,
                                           const KatzParams& params,
                                           const par::ForOptions* parallel,
                                           bool warm_start) {
  const std::size_t m = set.spec().count;
  std::vector<KatzSummary> out(m);

  std::vector<double> x;
  std::vector<double> scratch;
  WindowState state;
  CompiledWindowCsr compiled;
  std::size_t carry_part = SIZE_MAX;

  for (std::size_t w = 0; w < m; ++w) {
    const std::size_t p = set.part_index_for_window(w);
    const auto& part = set.part(p);
    const std::size_t n = part.num_local();
    const Timestamp ts = set.spec().start(w);
    const Timestamp te = set.spec().end(w);
    compile_window(part, ts, te, state, compiled, parallel);

    if (!warm_start || p != carry_part) {
      x.assign(n, 0.0);
      scratch.assign(n, 0.0);
      for (std::size_t v = 0; v < n; ++v) {
        if (state.active[v] != 0) x[v] = params.beta;
      }
    } else {
      // Carry previous window's scores; activate newcomers at beta.
      for (std::size_t v = 0; v < n; ++v) {
        if (state.active[v] == 0) {
          x[v] = 0.0;
        } else if (x[v] == 0.0) {
          x[v] = params.beta;
        }
      }
    }
    carry_part = p;

    const KatzStats stats =
        katz_window(state, compiled, x, scratch, params, parallel);

    KatzSummary& s = out[w];
    s.window = w;
    s.iterations = stats.iterations;
    for (std::size_t v = 0; v < n; ++v) {
      if (x[v] > s.top_score) {
        s.top_score = x[v];
        s.top_vertex = part.global_of(static_cast<VertexId>(v));
      }
    }
  }
  return out;
}

}  // namespace pmpr::analysis
