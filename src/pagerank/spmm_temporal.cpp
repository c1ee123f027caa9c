#include "pagerank/spmm_temporal.hpp"

#include <cassert>
#include <cstring>
#include <utility>

#include "obs/counters.hpp"
#include "pagerank/simd_sweep.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace pmpr {

namespace {

/// Per-lane double accumulators, sized `lanes` at runtime.
using LaneVec = std::vector<double>;

LaneVec add_lanes(LaneVec a, const LaneVec& b) {
  for (std::size_t k = 0; k < a.size(); ++k) a[k] += b[k];
  return a;
}

/// Compiled dangling scan: only the precompiled dangling vertices are
/// visited, masked down to the still-live lanes (converged lanes cost
/// nothing). Reads dangling-list indices [lo, hi).
LaneVec dangling_scan_compiled(const CompiledBatchCsr& compiled,
                               const double* cur, std::size_t lanes,
                               std::uint64_t live_mask, std::size_t lo,
                               std::size_t hi) {
  LaneVec dangling(lanes, 0.0);
  for (std::size_t i = lo; i < hi; ++i) {
    const VertexId v = compiled.dangling_rows[i];
    for_each_set_lane(compiled.dangling_mask[i] & live_mask,
                      [&](std::size_t k) {
                        dangling[k] += cur[v * lanes + k];
                      });
  }
  obs::count(obs::Counter::kDanglingScanned, hi - lo);
  return dangling;
}

}  // namespace

SpmmStats pagerank_spmm(const SpmmWindowState& state,
                        const CompiledBatchCsr& compiled, std::span<double> x,
                        std::span<double> scratch,
                        const PagerankParams& params,
                        const par::ForOptions* parallel, SimdMode simd) {
  const std::size_t n = compiled.num_rows();
  const std::size_t lanes = compiled.lanes;
  PMPR_CHECK_MSG(lanes >= 1 && lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
  assert(x.size() == n * lanes && scratch.size() == n * lanes);
  assert(state.lanes == lanes);

  const SimdIsa isa = resolve_simd(simd);
  const SpmmSweepFn sweep_fn = select_spmm_sweep(isa);
  const obs::Counter isa_counter =
      isa == SimdIsa::kAvx512  ? obs::Counter::kSimdSweepAvx512
      : isa == SimdIsa::kAvx2 ? obs::Counter::kSimdSweepAvx2
                               : obs::Counter::kSimdSweepScalar;

  // Sweeps visit only active rows, so entries of rows inactive in every
  // lane are zeroed once, in both buffers.
  std::size_t next_active = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (next_active < compiled.active_rows.size() &&
        compiled.active_rows[next_active] == v) {
      ++next_active;
      continue;
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      x[v * lanes + k] = 0.0;
      scratch[v * lanes + k] = 0.0;
    }
  }

  SpmmStats stats;
  stats.lane_stats.assign(lanes, PagerankStats{});
  std::uint64_t live = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    if (state.num_active[k] > 0) {
      live |= lane_bit(k);
    } else {
      // Empty window: zero the lane and mark it converged immediately.
      for (std::size_t v = 0; v < n; ++v) x[v * lanes + k] = 0.0;
    }
  }

  const double one_minus_alpha = 1.0 - params.alpha;
  const std::size_t rows = compiled.active_rows.size();
  const std::size_t dangling_rows = compiled.dangling_rows.size();
  double* cur = x.data();
  double* next = scratch.data();

  for (int iter = 0; iter < params.max_iters && live != 0; ++iter) {
    LaneVec dangling(lanes, 0.0);
    if (params.redistribute_dangling) {
      if (parallel != nullptr) {
        dangling = par::parallel_reduce(
            0, dangling_rows, LaneVec(lanes, 0.0), *parallel,
            [&](std::size_t lo, std::size_t hi) {
              return dangling_scan_compiled(compiled, cur, lanes, live, lo,
                                            hi);
            },
            add_lanes);
      } else {
        dangling = dangling_scan_compiled(compiled, cur, lanes, live, 0,
                                          dangling_rows);
      }
    }
    LaneVec base(lanes, 0.0);
    for (std::size_t k = 0; k < lanes; ++k) {
      base[k] = state.num_active[k] > 0
                    ? (params.alpha + one_minus_alpha * dangling[k]) /
                          static_cast<double>(state.num_active[k])
                    : 0.0;
    }

    obs::count(isa_counter);
    LaneVec diff(lanes, 0.0);
    if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, rows, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            LaneVec local(lanes, 0.0);
            const std::uint64_t edges =
                sweep_fn(compiled, state, cur, next, base.data(),
                         one_minus_alpha, live, local.data(), lo, hi);
            obs::count(obs::Counter::kEdgesTraversed, edges);
            return local;
          },
          add_lanes);
    } else {
      const std::uint64_t edges =
          sweep_fn(compiled, state, cur, next, base.data(), one_minus_alpha,
                   live, diff.data(), 0, rows);
      obs::count(obs::Counter::kEdgesTraversed, edges);
    }

    std::swap(cur, next);
    stats.iterations = iter + 1;
    const bool record_residuals = obs::metrics_enabled();
    std::uint64_t converged_this_iter = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      if (!mask_test(live, k)) continue;
      stats.lane_stats[k].iterations = iter + 1;
      stats.lane_stats[k].final_residual = diff[k];
      if (record_residuals) stats.lane_stats[k].residuals.push_back(diff[k]);
      if (diff[k] < params.tol) {
        live &= ~lane_bit(k);
        ++converged_this_iter;
      }
    }
    if (converged_this_iter != 0) {
      obs::count(obs::Counter::kLanesConverged, converged_this_iter);
    }
  }
  obs::count(obs::Counter::kIterations,
             static_cast<std::uint64_t>(stats.iterations));

  if (cur != x.data()) {
    std::memcpy(x.data(), cur, n * lanes * sizeof(double));
  }
  return stats;
}

}  // namespace pmpr
