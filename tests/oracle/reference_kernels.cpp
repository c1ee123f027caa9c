#include "oracle/reference_kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace pmpr::oracle {

namespace {

/// Lane mask: bit k names lane k of the batch.
using LaneMask = std::uint64_t;

void check_lanes(std::size_t lanes) {
  PMPR_CHECK_MSG(lanes >= 1 && lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
}

void check_raw(const MultiWindowGraph& part) {
  PMPR_CHECK_MSG(!part.is_compressed(),
                 "the reference kernels read the raw in-CSR; compressed "
                 "parts require the streaming compile (batch_csr.hpp)");
}

/// Mask of the lanes whose window contains some event of the ⟨v, u⟩ run
/// starting at cols[i]; advances i past the run.
LaneMask run_lanes(const WindowSpec& spec, const SpmmBatch& batch,
                   std::span<const VertexId> cols,
                   std::span<const Timestamp> times, std::size_t& i) {
  LaneMask mask = 0;
  const VertexId u = cols[i];
  while (i < cols.size() && cols[i] == u) {
    mask |= lanes_containing(spec, batch, times[i]);
    ++i;
  }
  return mask;
}

}  // namespace

void compute_window_state(const MultiWindowGraph& part, Timestamp ts,
                          Timestamp te, WindowState& out) {
  check_raw(part);
  const std::size_t n = part.num_local();
  out.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    bool v_active = false;
    part.in.for_each_active_neighbor(static_cast<VertexId>(v), ts, te,
                                     [&](VertexId u) {
                                       v_active = true;
                                       ++out.out_degree[u];
                                       out.active[u] = 1;
                                     });
    if (v_active) out.active[v] = 1;
  }
  for (std::size_t v = 0; v < n; ++v) out.num_active += out.active[v];
}

void compute_spmm_state(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& out) {
  check_lanes(batch.lanes);
  check_raw(part);
  const std::size_t n = part.num_local();
  const std::size_t lanes = batch.lanes;
  out.resize(n, lanes);
  for (std::size_t v = 0; v < n; ++v) {
    const auto cols = part.in.row_cols(static_cast<VertexId>(v));
    const auto times = part.in.row_times(static_cast<VertexId>(v));
    std::size_t i = 0;
    while (i < cols.size()) {
      const VertexId u = cols[i];
      const LaneMask run = run_lanes(spec, batch, cols, times, i);
      // u gains one distinct out-neighbor in every lane of the run; both
      // endpoints are active there.
      for_each_set_lane(run, [&](std::size_t k) {
        ++out.out_degree[u * lanes + k];
      });
      out.active_mask[u] |= run;
      out.active_mask[v] |= run;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    for_each_set_lane(out.active_mask[v],
                      [&](std::size_t k) { ++out.num_active[k]; });
  }
}

PagerankStats pagerank_window_spmv(const MultiWindowGraph& part, Timestamp ts,
                                   Timestamp te, const WindowState& state,
                                   std::span<double> x,
                                   std::span<double> scratch,
                                   const PagerankParams& params) {
  check_raw(part);
  const std::size_t n = part.num_local();
  assert(x.size() == n && scratch.size() == n);
  PagerankStats stats;
  if (state.num_active == 0) {
    for (auto& v : x) v = 0.0;
    return stats;
  }
  const auto n_active = static_cast<double>(state.num_active);
  const double one_minus_alpha = 1.0 - params.alpha;
  double* cur = x.data();
  double* next = scratch.data();

  for (int iter = 0; iter < params.max_iters; ++iter) {
    double dangling = 0.0;
    if (params.redistribute_dangling) {
      for (std::size_t v = 0; v < n; ++v) {
        if (state.active[v] != 0 && state.out_degree[v] == 0) {
          dangling += cur[v];
        }
      }
      obs::count(obs::Counter::kDanglingScanned, n);
    }
    const double base = (params.alpha + one_minus_alpha * dangling) / n_active;

    double diff = 0.0;
    std::uint64_t edges = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (state.active[v] == 0) {
        next[v] = 0.0;
        continue;
      }
      double sum = 0.0;
      part.in.for_each_active_neighbor(
          static_cast<VertexId>(v), ts, te, [&](VertexId u) {
            sum += cur[u] / static_cast<double>(state.out_degree[u]);
            ++edges;
          });
      const double value = base + one_minus_alpha * sum;
      diff += std::abs(value - cur[v]);
      next[v] = value;
    }
    obs::count(obs::Counter::kEdgesTraversed, edges);

    std::swap(cur, next);
    stats.iterations = iter + 1;
    stats.final_residual = diff;
    if (obs::metrics_enabled()) stats.residuals.push_back(diff);
    if (diff < params.tol) break;
  }
  obs::count(obs::Counter::kIterations,
             static_cast<std::uint64_t>(stats.iterations));
  if (stats.converged(params)) obs::count(obs::Counter::kLanesConverged);
  if (cur != x.data()) std::copy(cur, cur + n, x.data());
  return stats;
}

SpmmStats pagerank_spmm(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, const SpmmWindowState& state,
                        std::span<double> x, std::span<double> scratch,
                        const PagerankParams& params) {
  const std::size_t lanes = batch.lanes;
  check_lanes(lanes);
  check_raw(part);
  const std::size_t n = part.num_local();
  assert(x.size() == n * lanes && scratch.size() == n * lanes);
  assert(state.lanes == lanes);

  SpmmStats stats;
  stats.lane_stats.assign(lanes, PagerankStats{});
  LaneMask live = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    if (state.num_active[k] > 0) {
      live |= lane_bit(k);
    } else {
      // Empty window: zero the lane and mark it converged immediately.
      for (std::size_t v = 0; v < n; ++v) x[v * lanes + k] = 0.0;
    }
  }

  const double one_minus_alpha = 1.0 - params.alpha;
  double* cur = x.data();
  double* next = scratch.data();
  std::vector<double> dangling(lanes);
  std::vector<double> base(lanes);
  std::vector<double> diff(lanes);
  std::vector<double> acc(lanes);

  for (int iter = 0; iter < params.max_iters && live != 0; ++iter) {
    std::fill(dangling.begin(), dangling.end(), 0.0);
    if (params.redistribute_dangling) {
      for (std::size_t v = 0; v < n; ++v) {
        for_each_set_lane(state.active_mask[v] & live, [&](std::size_t k) {
          if (state.out_degree[v * lanes + k] == 0) {
            dangling[k] += cur[v * lanes + k];
          }
        });
      }
      obs::count(obs::Counter::kDanglingScanned, n);
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      base[k] = state.num_active[k] > 0
                    ? (params.alpha + one_minus_alpha * dangling[k]) /
                          static_cast<double>(state.num_active[k])
                    : 0.0;
    }

    // One shared traversal advances every live lane. Frozen (converged)
    // and inactive lanes keep their current value so the buffers can be
    // swapped; each contribution is an explicit fused multiply-add, like
    // the production sweeps.
    std::fill(diff.begin(), diff.end(), 0.0);
    std::uint64_t edges = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const LaneMask v_active = state.active_mask[v];
      const LaneMask v_live = v_active & live;
      std::copy(base.begin(), base.end(), acc.begin());
      if (v_live != 0) {
        const auto cols = part.in.row_cols(static_cast<VertexId>(v));
        const auto times = part.in.row_times(static_cast<VertexId>(v));
        edges += cols.size();
        std::size_t i = 0;
        while (i < cols.size()) {
          const VertexId u = cols[i];
          const LaneMask run = run_lanes(spec, batch, cols, times, i);
          for_each_set_lane(run & v_live, [&](std::size_t k) {
            acc[k] = std::fma(
                one_minus_alpha,
                cur[u * lanes + k] /
                    static_cast<double>(state.out_degree[u * lanes + k]),
                acc[k]);
          });
        }
      }
      for (std::size_t k = 0; k < lanes; ++k) {
        const double value = cur[v * lanes + k];
        if (!mask_test(v_active, k)) {
          next[v * lanes + k] = 0.0;
        } else if (!mask_test(live, k)) {
          next[v * lanes + k] = value;  // frozen lane
        } else {
          diff[k] += std::abs(acc[k] - value);
          next[v * lanes + k] = acc[k];
        }
      }
    }
    obs::count(obs::Counter::kEdgesTraversed, edges);

    std::swap(cur, next);
    stats.iterations = iter + 1;
    std::uint64_t converged_this_iter = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      if (!mask_test(live, k)) continue;
      stats.lane_stats[k].iterations = iter + 1;
      stats.lane_stats[k].final_residual = diff[k];
      if (obs::metrics_enabled()) {
        stats.lane_stats[k].residuals.push_back(diff[k]);
      }
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

}  // namespace pmpr::oracle
