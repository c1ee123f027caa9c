// Compiled SpMM sweep kernels, one per ISA.
//
// A sweep advances every live lane of rows active_rows[lo, hi) by one
// power iteration over the batch-compiled adjacency. All implementations
// perform the *same floating-point operations per lane in the same
// order* — per-lane accumulators are independent, so vectorizing across
// lanes changes nothing about any single lane's add sequence — which is
// what keeps scalar, AVX2, and AVX-512 results bit-identical when run
// serially (the differential dispatch tests rely on this). Every
// multiply-add is an explicit fused multiply-add (std::fma / vfmadd) so
// the contraction the vector kernels perform is also what the scalar and
// reference kernels perform, independent of compiler flags.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pagerank/batch_csr.hpp"
#include "pagerank/simd_dispatch.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr {

/// One compiled sweep over active_rows[lo, hi).
///   x / x_next   n*lanes lane-interleaved current / next iterate
///   base         per-lane teleport + dangling base term (lanes doubles)
///   live_mask    still-iterating lanes
///   diff         per-lane L1 change accumulator (lanes doubles), added to
/// Returns the number of compiled entries traversed (for the
/// edges-traversed counter, flushed once per chunk by the caller).
using SpmmSweep = std::uint64_t(const CompiledBatchCsr& compiled,
                                const SpmmWindowState& state,
                                const double* x, double* x_next,
                                const double* base, double one_minus_alpha,
                                std::uint64_t live_mask, double* diff,
                                std::size_t lo, std::size_t hi);
using SpmmSweepFn = SpmmSweep*;

/// Kernel for `isa`. The caller resolves `isa` through resolve_simd first;
/// asking for an ISA that is not built into the binary throws
/// InvariantError.
[[nodiscard]] SpmmSweepFn select_spmm_sweep(SimdIsa isa);

namespace detail {
// Defined in simd_sweep_{scalar,avx2,avx512}.cpp. The wide TUs are
// compiled only when CMake found the -m flags; their kernels are
// referenced behind the matching PMPR_HAVE_*_SWEEP guards.
SpmmSweep sweep_scalar;
SpmmSweep sweep_avx2;
SpmmSweep sweep_avx512;
}  // namespace detail

}  // namespace pmpr
