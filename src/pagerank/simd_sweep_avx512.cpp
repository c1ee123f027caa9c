// AVX-512 SpMM sweep: 8 lanes per vector op; each mask-word byte is used
// directly as an __mmask8, so lane-group selection is free. Compiled with
// the -mavx512* flags (see src/CMakeLists.txt) and only invoked after
// runtime dispatch confirmed CPU support (simd_dispatch.cpp).
//
// One instantiation per group count G = ceil(lanes / 8): the G lane
// accumulators, the per-lane base and the chunk's diff live in zmm
// registers for the whole row range, and every entry runs a fixed
// `for g < G` loop that skips groups with no selected lane.
//
// Bit-identity with the scalar kernel: per-lane accumulators are
// independent, the divide is zero-masked and the multiply-add is a masked
// vfmadd (matching the scalar x / deg and std::fma), and unselected lanes
// merge through the instruction's own masking — each lane sees exactly
// the scalar kernel's operation sequence.
#include <immintrin.h>

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "pagerank/simd_sweep.hpp"

namespace pmpr::detail {

namespace {

template <std::size_t G>
std::uint64_t sweep_groups(const CompiledBatchCsr& compiled,
                           const SpmmWindowState& state, const double* x,
                           double* x_next, const double* base,
                           double one_minus_alpha, std::uint64_t live_mask,
                           double* diff, std::size_t lo, std::size_t hi) {
  const std::size_t lanes = compiled.lanes;
  // Raw pointers: the x_next stores could alias the vectors' own fields,
  // which would make the compiler reload these every row.
  const VertexId* rows = compiled.active_rows.data();
  const std::size_t* row_ptr = compiled.row_ptr.data();
  const std::uint64_t* active = state.active_mask.data();
  const std::uint32_t* deg = state.out_degree.data();
  const VertexId* nbr = compiled.nbr.data();
  const std::uint64_t* masks = compiled.mask.data();
  const __m512d omav = _mm512_set1_pd(one_minus_alpha);
  // Lanes of group g that exist; only the last group can be partial.
  const std::size_t tail = lanes - (G - 1) * 8;
  const __mmask8 tail8 = static_cast<__mmask8>((1U << tail) - 1U);
  const auto valid = [&](std::size_t g) {
    return g + 1 < G ? static_cast<__mmask8>(0xFF) : tail8;
  };

  __m512d basev[G];
  __m512d diffv[G];
  for (std::size_t g = 0; g < G; ++g) {
    basev[g] = _mm512_maskz_loadu_pd(valid(g), base + g * 8);
    diffv[g] = _mm512_maskz_loadu_pd(valid(g), diff + g * 8);
  }

  std::uint64_t edges = 0;
  for (std::size_t r = lo; r < hi; ++r) {
    const VertexId v = rows[r];
    const std::uint64_t v_active = active[v];
    const std::uint64_t v_update = v_active & live_mask;
    __m512d acc[G];
    for (std::size_t g = 0; g < G; ++g) acc[g] = basev[g];

    if (v_update != 0) {
      const std::size_t e_lo = row_ptr[v];
      const std::size_t e_hi = row_ptr[v + 1];
      edges += e_hi - e_lo;
      for (std::size_t i = e_lo; i < e_hi; ++i) {
        const std::size_t u = nbr[i];
        const double* xu = x + u * lanes;
        const std::uint32_t* du = deg + u * lanes;
        const std::uint64_t m = masks[i] & v_update;
        for (std::size_t g = 0; g < G; ++g) {
          const __mmask8 bits = static_cast<__mmask8>(m >> (g * 8));
          if (bits == 0) continue;
          // maskz loads are fault-suppressing per element, so group tails
          // past `lanes` never touch memory (their bits are 0).
          const __m512d xv = _mm512_maskz_loadu_pd(bits, xu + g * 8);
          const __m512d dv = _mm512_maskz_cvtepu32_pd(
              bits, _mm256_maskz_loadu_epi32(bits, du + g * 8));
          acc[g] = _mm512_mask3_fmadd_pd(
              omav, _mm512_maskz_div_pd(bits, xv, dv), acc[g], bits);
        }
      }
    }

    const double* xv_row = x + v * lanes;
    double* next_row = x_next + v * lanes;
    for (std::size_t g = 0; g < G; ++g) {
      const __mmask8 a8 = static_cast<__mmask8>(v_active >> (g * 8)) &
                          valid(g);
      const __mmask8 al8 = a8 & static_cast<__mmask8>(live_mask >> (g * 8));
      // !active -> 0.0 (the maskz load); active & frozen -> cur;
      // active & live -> acc.
      const __m512d cur = _mm512_maskz_loadu_pd(a8, xv_row + g * 8);
      const __m512d next = _mm512_mask_mov_pd(cur, al8, acc[g]);
      _mm512_mask_storeu_pd(next_row + g * 8, valid(g), next);
      diffv[g] = _mm512_mask_add_pd(
          diffv[g], al8, diffv[g],
          _mm512_abs_pd(_mm512_sub_pd(acc[g], cur)));
    }
  }

  for (std::size_t g = 0; g < G; ++g) {
    _mm512_mask_storeu_pd(diff + g * 8, valid(g), diffv[g]);
  }
  return edges;
}

template <std::size_t... I>
constexpr std::array<SpmmSweepFn, sizeof...(I)> group_table(
    std::index_sequence<I...> /*unused*/) {
  return {&sweep_groups<I + 1>...};
}

/// sweep_groups<G> for G = 1..8, indexed by G - 1.
constexpr auto kSweepByGroups =
    group_table(std::make_index_sequence<kMaxSpmmLanes / 8>{});

}  // namespace

std::uint64_t sweep_avx512(const CompiledBatchCsr& compiled,
                           const SpmmWindowState& state, const double* x,
                           double* x_next, const double* base,
                           double one_minus_alpha,
                           std::uint64_t live_mask, double* diff,
                           std::size_t lo, std::size_t hi) {
  const std::size_t groups = (compiled.lanes + 7) / 8;
  assert(groups >= 1 && groups <= kSweepByGroups.size());
  return kSweepByGroups[groups - 1](compiled, state, x, x_next, base,
                                    one_minus_alpha, live_mask, diff, lo,
                                    hi);
}

}  // namespace pmpr::detail
