// AVX-512 SpMM sweep: 8 lanes per vector op; each mask-word byte is used
// directly as an __mmask8, so lane-group selection is free. Compiled with
// the -mavx512* flags (see src/CMakeLists.txt) and only invoked after
// runtime dispatch confirmed CPU support (simd_dispatch.cpp).
//
// Bit-identity with the scalar kernel: per-lane accumulators are
// independent, the multiply-add is a masked vfmadd (matching the scalar
// std::fma), and unselected lanes merge through the instruction's own
// masking — each lane sees exactly the scalar kernel's operation
// sequence. Masked-off lanes of a group may compute 0/0 inside the
// discarded div result; the merge-masked fmadd never reads those bits.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "pagerank/simd_sweep.hpp"
#include "util/bits.hpp"

namespace pmpr::detail {

namespace {

constexpr std::size_t kPrefetchEntries = 8;  // matches the scalar kernel
constexpr std::size_t kRowTile = 64;

}  // namespace

std::uint64_t sweep_avx512(const CompiledBatchCsr& compiled,
                           const SpmmWindowState& state, const double* x,
                           double* x_next, const double* base,
                           double one_minus_alpha,
                           std::uint64_t live_mask, double* diff,
                           std::size_t lo, std::size_t hi) {
  const std::size_t lanes = compiled.lanes;
  const std::uint32_t* deg = state.out_degree.data();
  const VertexId* nbr = compiled.nbr.data();
  const std::uint64_t* masks = compiled.mask.data();
  const __m512d omav = _mm512_set1_pd(one_minus_alpha);
  alignas(64) double acc[kMaxSpmmLanes];
  std::uint64_t edges = 0;
  for (std::size_t tile = lo; tile < hi; tile += kRowTile) {
    const std::size_t tile_hi = std::min(hi, tile + kRowTile);
    if (tile_hi < hi) {
      __builtin_prefetch(&compiled.active_rows[tile_hi]);
      __builtin_prefetch(&compiled.row_ptr[compiled.active_rows[tile_hi]]);
    }
    for (std::size_t r = tile; r < tile_hi; ++r) {
      const VertexId v = compiled.active_rows[r];
      const std::uint64_t v_active = state.active_mask[v];
      const std::uint64_t v_update = v_active & live_mask;
      for (std::size_t k = 0; k < lanes; ++k) acc[k] = base[k];

      if (v_update != 0) {
        const std::size_t e_lo = compiled.row_ptr[v];
        const std::size_t e_hi = compiled.row_ptr[v + 1];
        edges += e_hi - e_lo;
        for (std::size_t i = e_lo; i < e_hi; ++i) {
          if (i + kPrefetchEntries < e_hi) {
            const VertexId up = nbr[i + kPrefetchEntries];
            __builtin_prefetch(&x[static_cast<std::size_t>(up) * lanes]);
            __builtin_prefetch(&deg[static_cast<std::size_t>(up) * lanes]);
          }
          const std::size_t u = nbr[i];
          const double* xu = x + u * lanes;
          const std::uint32_t* du = deg + u * lanes;
          std::uint64_t m = masks[i] & v_update;
          while (m != 0) {
            const std::size_t g = ctz64(m) >> 3;  // 8-lane group
            const __mmask8 bits = static_cast<__mmask8>(m >> (g * 8));
            m &= ~(std::uint64_t{0xFF} << (g * 8));
            const std::size_t base_lane = g * 8;
            // maskz loads are fault-suppressing per element, so group
            // tails past `lanes` never touch memory (their bits are 0).
            const __m512d xv = _mm512_maskz_loadu_pd(bits, xu + base_lane);
            const __m256i dv32 =
                _mm256_maskz_loadu_epi32(bits, du + base_lane);
            // maskz (not the unmasked cvt): inactive-lane degrees become
            // 0.0 instead of GCC's _mm512_undefined_pd() merge source,
            // which -Wmaybe-uninitialized rejects in sanitizer builds. The
            // fmadd's write mask discards those lanes either way.
            const __m512d dv = _mm512_maskz_cvtepu32_pd(bits, dv32);
            __m512d accv = _mm512_loadu_pd(acc + base_lane);
            accv = _mm512_mask3_fmadd_pd(omav, _mm512_div_pd(xv, dv), accv,
                                         bits);
            _mm512_storeu_pd(acc + base_lane, accv);
          }
        }
      }

      for (std::size_t k0 = 0; k0 < lanes; k0 += 8) {
        const __mmask8 a8 = static_cast<__mmask8>(v_active >> k0);
        const __mmask8 l8 = static_cast<__mmask8>(live_mask >> k0);
        const __mmask8 al8 = a8 & l8;
        const std::size_t rem = lanes - k0;
        const __mmask8 valid8 =
            rem >= 8 ? static_cast<__mmask8>(0xFF)
                     : static_cast<__mmask8>((1U << rem) - 1U);
        const __m512d cur =
            _mm512_maskz_loadu_pd(valid8, x + v * lanes + k0);
        const __m512d accv = _mm512_loadu_pd(acc + k0);
        // !active -> 0.0; active & frozen -> cur; active & live -> acc.
        __m512d next = _mm512_maskz_mov_pd(a8, cur);
        next = _mm512_mask_mov_pd(next, al8, accv);
        _mm512_mask_storeu_pd(x_next + v * lanes + k0, valid8, next);
        if (al8 != 0) {
          const __m512d d = _mm512_abs_pd(_mm512_sub_pd(accv, cur));
          __m512d diffv = _mm512_maskz_loadu_pd(valid8, diff + k0);
          diffv = _mm512_mask_add_pd(diffv, al8, diffv, d);
          _mm512_mask_storeu_pd(diff + k0, valid8, diffv);
        }
      }
    }
  }
  return edges;
}

}  // namespace pmpr::detail
