// AVX2 + FMA SpMM sweep: 4 lanes per vector op, lane-group iteration over
// each mask word's nibbles. Compiled with -mavx2 -mfma (see
// src/CMakeLists.txt) and only invoked after runtime dispatch confirmed
// CPU support (simd_dispatch.cpp).
//
// Bit-identity with the scalar kernel: per-lane accumulators are
// independent, every multiply-add is a vfmadd (matching the scalar
// std::fma), and lanes not selected by a mask nibble are merged back
// untouched with blendv — so each lane sees exactly the scalar kernel's
// operation sequence. Masked-off lanes of a group may compute 0/0 inside
// the discarded div result; the blend throws those bits away.
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

/// Per-element all-ones/zero expansion of every 4-bit lane-group pattern.
/// blendv / maskload / maskstore read each 64-bit element's sign bit.
alignas(32) constexpr std::uint64_t kGroupMask64[16][4] = {
    {0, 0, 0, 0},
    {~0ULL, 0, 0, 0},
    {0, ~0ULL, 0, 0},
    {~0ULL, ~0ULL, 0, 0},
    {0, 0, ~0ULL, 0},
    {~0ULL, 0, ~0ULL, 0},
    {0, ~0ULL, ~0ULL, 0},
    {~0ULL, ~0ULL, ~0ULL, 0},
    {0, 0, 0, ~0ULL},
    {~0ULL, 0, 0, ~0ULL},
    {0, ~0ULL, 0, ~0ULL},
    {~0ULL, ~0ULL, 0, ~0ULL},
    {0, 0, ~0ULL, ~0ULL},
    {~0ULL, 0, ~0ULL, ~0ULL},
    {0, ~0ULL, ~0ULL, ~0ULL},
    {~0ULL, ~0ULL, ~0ULL, ~0ULL},
};

/// 32-bit variant for the _mm_maskload_epi32 of the degree row.
alignas(16) constexpr std::uint32_t kGroupMask32[16][4] = {
    {0, 0, 0, 0},
    {~0U, 0, 0, 0},
    {0, ~0U, 0, 0},
    {~0U, ~0U, 0, 0},
    {0, 0, ~0U, 0},
    {~0U, 0, ~0U, 0},
    {0, ~0U, ~0U, 0},
    {~0U, ~0U, ~0U, 0},
    {0, 0, 0, ~0U},
    {~0U, 0, 0, ~0U},
    {0, ~0U, 0, ~0U},
    {~0U, ~0U, 0, ~0U},
    {0, 0, ~0U, ~0U},
    {~0U, 0, ~0U, ~0U},
    {0, ~0U, ~0U, ~0U},
    {~0U, ~0U, ~0U, ~0U},
};

inline __m256i group_mask_si(unsigned nib) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kGroupMask64[nib]));
}
inline __m256d group_mask_pd(unsigned nib) {
  return _mm256_castsi256_pd(group_mask_si(nib));
}
inline __m128i group_mask_si32(unsigned nib) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(kGroupMask32[nib]));
}

}  // namespace

std::uint64_t sweep_avx2(const CompiledBatchCsr& compiled,
                         const SpmmWindowState& state, const double* x,
                         double* x_next, const double* base,
                         double one_minus_alpha,
                         std::uint64_t live_mask, double* diff,
                         std::size_t lo, std::size_t hi) {
  const std::size_t lanes = compiled.lanes;
  const std::uint32_t* deg = state.out_degree.data();
  const VertexId* nbr = compiled.nbr.data();
  const std::uint64_t* masks = compiled.mask.data();
  const __m256d omav = _mm256_set1_pd(one_minus_alpha);
  const __m256d signv = _mm256_set1_pd(-0.0);
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
            const std::size_t g = ctz64(m) >> 2;  // 4-lane group
            const unsigned nib = static_cast<unsigned>(m >> (g * 4)) & 0xFU;
            m &= ~(std::uint64_t{0xF} << (g * 4));
            const std::size_t base_lane = g * 4;
            const __m256i lane_si = group_mask_si(nib);
            const __m256d xv = _mm256_maskload_pd(xu + base_lane, lane_si);
            const __m128i dv32 = _mm_maskload_epi32(
                reinterpret_cast<const int*>(du + base_lane),
                group_mask_si32(nib));
            // Signed cvt (AVX2 has no unsigned u32->f64): requires
            // per-window degrees < 2^31, i.e. fewer than 2B events out of
            // one vertex inside one window.
            const __m256d dv = _mm256_cvtepi32_pd(dv32);
            __m256d accv = _mm256_loadu_pd(acc + base_lane);
            const __m256d contrib =
                _mm256_fmadd_pd(omav, _mm256_div_pd(xv, dv), accv);
            accv = _mm256_blendv_pd(accv, contrib,
                                    _mm256_castsi256_pd(lane_si));
            _mm256_storeu_pd(acc + base_lane, accv);
          }
        }
      }

      for (std::size_t k0 = 0; k0 < lanes; k0 += 4) {
        const unsigned a_nib = static_cast<unsigned>(v_active >> k0) & 0xFU;
        const unsigned l_nib = static_cast<unsigned>(live_mask >> k0) & 0xFU;
        const unsigned al_nib = a_nib & l_nib;
        const std::size_t rem = lanes - k0;
        const unsigned valid_nib = rem >= 4 ? 0xFU : ((1U << rem) - 1U);
        const __m256i valid_si = group_mask_si(valid_nib);
        const __m256d cur =
            _mm256_maskload_pd(x + v * lanes + k0, valid_si);
        const __m256d accv = _mm256_loadu_pd(acc + k0);
        // !active -> 0.0; active & frozen -> cur; active & live -> acc.
        __m256d next = _mm256_and_pd(cur, group_mask_pd(a_nib));
        next = _mm256_blendv_pd(next, accv, group_mask_pd(al_nib));
        _mm256_maskstore_pd(x_next + v * lanes + k0, valid_si, next);
        if (al_nib != 0) {
          const __m256d d =
              _mm256_andnot_pd(signv, _mm256_sub_pd(accv, cur));
          __m256d diffv = _mm256_maskload_pd(diff + k0, valid_si);
          diffv =
              _mm256_add_pd(diffv, _mm256_and_pd(d, group_mask_pd(al_nib)));
          _mm256_maskstore_pd(diff + k0, valid_si, diffv);
        }
      }
    }
  }
  return edges;
}

}  // namespace pmpr::detail
