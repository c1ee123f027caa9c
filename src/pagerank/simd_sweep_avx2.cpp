// AVX2 + FMA SpMM sweep: 4 lanes per vector op, one lane group per mask
// word nibble. Compiled with -mavx2 -mfma (see src/CMakeLists.txt) and
// only invoked after runtime dispatch confirmed CPU support
// (simd_dispatch.cpp).
//
// One instantiation per group count G = ceil(lanes / 4): the G lane
// accumulators, the per-lane base and the chunk's diff are locals for the
// whole row range (the compiler keeps what fits of them in ymm
// registers), and every entry runs a fixed `for g < G` loop that skips
// groups with no selected lane.
//
// Bit-identity with the scalar kernel: per-lane accumulators are
// independent, every multiply-add is a vfmadd (matching the scalar
// std::fma), and lanes not selected by a mask nibble are merged back
// untouched with blendv — so each lane sees exactly the scalar kernel's
// operation sequence. Masked-off lanes of a group may compute 0/0 inside
// the discarded div result; the blend throws those bits away.
#include <immintrin.h>

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "pagerank/simd_sweep.hpp"

namespace pmpr::detail {

namespace {

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
inline __m128i group_mask_si32(unsigned nib) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(kGroupMask32[nib]));
}

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
  const __m256d omav = _mm256_set1_pd(one_minus_alpha);
  const __m256d signv = _mm256_set1_pd(-0.0);
  // Lanes of group g that exist; only the last group can be partial.
  const std::size_t tail = lanes - (G - 1) * 4;
  const unsigned tail_nib = (1U << tail) - 1U;
  const auto valid = [&](std::size_t g) {
    return g + 1 < G ? 0xFU : tail_nib;
  };

  __m256d basev[G];
  __m256d diffv[G];
  for (std::size_t g = 0; g < G; ++g) {
    const __m256i valid_si = group_mask_si(valid(g));
    basev[g] = _mm256_maskload_pd(base + g * 4, valid_si);
    diffv[g] = _mm256_maskload_pd(diff + g * 4, valid_si);
  }

  std::uint64_t edges = 0;
  for (std::size_t r = lo; r < hi; ++r) {
    const VertexId v = rows[r];
    const std::uint64_t v_active = active[v];
    const std::uint64_t v_update = v_active & live_mask;
    __m256d acc[G];
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
          const unsigned nib = static_cast<unsigned>(m >> (g * 4)) & 0xFU;
          if (nib == 0) continue;
          const __m256i lane_si = group_mask_si(nib);
          const __m256d xv = _mm256_maskload_pd(xu + g * 4, lane_si);
          const __m128i dv32 = _mm_maskload_epi32(
              reinterpret_cast<const int*>(du + g * 4), group_mask_si32(nib));
          // Signed cvt (AVX2 has no unsigned u32->f64): requires
          // per-window degrees < 2^31, i.e. fewer than 2B events out of
          // one vertex inside one window.
          const __m256d dv = _mm256_cvtepi32_pd(dv32);
          const __m256d contrib =
              _mm256_fmadd_pd(omav, _mm256_div_pd(xv, dv), acc[g]);
          acc[g] = _mm256_blendv_pd(acc[g], contrib,
                                    _mm256_castsi256_pd(lane_si));
        }
      }
    }

    const double* cur_row = x + v * lanes;
    double* next_row = x_next + v * lanes;
    for (std::size_t g = 0; g < G; ++g) {
      const unsigned a_nib =
          static_cast<unsigned>(v_active >> (g * 4)) & valid(g);
      const unsigned al_nib =
          a_nib & static_cast<unsigned>(live_mask >> (g * 4));
      const __m256d live_pd = _mm256_castsi256_pd(group_mask_si(al_nib));
      // !active -> 0.0 (the maskload); active & frozen -> cur;
      // active & live -> acc.
      const __m256d cur = _mm256_maskload_pd(cur_row + g * 4,
                                             group_mask_si(a_nib));
      const __m256d next = _mm256_blendv_pd(cur, acc[g], live_pd);
      _mm256_maskstore_pd(next_row + g * 4, group_mask_si(valid(g)), next);
      const __m256d d = _mm256_andnot_pd(signv, _mm256_sub_pd(acc[g], cur));
      diffv[g] =
          _mm256_blendv_pd(diffv[g], _mm256_add_pd(diffv[g], d), live_pd);
    }
  }

  for (std::size_t g = 0; g < G; ++g) {
    _mm256_maskstore_pd(diff + g * 4, group_mask_si(valid(g)), diffv[g]);
  }
  return edges;
}

template <std::size_t... I>
constexpr std::array<SpmmSweepFn, sizeof...(I)> group_table(
    std::index_sequence<I...> /*unused*/) {
  return {&sweep_groups<I + 1>...};
}

/// sweep_groups<G> for G = 1..16, indexed by G - 1.
constexpr auto kSweepByGroups =
    group_table(std::make_index_sequence<kMaxSpmmLanes / 4>{});

}  // namespace

std::uint64_t sweep_avx2(const CompiledBatchCsr& compiled,
                         const SpmmWindowState& state, const double* x,
                         double* x_next, const double* base,
                         double one_minus_alpha,
                         std::uint64_t live_mask, double* diff,
                         std::size_t lo, std::size_t hi) {
  const std::size_t groups = (compiled.lanes + 3) / 4;
  assert(groups >= 1 && groups <= kSweepByGroups.size());
  return kSweepByGroups[groups - 1](compiled, state, x, x_next, base,
                                    one_minus_alpha, live_mask, diff, lo,
                                    hi);
}

}  // namespace pmpr::detail
