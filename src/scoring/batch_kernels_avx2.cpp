// Explicit AVX2/FMA kernel for the batched scoring engine.
//
// This TU is the only one compiled with -mavx2 -mfma (when METADOCK_SIMD is
// ON and the target is x86-64); everything else in the library stays at the
// baseline ISA, and batch_engine.cpp picks this kernel at runtime via
// cpuid.  Without METADOCK_SIMD the stub at the bottom keeps the symbol
// defined so no build configuration needs link-time surgery.
//
// Per (pose, ligand atom, tile): one straight loop walks the lane-padded
// tile 8 receptor slots per iteration (unit stride, unaligned loads) and
// evaluates the canonical pair order of DESIGN.md §10 in 8 float lanes:
// lane k accumulates slots i with i mod 8 = k, one true IEEE divide per
// pair, and every fused multiply-add spelled as an intrinsic.  The build
// adds -ffp-contract=off, so the compiler fuses nothing the source does
// not name and the portable scalar kernel (batch_engine.cpp) reproduces
// these bits exactly.  Tiles are padded to a multiple of 8 with A = B = 0,
// so there is no scalar tail and padding lanes add exactly 0.
//
// The cutoff flag is hoisted out of the hot loop via a template parameter:
// the common full-pair-sum case (no cutoff) runs with zero per-iteration
// branching or masking.
#include "scoring/batch_engine.h"

#if defined(METADOCK_SIMD_AVX2)

#include <immintrin.h>

namespace metadock::scoring {

bool simd_kernel_compiled() noexcept { return true; }

namespace detail {

namespace {

/// Sum of one 8-lane float accumulator, in the tree of DESIGN.md §10:
/// ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)), widened to double.
inline double hsum(__m256 v) noexcept {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return static_cast<double>(_mm_cvtss_f32(s));
}

template <bool kCutoff>
void score_block_tile(const BlockKernelArgs& a) {
  const __m256 vmin_r2 = _mm256_set1_ps(kMinR2);
  const __m256 vcut2 = _mm256_set1_ps(a.cutoff2);
  const __m256 vone = _mm256_set1_ps(1.0f);

  for (std::size_t p = 0; p < a.n_poses; ++p) {
    const float* lx = a.lx + p * a.lig_n;
    const float* ly = a.ly + p * a.lig_n;
    const float* lz = a.lz + p * a.lig_n;
    double energy = 0.0;
    for (std::size_t j = 0; j < a.lig_n; ++j) {
      const __m256 vpx = _mm256_set1_ps(lx[j]);
      const __m256 vpy = _mm256_set1_ps(ly[j]);
      const __m256 vpz = _mm256_set1_ps(lz[j]);
      const float* ca = a.ra + a.column[j];
      const float* cb = a.rb + a.column[j];
      __m256 vsum = _mm256_setzero_ps();
      for (std::size_t i = 0; i < a.n; i += kLanes) {
        const __m256 dx = _mm256_sub_ps(_mm256_loadu_ps(a.rx + i), vpx);
        const __m256 dy = _mm256_sub_ps(_mm256_loadu_ps(a.ry + i), vpy);
        const __m256 dz = _mm256_sub_ps(_mm256_loadu_ps(a.rz + i), vpz);
        __m256 r2 = _mm256_fmadd_ps(dz, dz, _mm256_fmadd_ps(dy, dy, _mm256_mul_ps(dx, dx)));
        r2 = _mm256_max_ps(r2, vmin_r2);
        const __m256 inv2 = _mm256_div_ps(vone, r2);
        const __m256 inv6 = _mm256_mul_ps(_mm256_mul_ps(inv2, inv2), inv2);
        const __m256 lj =
            _mm256_fmsub_ps(_mm256_loadu_ps(ca + i), inv6, _mm256_loadu_ps(cb + i));
        if constexpr (kCutoff) {
          const __m256 pair = _mm256_mul_ps(lj, inv6);
          vsum = _mm256_add_ps(vsum, _mm256_and_ps(pair, _mm256_cmp_ps(r2, vcut2, _CMP_LE_OQ)));
        } else {
          vsum = _mm256_fmadd_ps(lj, inv6, vsum);
        }
      }
      energy += hsum(vsum);
    }
    a.energy[p] += energy;
  }
}

}  // namespace

void score_block_tile_avx2(const BlockKernelArgs& a) {
  a.cutoff2 > 0.0f ? score_block_tile<true>(a) : score_block_tile<false>(a);
}

}  // namespace detail
}  // namespace metadock::scoring

#else  // !METADOCK_SIMD_AVX2

#include <cstdlib>

namespace metadock::scoring {

bool simd_kernel_compiled() noexcept { return false; }

namespace detail {

void score_block_tile_avx2(const BlockKernelArgs&) {
  // Unreachable: BatchScoringEngine refuses kAvx2 when !simd_kernel_compiled().
  std::abort();
}

}  // namespace detail
}  // namespace metadock::scoring

#endif  // METADOCK_SIMD_AVX2
