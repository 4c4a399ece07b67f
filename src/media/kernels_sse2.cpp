// SSE2 tier of the media kernel dispatch table (kernels_simd.hpp).
//
// SSE2 is the x86-64 baseline, so the shared scalar rows
// (kernels_rows.inc) compiled here are the same code the scalar tier
// runs. Hand-written 128-bit rows remain only for the box downscales and
// the fused downscale + blend, which beat that compiled twin by 1.3-1.9x
// (docs/PERF.md, "One-source rule"): widen u8 -> u16, do the exact
// fixed-point arithmetic in 16-bit lanes, pack back; ragged tails run
// the scalar row. The IDCT stays scalar — SSE2 lacks the 32-bit lane
// multiplies the exact AAN flowgraph needs (see kernels_avx2.cpp).
//
// Everything here is internal-linkage so no SSE2-encoded symbol can leak
// into another TU; this TU needs no special compile flags.
#include "media/kernels_simd.hpp"

#if defined(__SSE2__) || defined(_M_X64)

#include <emmintrin.h>

namespace media::detail {
namespace {

#include "media/kernels_rows.inc"

// Horizontal pair sums of 16 bytes as 8 u16 lanes (max 510).
inline __m128i pair_sums_u16(__m128i v) {
  const __m128i mask = _mm_set1_epi16(0x00ff);
  return _mm_add_epi16(_mm_and_si128(v, mask), _mm_srli_epi16(v, 8));
}

// Factor-2 box sums (a[2x]+a[2x+1]+b[2x]+b[2x+1]+2)>>2 for 8 outputs,
// left as u16 lanes so the fused blend variant can keep going.
inline __m128i down2_u16(const uint8_t* a, const uint8_t* b) {
  __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  __m128i sum = _mm_add_epi16(_mm_add_epi16(pair_sums_u16(va),
                                            pair_sums_u16(vb)),
                              _mm_set1_epi16(2));
  return _mm_srli_epi16(sum, 2);
}

void down2_row_sse2(const uint8_t* a, const uint8_t* b, uint8_t* out,
                    int n) {
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    __m128i v0 = down2_u16(a + 2 * x, b + 2 * x);
    __m128i v1 = down2_u16(a + 2 * x + 16, b + 2 * x + 16);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                     _mm_packus_epi16(v0, v1));
  }
  down2_row(a + 2 * x, b + 2 * x, out + x, n - x);
}

// Sums of 4 consecutive bytes per int32 lane for one source row.
inline __m128i quad_sums_i32(const uint8_t* r) {
  __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r));
  return _mm_madd_epi16(pair_sums_u16(v), _mm_set1_epi16(1));
}

void down4_row_sse2(const uint8_t* r0, const uint8_t* r1, const uint8_t* r2,
                    const uint8_t* r3, uint8_t* out, int n) {
  int x = 0;
  for (; x + 8 <= n; x += 8) {
    __m128i t0 = _mm_add_epi32(
        _mm_add_epi32(quad_sums_i32(r0 + 4 * x), quad_sums_i32(r1 + 4 * x)),
        _mm_add_epi32(quad_sums_i32(r2 + 4 * x), quad_sums_i32(r3 + 4 * x)));
    __m128i t1 = _mm_add_epi32(
        _mm_add_epi32(quad_sums_i32(r0 + 4 * x + 16),
                      quad_sums_i32(r1 + 4 * x + 16)),
        _mm_add_epi32(quad_sums_i32(r2 + 4 * x + 16),
                      quad_sums_i32(r3 + 4 * x + 16)));
    const __m128i rnd = _mm_set1_epi32(8);
    t0 = _mm_srli_epi32(_mm_add_epi32(t0, rnd), 4);
    t1 = _mm_srli_epi32(_mm_add_epi32(t1, rnd), 4);
    __m128i packed = _mm_packus_epi16(_mm_packs_epi32(t0, t1),
                                      _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + x), packed);
  }
  down4_row(r0 + 4 * x, r1 + 4 * x, r2 + 4 * x, r3 + 4 * x, out + x, n - x);
}

// (v*alpha + d*(256-alpha) + 128) >> 8 on u16 lanes (max 65408, no wrap).
inline __m128i mix_u16(__m128i v, __m128i d, __m128i va, __m128i vb) {
  __m128i acc = _mm_add_epi16(
      _mm_add_epi16(_mm_mullo_epi16(v, va), _mm_mullo_epi16(d, vb)),
      _mm_set1_epi16(128));
  return _mm_srli_epi16(acc, 8);
}

void down2_blend_row_sse2(const uint8_t* a, const uint8_t* b, uint8_t* dst,
                          int n, int alpha256) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i va = _mm_set1_epi16(static_cast<short>(alpha256));
  const __m128i vb = _mm_set1_epi16(static_cast<short>(256 - alpha256));
  int x = 0;
  for (; x + 16 <= n; x += 16) {
    __m128i v0 = down2_u16(a + 2 * x, b + 2 * x);
    __m128i v1 = down2_u16(a + 2 * x + 16, b + 2 * x + 16);
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + x));
    __m128i lo = mix_u16(v0, _mm_unpacklo_epi8(d, zero), va, vb);
    __m128i hi = mix_u16(v1, _mm_unpackhi_epi8(d, zero), va, vb);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + x),
                     _mm_packus_epi16(lo, hi));
  }
  down2_blend_row(a + 2 * x, b + 2 * x, dst + x, n - x, alpha256);
}

const KernelOps kSse2Ops = {
    KernelDispatch::kSse2,
    "sse2",
    &blur_h3_row,
    &blur_h5_row,
    &blur_v3_row,
    &blur_v5_row,
    &down2_row_sse2,
    &down4_row_sse2,
    &blend_row,
    &down2_blend_row_sse2,
    &idct8x8_scalar,  // exact AAN needs 32-bit lane multiplies; see AVX2
};

}  // namespace

const KernelOps* sse2_ops() { return &kSse2Ops; }

}  // namespace media::detail

#else  // !__SSE2__

namespace media::detail {
const KernelOps* sse2_ops() { return nullptr; }
}  // namespace media::detail

#endif
