// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): the kernels' arithmetic must not be fused into
// FMAs under TRANSER_NATIVE_ARCH, or their results would depend on the
// build flags and break the determinism contract in kernels.h.
#include "linalg/kernels.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif

// Explicit-SIMD paths light up when the TU is compiled for a target
// with AVX2 (the TRANSER_NATIVE_ARCH build on any modern x86). The
// mapping to the determinism contract is exact: one __m256d accumulator
// IS the four scalar lanes — vector lane l accumulates the elements
// with i mod 4 == l — and the mul/add stay separate instructions (the
// intrinsics never contract to FMA), so every SIMD kernel returns the
// same bits as the scalar fixed-order path, which remains the reference
// that SelfCheck() compares against at runtime.
#if defined(__AVX2__)
#define TRANSER_KERNELS_AVX2 1
#include <immintrin.h>
#else
#define TRANSER_KERNELS_AVX2 0
#endif

// 8-wide element-wise bodies (no reductions cross this guard: the
// 4-lane accumulation convention is pinned to 256-bit vectors).
#if defined(__AVX512F__)
#define TRANSER_KERNELS_AVX512 1
#else
#define TRANSER_KERNELS_AVX512 0
#endif

namespace transer {
namespace kernels {

namespace {

/// The canonical lane combine: (acc0+acc1)+(acc2+acc3).
inline double Combine4(double a0, double a1, double a2, double a3) {
  return (a0 + a1) + (a2 + a3);
}

#if TRANSER_KERNELS_AVX2

/// Drains one 4-lane vector accumulator: adds the scalar tail
/// (elements [i, n), which land on lanes 0..2 because i is a multiple
/// of 4) onto the matching lanes, then applies the canonical combine.
inline double FinishDot(__m256d acc, const double* a, const double* b,
                        size_t i, size_t n) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  if (i < n) lane[0] += a[i] * b[i];
  if (i + 1 < n) lane[1] += a[i + 1] * b[i + 1];
  if (i + 2 < n) lane[2] += a[i + 2] * b[i + 2];
  return Combine4(lane[0], lane[1], lane[2], lane[3]);
}

inline double DotImpl(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  return FinishDot(acc, a, b, i, n);
}

inline double SquaredL2Impl(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  if (i < n) {
    const double d = a[i] - b[i];
    lane[0] += d * d;
  }
  if (i + 1 < n) {
    const double d = a[i + 1] - b[i + 1];
    lane[1] += d * d;
  }
  if (i + 2 < n) {
    const double d = a[i + 2] - b[i + 2];
    lane[2] += d * d;
  }
  return Combine4(lane[0], lane[1], lane[2], lane[3]);
}

#else  // !TRANSER_KERNELS_AVX2

/// Four-lane dot product: element i feeds accumulator i mod 4. Every
/// public reduction funnels through this one inline so all call sites —
/// Dot, SquaredNorm, the pairwise tiles, the gather kernel — produce the
/// same bits for the same rows.
inline double DotImpl(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  // i is a multiple of 4, so element i+j still lands on lane j.
  if (i < n) acc0 += a[i] * b[i];
  if (i + 1 < n) acc1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) acc2 += a[i + 2] * b[i + 2];
  return Combine4(acc0, acc1, acc2, acc3);
}

inline double SquaredL2Impl(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  if (i < n) {
    const double d = a[i] - b[i];
    acc0 += d * d;
  }
  if (i + 1 < n) {
    const double d = a[i + 1] - b[i + 1];
    acc1 += d * d;
  }
  if (i + 2 < n) {
    const double d = a[i + 2] - b[i + 2];
    acc2 += d * d;
  }
  return Combine4(acc0, acc1, acc2, acc3);
}

#endif  // TRANSER_KERNELS_AVX2

/// The decomposed pair distance. (a_norm + b_norm) - 2*dot is evaluated
/// in exactly this order so that identical rows — whose norms and dot
/// are the same double — give exactly 0. The clamp absorbs small
/// negative cancellation residues; NaN < 0.0 is false, so NaN inputs
/// propagate.
inline double PairDistSq(double a_norm, double b_norm, double dot) {
  const double d = (a_norm + b_norm) - 2.0 * dot;
  return d < 0.0 ? 0.0 : d;
}

/// Cache tile shape of the pairwise kernel: kTileA query rows are swept
/// against kTileB point rows while both stay resident in L1. Tile
/// boundaries never affect values — each entry is a full-width DotImpl.
constexpr size_t kTileA = 8;
constexpr size_t kTileB = 64;

#if TRANSER_KERNELS_AVX2

/// Transpose-reduce of four 4-lane accumulators into one vector of
/// Combine4 results. unpacklo/unpackhi add lane pairs (l0+l1, l2+l3)
/// per accumulator, the cross-128 permutes line the four accumulators
/// up one per lane, and the final add applies (l0+l1)+(l2+l3) — the
/// canonical combine, association preserved exactly, with no scalar
/// stores. Only valid when every accumulator is fully drained (no
/// scalar tail), i.e. dims % 4 == 0.
inline __m256d Combine4x4(__m256d a, __m256d b, __m256d c, __m256d d) {
  const __m256d s_ab =
      _mm256_add_pd(_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
  const __m256d s_cd =
      _mm256_add_pd(_mm256_unpacklo_pd(c, d), _mm256_unpackhi_pd(c, d));
  const __m256d lo = _mm256_permute2f128_pd(s_ab, s_cd, 0x20);
  const __m256d hi = _mm256_permute2f128_pd(s_ab, s_cd, 0x31);
  return _mm256_add_pd(lo, hi);
}

/// Four PairDistSq at once: (na + nb) - (dot + dot), clamped to zero
/// exactly like the scalar form (dot+dot == 2.0*dot bit-for-bit; the
/// compare-mask clamp keeps NaN and -0.0 behaviour identical).
inline __m256d PairDistSq4(__m256d a_norm, __m256d b_norms, __m256d dots) {
  const __m256d d = _mm256_sub_pd(_mm256_add_pd(a_norm, b_norms),
                                  _mm256_add_pd(dots, dots));
  const __m256d negative = _mm256_cmp_pd(d, _mm256_setzero_pd(), _CMP_LT_OQ);
  return _mm256_andnot_pd(negative, d);
}

/// Register-blocked pairwise inner tile: 2 query rows × 4 point rows in
/// flight, each of the 8 (i, j) pairs owning one 4-lane vector
/// accumulator. The 8 independent add chains are what beat the
/// latency-bound single chain of a plain dot loop — every accumulator
/// is drained exactly like DotImpl's, so each output entry is
/// bit-identical to the one-pair-at-a-time path.
inline void PairwiseTileAvx2(const double* a, size_t i0, size_t i1,
                             const double* b, size_t j0, size_t j1,
                             const double* a_norms, const double* b_norms,
                             size_t dims, size_t b_rows, double* out) {
  size_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    const double* ai0 = a + i * dims;
    const double* ai1 = a + (i + 1) * dims;
    double* out0 = out + i * b_rows;
    double* out1 = out + (i + 1) * b_rows;
    size_t j = j0;
    for (; j + 4 <= j1; j += 4) {
      const double* bj0 = b + j * dims;
      const double* bj1 = b + (j + 1) * dims;
      const double* bj2 = b + (j + 2) * dims;
      const double* bj3 = b + (j + 3) * dims;
      __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
      __m256d c02 = _mm256_setzero_pd(), c03 = _mm256_setzero_pd();
      __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
      __m256d c12 = _mm256_setzero_pd(), c13 = _mm256_setzero_pd();
      size_t t = 0;
      const size_t t4 = dims & ~size_t{3};
      // Two 4-element steps per iteration: both feed the same
      // accumulators in element order (t before t+4), so the chains are
      // exactly DotImpl's — the unroll only widens the load window.
      const size_t t8 = dims & ~size_t{7};
      for (; t < t8; t += 8) {
        const __m256d va0 = _mm256_loadu_pd(ai0 + t);
        const __m256d va1 = _mm256_loadu_pd(ai1 + t);
        const __m256d vb0 = _mm256_loadu_pd(bj0 + t);
        const __m256d vb1 = _mm256_loadu_pd(bj1 + t);
        const __m256d vb2 = _mm256_loadu_pd(bj2 + t);
        const __m256d vb3 = _mm256_loadu_pd(bj3 + t);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(va0, vb0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(va0, vb1));
        c02 = _mm256_add_pd(c02, _mm256_mul_pd(va0, vb2));
        c03 = _mm256_add_pd(c03, _mm256_mul_pd(va0, vb3));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(va1, vb0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(va1, vb1));
        c12 = _mm256_add_pd(c12, _mm256_mul_pd(va1, vb2));
        c13 = _mm256_add_pd(c13, _mm256_mul_pd(va1, vb3));
        const __m256d wa0 = _mm256_loadu_pd(ai0 + t + 4);
        const __m256d wa1 = _mm256_loadu_pd(ai1 + t + 4);
        const __m256d wb0 = _mm256_loadu_pd(bj0 + t + 4);
        const __m256d wb1 = _mm256_loadu_pd(bj1 + t + 4);
        const __m256d wb2 = _mm256_loadu_pd(bj2 + t + 4);
        const __m256d wb3 = _mm256_loadu_pd(bj3 + t + 4);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(wa0, wb0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(wa0, wb1));
        c02 = _mm256_add_pd(c02, _mm256_mul_pd(wa0, wb2));
        c03 = _mm256_add_pd(c03, _mm256_mul_pd(wa0, wb3));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(wa1, wb0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(wa1, wb1));
        c12 = _mm256_add_pd(c12, _mm256_mul_pd(wa1, wb2));
        c13 = _mm256_add_pd(c13, _mm256_mul_pd(wa1, wb3));
      }
      for (; t < t4; t += 4) {
        const __m256d va0 = _mm256_loadu_pd(ai0 + t);
        const __m256d va1 = _mm256_loadu_pd(ai1 + t);
        const __m256d vb0 = _mm256_loadu_pd(bj0 + t);
        const __m256d vb1 = _mm256_loadu_pd(bj1 + t);
        const __m256d vb2 = _mm256_loadu_pd(bj2 + t);
        const __m256d vb3 = _mm256_loadu_pd(bj3 + t);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(va0, vb0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(va0, vb1));
        c02 = _mm256_add_pd(c02, _mm256_mul_pd(va0, vb2));
        c03 = _mm256_add_pd(c03, _mm256_mul_pd(va0, vb3));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(va1, vb0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(va1, vb1));
        c12 = _mm256_add_pd(c12, _mm256_mul_pd(va1, vb2));
        c13 = _mm256_add_pd(c13, _mm256_mul_pd(va1, vb3));
      }
      if (t == dims) {
        // Fully drained accumulators: all-vector finish, no stores.
        const __m256d nb = _mm256_loadu_pd(b_norms + j);
        _mm256_storeu_pd(
            out0 + j,
            PairDistSq4(_mm256_set1_pd(a_norms[i]), nb,
                        Combine4x4(c00, c01, c02, c03)));
        _mm256_storeu_pd(
            out1 + j,
            PairDistSq4(_mm256_set1_pd(a_norms[i + 1]), nb,
                        Combine4x4(c10, c11, c12, c13)));
      } else {
        out0[j] = PairDistSq(a_norms[i], b_norms[j],
                             FinishDot(c00, ai0, bj0, t, dims));
        out0[j + 1] = PairDistSq(a_norms[i], b_norms[j + 1],
                                 FinishDot(c01, ai0, bj1, t, dims));
        out0[j + 2] = PairDistSq(a_norms[i], b_norms[j + 2],
                                 FinishDot(c02, ai0, bj2, t, dims));
        out0[j + 3] = PairDistSq(a_norms[i], b_norms[j + 3],
                                 FinishDot(c03, ai0, bj3, t, dims));
        out1[j] = PairDistSq(a_norms[i + 1], b_norms[j],
                             FinishDot(c10, ai1, bj0, t, dims));
        out1[j + 1] = PairDistSq(a_norms[i + 1], b_norms[j + 1],
                                 FinishDot(c11, ai1, bj1, t, dims));
        out1[j + 2] = PairDistSq(a_norms[i + 1], b_norms[j + 2],
                                 FinishDot(c12, ai1, bj2, t, dims));
        out1[j + 3] = PairDistSq(a_norms[i + 1], b_norms[j + 3],
                                 FinishDot(c13, ai1, bj3, t, dims));
      }
    }
    for (; j < j1; ++j) {
      const double* bj = b + j * dims;
      out0[j] = PairDistSq(a_norms[i], b_norms[j], DotImpl(ai0, bj, dims));
      out1[j] =
          PairDistSq(a_norms[i + 1], b_norms[j], DotImpl(ai1, bj, dims));
    }
  }
  for (; i < i1; ++i) {
    const double* ai = a + i * dims;
    double* out_row = out + i * b_rows;
    for (size_t j = j0; j < j1; ++j) {
      out_row[j] =
          PairDistSq(a_norms[i], b_norms[j], DotImpl(ai, b + j * dims, dims));
    }
  }
}

#endif  // TRANSER_KERNELS_AVX2

}  // namespace

double Dot(std::span<const double> a, std::span<const double> b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  return DotImpl(a.data(), b.data(), a.size());
}

double SquaredL2(std::span<const double> a, std::span<const double> b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  return SquaredL2Impl(a.data(), b.data(), a.size());
}

double SquaredNorm(std::span<const double> v) {
  return DotImpl(v.data(), v.data(), v.size());
}

// The element-wise kernels below are plain loops in the portable build
// (each output element is an independent expression — no accumulation,
// so no ordering contract to preserve; a hand-unrolled scalar loop was
// measurably *slower* than the naive one: 33.3 vs 28.7 ns/op for
// axpy.d128). Under AVX2 they get explicit 4-wide bodies: this TU
// builds with contraction off, so without intrinsics the loops stay
// scalar mul+add and lose to FMA-contracted caller code; the vector
// form computes each element with the same separate mul and add and
// remains bit-identical to the scalar path.

void Axpy(double s, std::span<const double> x, std::span<double> y) {
  TRANSER_CHECK_EQ(x.size(), y.size());
  const double* xp = x.data();
  double* yp = y.data();
  const size_t n = x.size();
  size_t i = 0;
#if TRANSER_KERNELS_AVX512
  const __m512d ws = _mm512_set1_pd(s);
  for (; i + 8 <= n; i += 8) {
    const __m512d prod = _mm512_mul_pd(ws, _mm512_loadu_pd(xp + i));
    _mm512_storeu_pd(yp + i, _mm512_add_pd(_mm512_loadu_pd(yp + i), prod));
  }
#endif
#if TRANSER_KERNELS_AVX2
  const __m256d vs = _mm256_set1_pd(s);
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(vs, _mm256_loadu_pd(xp + i));
    _mm256_storeu_pd(yp + i, _mm256_add_pd(_mm256_loadu_pd(yp + i), prod));
  }
#endif
  for (; i < n; ++i) yp[i] += s * xp[i];
}

void Fma(std::span<const double> a, std::span<const double> b,
         std::span<double> out) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  TRANSER_CHECK_EQ(a.size(), out.size());
  const double* ap = a.data();
  const double* bp = b.data();
  double* op = out.data();
  const size_t n = a.size();
  size_t i = 0;
#if TRANSER_KERNELS_AVX512
  for (; i + 8 <= n; i += 8) {
    const __m512d prod =
        _mm512_mul_pd(_mm512_loadu_pd(ap + i), _mm512_loadu_pd(bp + i));
    _mm512_storeu_pd(op + i, _mm512_add_pd(_mm512_loadu_pd(op + i), prod));
  }
#endif
#if TRANSER_KERNELS_AVX2
  for (; i + 4 <= n; i += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(ap + i), _mm256_loadu_pd(bp + i));
    _mm256_storeu_pd(op + i, _mm256_add_pd(_mm256_loadu_pd(op + i), prod));
  }
#endif
  for (; i < n; ++i) op[i] += ap[i] * bp[i];
}

void ScaleInPlace(std::span<double> v, double s) {
  double* p = v.data();
  const size_t n = v.size();
  size_t i = 0;
#if TRANSER_KERNELS_AVX512
  const __m512d ws = _mm512_set1_pd(s);
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(p + i, _mm512_mul_pd(_mm512_loadu_pd(p + i), ws));
  }
#endif
#if TRANSER_KERNELS_AVX2
  const __m256d vs = _mm256_set1_pd(s);
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(p + i, _mm256_mul_pd(_mm256_loadu_pd(p + i), vs));
  }
#endif
  for (; i < n; ++i) p[i] *= s;
}

void AddInPlace(std::span<double> a, std::span<const double> b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  double* ap = a.data();
  const double* bp = b.data();
  const size_t n = a.size();
  size_t i = 0;
#if TRANSER_KERNELS_AVX512
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        ap + i, _mm512_add_pd(_mm512_loadu_pd(ap + i),
                              _mm512_loadu_pd(bp + i)));
  }
#endif
#if TRANSER_KERNELS_AVX2
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        ap + i, _mm256_add_pd(_mm256_loadu_pd(ap + i),
                              _mm256_loadu_pd(bp + i)));
  }
#endif
  for (; i < n; ++i) ap[i] += bp[i];
}

void SquaredNorms(const double* rows, size_t n, size_t dims, double* out) {
  for (size_t r = 0; r < n; ++r) {
    const double* row = rows + r * dims;
    out[r] = DotImpl(row, row, dims);
  }
}

double PairSquaredL2(std::span<const double> a, double a_norm,
                     std::span<const double> b, double b_norm) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  return PairDistSq(a_norm, b_norm, DotImpl(a.data(), b.data(), a.size()));
}

void PairwiseSquaredL2(const double* a, size_t a_rows, const double* a_norms,
                       const double* b, size_t b_rows, const double* b_norms,
                       size_t dims, double* out) {
  for (size_t i0 = 0; i0 < a_rows; i0 += kTileA) {
    const size_t i1 = i0 + kTileA < a_rows ? i0 + kTileA : a_rows;
    for (size_t j0 = 0; j0 < b_rows; j0 += kTileB) {
      const size_t j1 = j0 + kTileB < b_rows ? j0 + kTileB : b_rows;
#if TRANSER_KERNELS_AVX2
      PairwiseTileAvx2(a, i0, i1, b, j0, j1, a_norms, b_norms, dims, b_rows,
                       out);
#else
      for (size_t i = i0; i < i1; ++i) {
        const double* ai = a + i * dims;
        const double ni = a_norms[i];
        double* out_row = out + i * b_rows;
        for (size_t j = j0; j < j1; ++j) {
          out_row[j] =
              PairDistSq(ni, b_norms[j], DotImpl(ai, b + j * dims, dims));
        }
      }
#endif
    }
  }
}

void SquaredL2Gather(std::span<const double> query, double query_norm,
                     const double* base, size_t dims,
                     std::span<const size_t> rows, const double* norms,
                     double* out) {
  TRANSER_CHECK_EQ(query.size(), dims);
  const double* q = query.data();
  size_t r = 0;
#if TRANSER_KERNELS_AVX2
  // Four gathered rows in flight, sharing each query load: four
  // independent accumulator chains (drained exactly like DotImpl's)
  // instead of one latency-bound chain per row.
  for (; r + 4 <= rows.size(); r += 4) {
    const double* p0 = base + rows[r] * dims;
    const double* p1 = base + rows[r + 1] * dims;
    const double* p2 = base + rows[r + 2] * dims;
    const double* p3 = base + rows[r + 3] * dims;
    __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
    __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
    size_t t = 0;
    const size_t t4 = dims & ~size_t{3};
    for (; t < t4; t += 4) {
      const __m256d vq = _mm256_loadu_pd(q + t);
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(vq, _mm256_loadu_pd(p0 + t)));
      c1 = _mm256_add_pd(c1, _mm256_mul_pd(vq, _mm256_loadu_pd(p1 + t)));
      c2 = _mm256_add_pd(c2, _mm256_mul_pd(vq, _mm256_loadu_pd(p2 + t)));
      c3 = _mm256_add_pd(c3, _mm256_mul_pd(vq, _mm256_loadu_pd(p3 + t)));
    }
    out[r] = PairDistSq(query_norm, norms[rows[r]],
                        FinishDot(c0, q, p0, t, dims));
    out[r + 1] = PairDistSq(query_norm, norms[rows[r + 1]],
                            FinishDot(c1, q, p1, t, dims));
    out[r + 2] = PairDistSq(query_norm, norms[rows[r + 2]],
                            FinishDot(c2, q, p2, t, dims));
    out[r + 3] = PairDistSq(query_norm, norms[rows[r + 3]],
                            FinishDot(c3, q, p3, t, dims));
  }
#endif
  for (; r < rows.size(); ++r) {
    const size_t row = rows[r];
    out[r] = PairDistSq(query_norm, norms[row],
                        DotImpl(q, base + row * dims, dims));
  }
}

namespace ref {

double Dot(std::span<const double> a, std::span<const double> b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < a.size(); ++i) acc[i % 4] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SquaredL2(std::span<const double> a, std::span<const double> b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc[i % 4] += d * d;
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SquaredNorm(std::span<const double> v) { return Dot(v, v); }

void Axpy(double s, std::span<const double> x, std::span<double> y) {
  TRANSER_CHECK_EQ(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += s * x[i];
}

void Fma(std::span<const double> a, std::span<const double> b,
         std::span<double> out) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  TRANSER_CHECK_EQ(a.size(), out.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] += a[i] * b[i];
}

void ScaleInPlace(std::span<double> v, double s) {
  for (size_t i = 0; i < v.size(); ++i) v[i] *= s;
}

void AddInPlace(std::span<double> a, std::span<const double> b) {
  TRANSER_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void PairwiseSquaredL2(const double* a, size_t a_rows, const double* a_norms,
                       const double* b, size_t b_rows, const double* b_norms,
                       size_t dims, double* out) {
  for (size_t i = 0; i < a_rows; ++i) {
    for (size_t j = 0; j < b_rows; ++j) {
      const double dot = Dot(std::span<const double>(a + i * dims, dims),
                             std::span<const double>(b + j * dims, dims));
      const double d = (a_norms[i] + b_norms[j]) - 2.0 * dot;
      out[i * b_rows + j] = d < 0.0 ? 0.0 : d;
    }
  }
}

}  // namespace ref

namespace {

/// xorshift-based deterministic fill for the self-check battery (no
/// dependency on util/random, which may itself evolve).
void FillDeterministic(double* p, size_t n, uint64_t seed) {
  uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    // Values in roughly [-1, 1] with full mantissa entropy.
    p[i] = static_cast<double>(static_cast<int64_t>(s >> 11)) / (1ull << 52);
  }
}

bool BitsEqual(double a, double b) {
  // Bit comparison, so NaN == NaN and -0.0 != +0.0 are judged exactly.
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool CompiledWithAvx2() { return TRANSER_KERNELS_AVX2 == 1; }

Status SelfCheck() {
  // Sizes 0..67 cover every remainder of the 4-lane unroll plus the tile
  // edges of the pairwise kernel; the +1/+2/+3 sub-span offsets exercise
  // misaligned starts.
  std::vector<double> xs(96), ys(96), scratch_a(96), scratch_b(96);
  for (size_t n = 0; n <= 67; ++n) {
    for (size_t offset = 0; offset < 4; ++offset) {
      FillDeterministic(xs.data(), n + offset, 1000 + n);
      FillDeterministic(ys.data(), n + offset, 2000 + n);
      const std::span<const double> a(xs.data() + offset, n);
      const std::span<const double> b(ys.data() + offset, n);
      if (!BitsEqual(Dot(a, b), ref::Dot(a, b))) {
        return Status::InvalidArgument(
            StrFormat("kernel Dot diverges from reference at n=%zu off=%zu",
                      n, offset));
      }
      if (!BitsEqual(SquaredL2(a, b), ref::SquaredL2(a, b))) {
        return Status::InvalidArgument(StrFormat(
            "kernel SquaredL2 diverges from reference at n=%zu off=%zu", n,
            offset));
      }
      if (!BitsEqual(SquaredNorm(a), ref::SquaredNorm(a))) {
        return Status::InvalidArgument(StrFormat(
            "kernel SquaredNorm diverges from reference at n=%zu off=%zu", n,
            offset));
      }
      scratch_a.assign(xs.begin(), xs.end());
      scratch_b.assign(xs.begin(), xs.end());
      Axpy(0.37, b, std::span<double>(scratch_a.data() + offset, n));
      ref::Axpy(0.37, b, std::span<double>(scratch_b.data() + offset, n));
      for (size_t i = 0; i < n + offset; ++i) {
        if (!BitsEqual(scratch_a[i], scratch_b[i])) {
          return Status::InvalidArgument(StrFormat(
              "kernel Axpy diverges from reference at n=%zu off=%zu", n,
              offset));
        }
      }
      scratch_a.assign(ys.begin(), ys.end());
      scratch_b.assign(ys.begin(), ys.end());
      Fma(a, b, std::span<double>(scratch_a.data() + offset, n));
      ref::Fma(a, b, std::span<double>(scratch_b.data() + offset, n));
      for (size_t i = 0; i < n + offset; ++i) {
        if (!BitsEqual(scratch_a[i], scratch_b[i])) {
          return Status::InvalidArgument(StrFormat(
              "kernel Fma diverges from reference at n=%zu off=%zu", n,
              offset));
        }
      }
    }
  }

  // Pairwise tile shapes straddling both tile dimensions.
  for (const auto [a_rows, b_rows, dims] :
       {std::array<size_t, 3>{1, 1, 1}, std::array<size_t, 3>{3, 5, 7},
        std::array<size_t, 3>{9, 65, 4}, std::array<size_t, 3>{17, 130, 11}}) {
    std::vector<double> a(a_rows * dims), b(b_rows * dims);
    FillDeterministic(a.data(), a.size(), 31 * a_rows + dims);
    FillDeterministic(b.data(), b.size(), 57 * b_rows + dims);
    std::vector<double> a_norms(a_rows), b_norms(b_rows);
    SquaredNorms(a.data(), a_rows, dims, a_norms.data());
    SquaredNorms(b.data(), b_rows, dims, b_norms.data());
    std::vector<double> tiled(a_rows * b_rows), naive(a_rows * b_rows);
    PairwiseSquaredL2(a.data(), a_rows, a_norms.data(), b.data(), b_rows,
                      b_norms.data(), dims, tiled.data());
    ref::PairwiseSquaredL2(a.data(), a_rows, a_norms.data(), b.data(), b_rows,
                           b_norms.data(), dims, naive.data());
    for (size_t i = 0; i < tiled.size(); ++i) {
      if (!BitsEqual(tiled[i], naive[i])) {
        return Status::InvalidArgument(StrFormat(
            "tiled PairwiseSquaredL2 diverges from reference at "
            "%zux%zu d=%zu entry %zu",
            a_rows, b_rows, dims, i));
      }
    }
  }
  return Status::OK();
}

}  // namespace kernels
}  // namespace transer
