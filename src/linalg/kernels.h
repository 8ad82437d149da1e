#ifndef TRANSER_LINALG_KERNELS_H_
#define TRANSER_LINALG_KERNELS_H_

#include <cstddef>
#include <span>

#include "util/status.h"

namespace transer {
namespace kernels {

/// \brief Low-level numeric kernels behind every hot loop: attribute
/// comparison, k-NN neighbourhood search, and classifier training.
///
/// Design rules (DESIGN.md §9):
///  - **Non-allocating.** Every kernel works on caller-provided spans /
///    buffers; none touches the heap.
///  - **Deterministic by value.** A kernel's result depends only on the
///    input values — never on alignment, tile boundaries, thread count,
///    or build flags. The accumulation order is part of the contract:
///    reductions run four interleaved partial accumulators (element i
///    feeds accumulator i mod 4) combined as (acc0+acc1)+(acc2+acc3).
///    The scalar reference implementations in `kernels::ref` spell out
///    exactly that order in naive code; `SelfCheck()` verifies the
///    optimised kernels against them bit for bit at runtime.
///  - **Contraction-proof.** kernels.cc is compiled with
///    -ffp-contract=off, so the opt-in TRANSER_NATIVE_ARCH=-march=native
///    build cannot fuse multiply-adds and silently change results.
///
/// Sizes are asserted (TRANSER_CHECK) where spans must agree.

/// Dot product. Four-lane interleaved accumulation (see above).
double Dot(std::span<const double> a, std::span<const double> b);

/// Sum of squared differences, same four-lane accumulation over the
/// (a[i] - b[i])^2 terms.
double SquaredL2(std::span<const double> a, std::span<const double> b);

/// Dot(v, v) — bit-identical to calling Dot with the same span twice.
double SquaredNorm(std::span<const double> v);

/// y += s * x, element-wise. Per-element result is independent of the
/// unroll, so this is bit-identical to the naive loop.
void Axpy(double s, std::span<const double> x, std::span<double> y);

/// out += a * b, element-wise multiply-accumulate.
void Fma(std::span<const double> a, std::span<const double> b,
         std::span<double> out);

/// v *= s, element-wise.
void ScaleInPlace(std::span<double> v, double s);

/// a += b, element-wise.
void AddInPlace(std::span<double> a, std::span<const double> b);

/// out[r] = SquaredNorm(row r) for `n` contiguous rows of width `dims`
/// starting at `rows`.
void SquaredNorms(const double* rows, size_t n, size_t dims, double* out);

/// \brief Tiled pairwise squared-L2 block kernel.
///
/// Writes the a_rows x b_rows distance tile `out` (row-major) between
/// two contiguous row blocks of width `dims`, using the decomposition
///   d²(i, j) = (‖a_i‖² + ‖b_j‖²) − 2·a_i·b_j,   clamped at 0,
/// with the caller-cached squared norms `a_norms` / `b_norms` (as
/// produced by SquaredNorms over the same rows). Internally the loop is
/// tiled over cache-sized row blocks, but every entry is computed from a
/// full-width four-lane Dot, so the value of out[i*b_rows + j] is a pure
/// function of the two rows and their norms — independent of the tile
/// shape and bit-identical to PairSquaredL2 on the same inputs.
///
/// The clamp maps small negative cancellation residues to exactly 0; a
/// NaN produced by non-finite inputs passes through unclamped.
void PairwiseSquaredL2(const double* a, size_t a_rows, const double* a_norms,
                       const double* b, size_t b_rows, const double* b_norms,
                       size_t dims, double* out);

/// One entry of PairwiseSquaredL2: the decomposed, clamped squared
/// distance between two rows given their cached squared norms.
double PairSquaredL2(std::span<const double> a, double a_norm,
                     std::span<const double> b, double b_norm);

/// \brief Gather flavour of the pairwise kernel for KD-tree leaves.
///
/// For each of the `rows.size()` scattered row ids, writes
/// out[r] = PairSquaredL2(query, query_norm, row rows[r], norms[rows[r]])
/// where rows live at `base + rows[r] * dims`. Bit-identical to the
/// tiled kernel on the same (query, row) pair.
void SquaredL2Gather(std::span<const double> query, double query_norm,
                     const double* base, size_t dims,
                     std::span<const size_t> rows, const double* norms,
                     double* out);

/// True when this build compiled the explicit AVX2 kernel bodies (a
/// target with AVX2, e.g. TRANSER_NATIVE_ARCH=ON on modern x86); false
/// for the portable 4-lane bodies. Both return the same bits, but not
/// at the same speed, so perf sidecars record which one they timed.
bool CompiledWithAvx2();

/// \brief Runtime bit-identity check of every kernel against its scalar
/// reference (kernels::ref) over a battery of sizes covering all unroll
/// remainders, misaligned spans and tile shapes. Returns InvalidArgument
/// naming the first divergent kernel — which means this build's flags or
/// a future SIMD path broke the determinism contract. Cheap enough to
/// run at tool startup; the bench harness refuses to record numbers from
/// a build that fails it.
Status SelfCheck();

namespace ref {

/// Scalar reference implementations: the executable specification of
/// the accumulation order. Deliberately naive — one loop, `i % 4` lane
/// selection — and compiled in the same contraction-off TU as the
/// optimised kernels. Tests and SelfCheck() compare bit for bit.
double Dot(std::span<const double> a, std::span<const double> b);
double SquaredL2(std::span<const double> a, std::span<const double> b);
double SquaredNorm(std::span<const double> v);
void Axpy(double s, std::span<const double> x, std::span<double> y);
void Fma(std::span<const double> a, std::span<const double> b,
         std::span<double> out);
void ScaleInPlace(std::span<double> v, double s);
void AddInPlace(std::span<double> a, std::span<const double> b);
/// Untiled reference of the pairwise kernel (plain double loop).
void PairwiseSquaredL2(const double* a, size_t a_rows, const double* a_norms,
                       const double* b, size_t b_rows, const double* b_norms,
                       size_t dims, double* out);

}  // namespace ref

}  // namespace kernels
}  // namespace transer

#endif  // TRANSER_LINALG_KERNELS_H_
