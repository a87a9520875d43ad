/**
 * @file
 * Fixed-size fast kernels for the small dense complex matrices that
 * dominate the synthesis hot path (2x2 one-qubit gates, 4x4 two-qubit
 * gates, 8x8 three-qubit synthesis blocks).
 *
 * Two implementations sit behind one dispatch point: a portable
 * scalar path and, when compiled in (REQISC_SIMD, x86_64), an AVX2
 * path. Both obey the bit-identity rule:
 *
 *   Vectorize across INDEPENDENT OUTPUT ELEMENTS only. A single
 *   accumulation chain (one output element's sum over k, a trace, a
 *   norm) is never split, reordered or contracted into FMA, so every
 *   backend produces bit-identical doubles. Reductions therefore stay
 *   scalar on every backend; the SIMD win comes from the embarrassing
 *   per-element parallelism of mul/kron/axpy/dagger.
 *
 * The kernel translation units are built with -ffp-contract=off so
 * the compiler cannot re-fuse what the rule keeps separate. Compiled
 * artifacts are bit-identical with REQISC_SIMD on and off; CI diffs
 * them on every example circuit.
 *
 * Dispatch is compile-time (is the AVX2 TU linked in?) plus a
 * first-use check of the CPU, plus setSimdEnabled() so tests can
 * oracle one path against the other in a single binary. A build with
 * -DREQISC_SIMD=OFF takes the scalar path only.
 */

#ifndef REQISC_QMATH_KERNELS_HH
#define REQISC_QMATH_KERNELS_HH

#include "qmath/matrix.hh"

namespace reqisc::qmath::kernels
{

/** true iff the AVX2 kernel TU is linked into this binary. */
bool simdCompiledIn();

/**
 * true iff the SIMD path is taken right now (compiled in, CPU
 * supports AVX2, not disabled by setSimdEnabled(false)).
 */
bool simdActive();

/**
 * Force the dispatch to the scalar (false) or SIMD (true) path.
 * Enabling is clamped to what the build/CPU supports.
 * @return the resulting simdActive() state.
 */
bool setSimdEnabled(bool on);

/** "avx2" or "scalar" — the path simdActive() resolves to. */
const char *backendName();

/**
 * dst = a * b. Specialized (and SIMD-dispatched) for square n x n
 * operands with n in {2, 4, 8}; any other conformable shape falls
 * back to the generic loop. dst must not alias a or b; its previous
 * contents and shape are discarded (storage is reused when possible,
 * so a hot loop that keeps its destinations performs no allocation).
 */
void mulInto(Matrix &dst, const Matrix &a, const Matrix &b);

/**
 * The runtime-sized reference product (what Matrix::operator* did
 * before the kernel layer): dense accumulation for operands up to
 * 8x8, the structured-zero skip loop above that. Exposed so tests
 * can oracle the specialized kernels against it and benches can
 * measure the specialization win. dst must not alias a or b.
 */
void mulGenericInto(Matrix &dst, const Matrix &a, const Matrix &b);

/**
 * dst = kron(a, b), A on the more significant subsystem (the repo
 * convention). Specialized for results up to 8x8 (e.g. 2x2 (x) 2x2,
 * 2x2 (x) 4x4, 4x4 (x) 2x2). dst must not alias a or b.
 */
void kronInto(Matrix &dst, const Matrix &a, const Matrix &b);

/** dst = a^dagger (conjugate transpose). dst must not alias a. */
void daggerInto(Matrix &dst, const Matrix &a);

/** y += s * x, elementwise; shapes must match. */
void axpyInPlace(Matrix &y, const Complex &s, const Matrix &x);

/** m *= s, elementwise. */
void scaleInPlace(Matrix &m, const Complex &s);

/**
 * Tr(a * b) without forming the product: sum_i sum_k a(i,k) b(k,i),
 * accumulated in exactly the order the full product + trace would
 * accumulate it, so the value is bit-identical at n^2 instead of n^3
 * work. a and b must be square with matching dims.
 */
Complex mulTrace(const Matrix &a, const Matrix &b);

/** Tr(a); a must be square. Scalar on all backends (one chain). */
Complex trace(const Matrix &a);

/** sqrt(sum |a_ij|^2). Scalar on all backends (one chain). */
double frobeniusNorm(const Matrix &a);

/** max |a_ij|. Scalar on all backends (one chain). */
double maxAbs(const Matrix &a);

} // namespace reqisc::qmath::kernels

#endif // REQISC_QMATH_KERNELS_HH
