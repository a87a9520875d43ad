/**
 * @file
 * Complex singular value decomposition via one-sided Jacobi.
 *
 * Used by the QFactor-style approximate synthesis engine (optimal
 * unitary block update) and by tensor-factor extraction.
 */

#ifndef REQISC_QMATH_SVD_HH
#define REQISC_QMATH_SVD_HH

#include <vector>

#include "qmath/matrix.hh"

namespace reqisc::qmath
{

/** A = u * diag(s) * v^dagger with u, v unitary and s >= 0 descending. */
struct SvdResult
{
    Matrix u;
    std::vector<double> s;
    Matrix v;
};

/**
 * One-sided Jacobi SVD of a square complex matrix.
 *
 * 2x2 and 4x4 inputs (every polar update synthesis makes) run a
 * fixed-size path that returns exactly svdGeneric's bits, faster;
 * every other size runs svdGeneric itself. A zero matrix, or one
 * small enough (|a| below ~1e-154) that its squared entries
 * underflow, gives s = 0 (or the tiny exact value) with u and v
 * still exactly unitary.
 *
 * @param a square input matrix
 * @return SVD with singular values sorted descending
 */
SvdResult svd(const Matrix &a);

/**
 * The runtime-n reference svd() is pinned against: the same Jacobi
 * sweeps over Matrix storage. Exposed so tests can oracle the
 * fixed-size path against it and benches can measure the
 * specialization win (as kernels::mulGenericInto backs mulInto).
 */
SvdResult svdGeneric(const Matrix &a);

/**
 * Closest unitary to a in Frobenius norm (the unitary polar factor
 * u * v^dagger). For (near-)singular a the completion is arbitrary but
 * still exactly unitary.
 */
Matrix polarUnitary(const Matrix &a);

} // namespace reqisc::qmath

#endif // REQISC_QMATH_SVD_HH
