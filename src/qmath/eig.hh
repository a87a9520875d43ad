/**
 * @file
 * Eigensolvers used by the KAK decomposition and the genAshN scheme.
 *
 * All solvers are Jacobi-rotation based: at the 4x4..64x64 scales ReQISC
 * needs, Jacobi is simple, numerically robust and more than fast enough.
 */

#ifndef REQISC_QMATH_EIG_HH
#define REQISC_QMATH_EIG_HH

#include <vector>

#include "qmath/matrix.hh"

namespace reqisc::qmath
{

/** Result of a Hermitian eigendecomposition A = V diag(w) V^dagger. */
struct EigResult
{
    /** Eigenvalues in ascending order. */
    std::vector<double> values;
    /** Unitary matrix whose columns are the eigenvectors. */
    Matrix vectors;
};

/**
 * Eigendecomposition of a complex Hermitian matrix via two-sided
 * Jacobi rotations.
 *
 * 2x2 and 4x4 inputs (the expim and KAK sizes) run a fixed-size
 * path that returns exactly eighGeneric's bits, faster; every other
 * size runs eighGeneric itself. The same holds for eighReal.
 *
 * @param a Hermitian input (asserted in debug builds)
 * @return eigenvalues (ascending) and unitary eigenvector matrix
 */
EigResult eigh(const Matrix &a);

/**
 * The runtime-n reference eigh() and eighReal() are pinned against:
 * the same Jacobi sweeps over Matrix storage. Exposed so tests can
 * oracle the fixed-size path against it and benches can measure the
 * specialization win (as kernels::mulGenericInto backs mulInto).
 */
EigResult eighGeneric(const Matrix &a);

/**
 * Eigendecomposition of a real symmetric matrix (stored as a complex
 * Matrix with zero imaginary parts). The eigenvector matrix is real
 * orthogonal.
 */
EigResult eighReal(const Matrix &a);

/**
 * Simultaneously diagonalize two commuting real symmetric matrices.
 *
 * Used by the KAK decomposition where Re(M2) and Im(M2) of the magic-
 * basis Gram matrix commute. Returns a real orthogonal matrix Q with
 * determinant +1 such that Q^T a Q and Q^T b Q are both diagonal.
 *
 * @param a first real symmetric matrix
 * @param b second real symmetric matrix, commuting with a
 * @return real orthogonal Q in SO(n)
 */
Matrix simultaneousDiagonalize(const Matrix &a, const Matrix &b);

} // namespace reqisc::qmath

#endif // REQISC_QMATH_EIG_HH
