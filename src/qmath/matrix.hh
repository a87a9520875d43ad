/**
 * @file
 * Dense complex matrix type and basic linear-algebra operations.
 *
 * ReQISC works almost exclusively with small dense complex matrices
 * (2x2 one-qubit gates, 4x4 two-qubit gates, 8x8 synthesis blocks and
 * 2^n x 2^n simulator unitaries for small n), so a simple row-major
 * dense representation is the right substrate.
 *
 * Tensor-product convention: kron(A, B) puts A on the more significant
 * subsystem — row/column index = (i_A * dim_B + i_B) — which is why
 * the first listed qubit of a Gate is the most significant bit
 * everywhere downstream.
 */

#ifndef REQISC_QMATH_MATRIX_HH
#define REQISC_QMATH_MATRIX_HH

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace reqisc::qmath
{

using Complex = std::complex<double>;

/** Imaginary unit, used pervasively when building gate matrices. */
inline constexpr Complex kI{0.0, 1.0};

/** Machine-precision-scale default tolerance for approx comparisons. */
inline constexpr double kDefaultTol = 1e-10;

/**
 * Row-major dense complex matrix.
 *
 * Sized at runtime, with small-buffer-optimized storage: matrices up
 * to kInlineDim x kInlineDim (8x8 — every gate and synthesis block)
 * live inline with no heap allocation; only the 2^n x 2^n simulator
 * unitaries spill to the heap. The element-wise operators and
 * *, kron() and dagger() route through the fixed-size fast kernels in
 * qmath/kernels.hh (SIMD when built with REQISC_SIMD, bit-identical
 * scalar otherwise); hot loops that want zero temporaries use the
 * destination-passing kernels::*Into entry points directly.
 */
class Matrix
{
  public:
    /** Largest dimension stored inline (and kernel-specialized). */
    static constexpr int kInlineDim = 8;

    Matrix() : rows_(0), cols_(0) {}

    Matrix(int rows, int cols) : rows_(0), cols_(0)
    {
        assert(rows >= 0 && cols >= 0);
        setZero(rows, cols);
    }

    Matrix(const Matrix &o) : rows_(0), cols_(0) { assignCopy(o); }

    Matrix(Matrix &&o) noexcept : rows_(0), cols_(0)
    {
        assignMove(std::move(o));
    }

    Matrix &
    operator=(const Matrix &o)
    {
        if (this != &o)
            assignCopy(o);
        return *this;
    }

    Matrix &
    operator=(Matrix &&o) noexcept
    {
        if (this != &o)
            assignMove(std::move(o));
        return *this;
    }

    /** Build from a nested initializer list (row by row). */
    Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** @return the n x n identity matrix. */
    static Matrix identity(int n);

    /** @return an all-zero rows x cols matrix. */
    static Matrix zeros(int rows, int cols) { return Matrix(rows, cols); }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    size_t size() const { return static_cast<size_t>(rows_) * cols_; }
    bool empty() const { return size() == 0; }

    /**
     * Reshape without initializing: after the call the contents are
     * unspecified and the caller overwrites every element. Reuses the
     * inline buffer / existing heap capacity, so destination-passing
     * kernels can recycle a matrix with no allocation.
     */
    void resizeForOverwrite(int rows, int cols);

    /** Reshape to an all-zero rows x cols matrix, reusing storage. */
    void setZero(int rows, int cols);

    /** Reshape to the n x n identity, reusing storage. */
    void setIdentity(int n);

    Complex &
    operator()(int i, int j)
    {
        assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
        return data_[static_cast<size_t>(i) * cols_ + j];
    }

    const Complex &
    operator()(int i, int j) const
    {
        assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
        return data_[static_cast<size_t>(i) * cols_ + j];
    }

    /** Raw storage access (row-major), used by the simulators. */
    Complex *data() { return data_; }
    const Complex *data() const { return data_; }

    Matrix operator+(const Matrix &o) const;
    Matrix operator-(const Matrix &o) const;
    Matrix operator*(const Matrix &o) const;
    Matrix operator*(const Complex &s) const;
    Matrix &operator+=(const Matrix &o);
    Matrix &operator-=(const Matrix &o);
    Matrix &operator*=(const Complex &s);

    /** @return the conjugate transpose. */
    Matrix dagger() const;

    /** @return the (non-conjugated) transpose. */
    Matrix transpose() const;

    Complex trace() const;

    /** Frobenius norm sqrt(sum |a_ij|^2). */
    double frobeniusNorm() const;

    /** Largest entrywise magnitude. */
    double maxAbs() const;

    /**
     * Entrywise comparison with absolute tolerance. A NaN entry in
     * either matrix makes it false, and so isUnitary/isHermitian too.
     */
    bool approxEqual(const Matrix &o, double tol = kDefaultTol) const;

    /**
     * Compare up to a global phase: true iff there is a unit-modulus
     * phase p with |this - p*o| <= tol entrywise (false on NaN).
     */
    bool approxEqualUpToPhase(const Matrix &o,
                              double tol = kDefaultTol) const;

    /** true iff M Mdag = I within tol. */
    bool isUnitary(double tol = kDefaultTol) const;

    /** true iff M = Mdag within tol. */
    bool isHermitian(double tol = kDefaultTol) const;

    /** Human-readable dump, mostly for debugging and test failures. */
    std::string toString(int precision = 4) const;

  private:
    static constexpr size_t kInlineCap =
        static_cast<size_t>(kInlineDim) * kInlineDim;

    void assignCopy(const Matrix &o);
    void assignMove(Matrix &&o) noexcept;

    int rows_;
    int cols_;
    Complex *data_ = sbo_;     //!< sbo_ or heap_.data()
    std::vector<Complex> heap_;
    alignas(32) Complex sbo_[kInlineCap];
};

inline Matrix
operator*(const Complex &s, const Matrix &m)
{
    return m * s;
}

/** Kronecker (tensor) product a (x) b. */
Matrix kron(const Matrix &a, const Matrix &b);

/**
 * Determinant by Gaussian elimination with partial pivoting; exactly
 * zero once a pivot's magnitude falls below 1e-300.
 */
Complex determinant(Matrix t);

/** Tr(a^dagger b), the Hilbert-Schmidt inner product. */
Complex hsInner(const Matrix &a, const Matrix &b);

/**
 * Phase-invariant gate fidelity |Tr(Udag V)| / N for N x N unitaries.
 * 1.0 means U and V agree up to a global phase.
 */
double traceFidelity(const Matrix &u, const Matrix &v);

/** 1 - traceFidelity, the infidelity used throughout the paper. */
double traceInfidelity(const Matrix &u, const Matrix &v);

/**
 * Nearest Kronecker factorization of a 4x4 matrix m ~ a (x) b
 * (Pitsianis-Van Loan rearrangement + dominant rank-1 term).
 * For exact tensor products of unitaries the result is exact and both
 * factors are returned with unit determinant phase normalization.
 *
 * @param m input 4x4 matrix
 * @param a output 2x2 left factor
 * @param b output 2x2 right factor
 * @return Frobenius norm of the residual m - a (x) b
 */
double kronFactor2x2(const Matrix &m, Matrix &a, Matrix &b);

/** Pauli and frequently used constant matrices. */
const Matrix &pauliI();
const Matrix &pauliX();
const Matrix &pauliY();
const Matrix &pauliZ();

/** Two-qubit Pauli products XX, YY, ZZ. */
const Matrix &pauliXX();
const Matrix &pauliYY();
const Matrix &pauliZZ();

} // namespace reqisc::qmath

#endif // REQISC_QMATH_MATRIX_HH
