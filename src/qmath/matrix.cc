#include "qmath/matrix.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "qmath/kernels.hh"
#include "qmath/svd.hh"

namespace reqisc::qmath
{

void
Matrix::resizeForOverwrite(int rows, int cols)
{
    assert(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    const size_t n = size();
    if (n <= kInlineCap) {
        data_ = sbo_;
    } else {
        if (heap_.size() < n)
            heap_.resize(n);
        data_ = heap_.data();
    }
}

void
Matrix::setZero(int rows, int cols)
{
    resizeForOverwrite(rows, cols);
    std::fill_n(data_, size(), Complex(0.0, 0.0));
}

void
Matrix::setIdentity(int n)
{
    setZero(n, n);
    for (int i = 0; i < n; ++i)
        data_[static_cast<size_t>(i) * n + i] = Complex(1.0, 0.0);
}

void
Matrix::assignCopy(const Matrix &o)
{
    rows_ = o.rows_;
    cols_ = o.cols_;
    const size_t n = size();
    if (n <= kInlineCap) {
        std::copy_n(o.data_, n, sbo_);
        data_ = sbo_;
    } else {
        heap_.assign(o.data_, o.data_ + n);
        data_ = heap_.data();
    }
}

void
Matrix::assignMove(Matrix &&o) noexcept
{
    rows_ = o.rows_;
    cols_ = o.cols_;
    const size_t n = size();
    if (n <= kInlineCap) {
        // Inline payloads are copied; the source stays valid as-is.
        std::copy_n(o.data_, n, sbo_);
        data_ = sbo_;
    } else {
        heap_ = std::move(o.heap_);
        data_ = heap_.data();
        o.rows_ = 0;
        o.cols_ = 0;
        o.data_ = o.sbo_;
    }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows)
    : rows_(0), cols_(0)
{
    const int r = static_cast<int>(rows.size());
    const int c = rows.size()
        ? static_cast<int>(rows.begin()->size()) : 0;
    resizeForOverwrite(r, c);
    Complex *out = data_;
    for (const auto &row : rows) {
        assert(static_cast<int>(row.size()) == cols_);
        for (const auto &v : row)
            *out++ = v;
    }
}

Matrix
Matrix::identity(int n)
{
    Matrix m;
    m.setIdentity(n);
    return m;
}

Matrix
Matrix::operator+(const Matrix &o) const
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    Matrix r;
    r.resizeForOverwrite(rows_, cols_);
    for (size_t k = 0; k < size(); ++k)
        r.data_[k] = data_[k] + o.data_[k];
    return r;
}

Matrix
Matrix::operator-(const Matrix &o) const
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    Matrix r;
    r.resizeForOverwrite(rows_, cols_);
    for (size_t k = 0; k < size(); ++k)
        r.data_[k] = data_[k] - o.data_[k];
    return r;
}

Matrix
Matrix::operator*(const Matrix &o) const
{
    Matrix r;
    kernels::mulInto(r, *this, o);
    return r;
}

Matrix
Matrix::operator*(const Complex &s) const
{
    Matrix r(*this);
    kernels::scaleInPlace(r, s);
    return r;
}

Matrix &
Matrix::operator+=(const Matrix &o)
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (size_t k = 0; k < size(); ++k)
        data_[k] += o.data_[k];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &o)
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (size_t k = 0; k < size(); ++k)
        data_[k] -= o.data_[k];
    return *this;
}

Matrix &
Matrix::operator*=(const Complex &s)
{
    kernels::scaleInPlace(*this, s);
    return *this;
}

Matrix
Matrix::dagger() const
{
    Matrix r;
    kernels::daggerInto(r, *this);
    return r;
}

Matrix
Matrix::transpose() const
{
    Matrix r;
    r.resizeForOverwrite(cols_, rows_);
    for (int i = 0; i < rows_; ++i)
        for (int j = 0; j < cols_; ++j)
            r(j, i) = (*this)(i, j);
    return r;
}

Complex
Matrix::trace() const
{
    return kernels::trace(*this);
}

double
Matrix::frobeniusNorm() const
{
    return kernels::frobeniusNorm(*this);
}

double
Matrix::maxAbs() const
{
    return kernels::maxAbs(*this);
}

bool
Matrix::approxEqual(const Matrix &o, double tol) const
{
    if (rows_ != o.rows_ || cols_ != o.cols_)
        return false;
    // !(d <= tol) rather than d > tol: a NaN entry is never near.
    for (size_t k = 0; k < size(); ++k)
        if (!(std::abs(data_[k] - o.data_[k]) <= tol))
            return false;
    return true;
}

bool
Matrix::approxEqualUpToPhase(const Matrix &o, double tol) const
{
    if (rows_ != o.rows_ || cols_ != o.cols_)
        return false;
    // Find the largest entry of o to estimate the relative phase.
    size_t kmax = 0;
    double best = -1.0;
    for (size_t k = 0; k < size(); ++k) {
        if (std::abs(o.data_[k]) > best) {
            best = std::abs(o.data_[k]);
            kmax = k;
        }
    }
    if (best < tol)
        return approxEqual(o, tol);
    Complex phase = data_[kmax] / o.data_[kmax];
    double mag = std::abs(phase);
    if (mag < 1e-14)
        return false;
    phase /= mag;
    for (size_t k = 0; k < size(); ++k)
        if (!(std::abs(data_[k] - phase * o.data_[k]) <= tol))
            return false;
    return true;
}

bool
Matrix::isUnitary(double tol) const
{
    if (rows_ != cols_)
        return false;
    return ((*this) * dagger()).approxEqual(identity(rows_), tol);
}

bool
Matrix::isHermitian(double tol) const
{
    if (rows_ != cols_)
        return false;
    return approxEqual(dagger(), tol);
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed;
    for (int i = 0; i < rows_; ++i) {
        os << "[ ";
        for (int j = 0; j < cols_; ++j) {
            const Complex v = (*this)(i, j);
            os << v.real() << (v.imag() >= 0 ? "+" : "-")
               << std::abs(v.imag()) << "i ";
        }
        os << "]\n";
    }
    return os.str();
}

Matrix
kron(const Matrix &a, const Matrix &b)
{
    Matrix r;
    kernels::kronInto(r, a, b);
    return r;
}

Complex
determinant(Matrix t)
{
    assert(t.rows() == t.cols());
    const int n = t.rows();
    Complex d(1.0, 0.0);
    for (int col = 0; col < n; ++col) {
        int piv = col;
        for (int r = col + 1; r < n; ++r)
            if (std::abs(t(r, col)) > std::abs(t(piv, col)))
                piv = r;
        if (std::abs(t(piv, col)) < 1e-300)
            return {0.0, 0.0};
        if (piv != col) {
            for (int c = 0; c < n; ++c)
                std::swap(t(piv, c), t(col, c));
            d = -d;
        }
        d *= t(col, col);
        for (int r = col + 1; r < n; ++r) {
            const Complex f = t(r, col) / t(col, col);
            for (int c = col; c < n; ++c)
                t(r, c) -= f * t(col, c);
        }
    }
    return d;
}

Complex
hsInner(const Matrix &a, const Matrix &b)
{
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    Complex s(0.0, 0.0);
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j)
            s += std::conj(a(i, j)) * b(i, j);
    return s;
}

double
traceFidelity(const Matrix &u, const Matrix &v)
{
    return std::abs(hsInner(u, v)) / u.rows();
}

double
traceInfidelity(const Matrix &u, const Matrix &v)
{
    return 1.0 - traceFidelity(u, v);
}

double
kronFactor2x2(const Matrix &m, Matrix &a, Matrix &b)
{
    assert(m.rows() == 4 && m.cols() == 4);
    // Rearrangement R: R[(i1,j1),(i2,j2)] = m[(i1,i2),(j1,j2)].
    // m = a(x)b <=> R = vec(a) vec(b)^T (rank one).
    Matrix r(4, 4);
    for (int i1 = 0; i1 < 2; ++i1)
        for (int j1 = 0; j1 < 2; ++j1)
            for (int i2 = 0; i2 < 2; ++i2)
                for (int j2 = 0; j2 < 2; ++j2)
                    r(i1 * 2 + j1, i2 * 2 + j2) =
                        m(i1 * 2 + i2, j1 * 2 + j2);
    // Dominant singular triple of the 4x4 rearrangement via the
    // robust one-sided Jacobi SVD.
    SvdResult s = svd(r);
    const double sigma = s.s[0];
    const double sq = std::sqrt(sigma);
    a.resizeForOverwrite(2, 2);
    b.resizeForOverwrite(2, 2);
    // vec(a) = sqrt(sigma) * u_0, vec(b) = sqrt(sigma) * conj(v_0).
    a(0, 0) = s.u(0, 0) * sq; a(0, 1) = s.u(1, 0) * sq;
    a(1, 0) = s.u(2, 0) * sq; a(1, 1) = s.u(3, 0) * sq;
    b(0, 0) = std::conj(s.v(0, 0)) * sq;
    b(0, 1) = std::conj(s.v(1, 0)) * sq;
    b(1, 0) = std::conj(s.v(2, 0)) * sq;
    b(1, 1) = std::conj(s.v(3, 0)) * sq;
    return (m - kron(a, b)).frobeniusNorm();
}

namespace
{

Matrix
makePauli(char which)
{
    switch (which) {
      case 'I': return {{1.0, 0.0}, {0.0, 1.0}};
      case 'X': return {{0.0, 1.0}, {1.0, 0.0}};
      case 'Y': return {{0.0, -kI}, {kI, 0.0}};
      default:  return {{1.0, 0.0}, {0.0, -1.0}};
    }
}

} // namespace

const Matrix &pauliI() { static const Matrix m = makePauli('I'); return m; }
const Matrix &pauliX() { static const Matrix m = makePauli('X'); return m; }
const Matrix &pauliY() { static const Matrix m = makePauli('Y'); return m; }
const Matrix &pauliZ() { static const Matrix m = makePauli('Z'); return m; }

const Matrix &
pauliXX()
{
    static const Matrix m = kron(pauliX(), pauliX());
    return m;
}

const Matrix &
pauliYY()
{
    static const Matrix m = kron(pauliY(), pauliY());
    return m;
}

const Matrix &
pauliZZ()
{
    static const Matrix m = kron(pauliZ(), pauliZ());
    return m;
}

} // namespace reqisc::qmath
