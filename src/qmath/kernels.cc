/**
 * @file
 * Scalar kernels, the generic fallbacks and the one dispatch point.
 *
 * This TU is compiled with -ffp-contract=off so the scalar kernels
 * stay mul/add exactly — the SIMD backend reproduces them
 * bit-for-bit (see the bit-identity rule in kernels.hh).
 */

#include "qmath/kernels.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "qmath/kernels_detail.hh"

namespace reqisc::qmath::kernels
{

namespace
{

using detail::SimdOps;

/*
 * Scalar complex helpers, written against the raw double pairs so
 * the arithmetic is pinned to exactly one rounding per mul/add —
 * independent of how the standard library spells complex multiply.
 */

/** acc += a * b (complex), naive formula: one chain per component. */
inline void
cmulAcc(double &ar_re, double &ar_im, double a_re, double a_im,
        double b_re, double b_im)
{
    ar_re += a_re * b_re - a_im * b_im;
    ar_im += a_re * b_im + a_im * b_re;
}

template <int N>
void
mulNScalar(Complex *r, const Complex *a, const Complex *b)
{
    const double *ad = reinterpret_cast<const double *>(a);
    const double *bd = reinterpret_cast<const double *>(b);
    double *rd = reinterpret_cast<double *>(r);
    for (int i = 0; i < N; ++i) {
        double acc[2 * N] = {};
        const double *arow = ad + 2 * i * N;
        for (int k = 0; k < N; ++k) {
            const double are = arow[2 * k];
            const double aim = arow[2 * k + 1];
            const double *brow = bd + 2 * k * N;
            for (int j = 0; j < N; ++j)
                cmulAcc(acc[2 * j], acc[2 * j + 1], are, aim,
                        brow[2 * j], brow[2 * j + 1]);
        }
        std::memcpy(rd + 2 * i * N, acc, sizeof(acc));
    }
}

void
kronSmallScalar(Complex *r, const Complex *a, int ar, int ac,
                const Complex *b, int br, int bc)
{
    const double *ad = reinterpret_cast<const double *>(a);
    const double *bd = reinterpret_cast<const double *>(b);
    double *rd = reinterpret_cast<double *>(r);
    const int rc = ac * bc;
    for (int i = 0; i < ar; ++i)
        for (int j = 0; j < ac; ++j) {
            const double are = ad[2 * (i * ac + j)];
            const double aim = ad[2 * (i * ac + j) + 1];
            for (int k = 0; k < br; ++k) {
                double *row = rd + 2 * ((i * br + k) * rc + j * bc);
                const double *brow = bd + 2 * k * bc;
                for (int l = 0; l < bc; ++l) {
                    row[2 * l] = are * brow[2 * l] -
                                 aim * brow[2 * l + 1];
                    row[2 * l + 1] = are * brow[2 * l + 1] +
                                     aim * brow[2 * l];
                }
            }
        }
}

void
daggerScalar(Complex *r, const Complex *a, int rows, int cols)
{
    const double *ad = reinterpret_cast<const double *>(a);
    double *rd = reinterpret_cast<double *>(r);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) {
            const double *src = ad + 2 * (i * cols + j);
            double *dst = rd + 2 * (j * rows + i);
            dst[0] = src[0];
            dst[1] = -src[1];
        }
}

void
axpyScalar(Complex *y, const Complex &s, const Complex *x,
           std::size_t n)
{
    const double sre = s.real(), sim = s.imag();
    const double *xd = reinterpret_cast<const double *>(x);
    double *yd = reinterpret_cast<double *>(y);
    for (std::size_t k = 0; k < n; ++k)
        cmulAcc(yd[2 * k], yd[2 * k + 1], sre, sim, xd[2 * k],
                xd[2 * k + 1]);
}

void
scaleScalar(Complex *x, const Complex &s, std::size_t n)
{
    const double sre = s.real(), sim = s.imag();
    double *xd = reinterpret_cast<double *>(x);
    for (std::size_t k = 0; k < n; ++k) {
        const double re = xd[2 * k];
        const double im = xd[2 * k + 1];
        xd[2 * k] = re * sre - im * sim;
        xd[2 * k + 1] = re * sim + im * sre;
    }
}

constexpr SimdOps kScalarOps = {
    "scalar",    mulNScalar<2>, mulNScalar<4>, mulNScalar<8>,
    kronSmallScalar, daggerScalar, axpyScalar, scaleScalar,
};

const SimdOps *
bestOps()
{
#ifdef REQISC_SIMD_AVX2
    if (detail::avx2Supported())
        return &detail::avx2Ops();
#endif
    return &kScalarOps;
}

/**
 * The one dispatch point. Initialized on first use (idempotent, so
 * a benign first-use race resolves to the same pointer); flipped
 * only by setSimdEnabled(), which tests call single-threaded.
 */
std::atomic<const SimdOps *> g_ops{nullptr};

inline const SimdOps &
activeOps()
{
    const SimdOps *p = g_ops.load(std::memory_order_relaxed);
    if (!p) {
        p = bestOps();
        g_ops.store(p, std::memory_order_relaxed);
    }
    return *p;
}

/** Operand dims small enough for the dense (skip-free) loops. */
inline bool
smallDims(int m, int k, int n)
{
    return m <= Matrix::kInlineDim && k <= Matrix::kInlineDim &&
           n <= Matrix::kInlineDim;
}

} // namespace

bool
simdCompiledIn()
{
#ifdef REQISC_SIMD_AVX2
    return true;
#else
    return false;
#endif
}

bool
simdActive()
{
    return activeOps().name != kScalarOps.name;
}

bool
setSimdEnabled(bool on)
{
    g_ops.store(on ? bestOps() : &kScalarOps,
                std::memory_order_relaxed);
    return simdActive();
}

const char *
backendName()
{
    return activeOps().name;
}

void
mulInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    assert(&dst != &a && &dst != &b);
    assert(a.cols() == b.rows());
    const int n = a.rows();
    if (n == a.cols() && n == b.cols() &&
        (n == 2 || n == 4 || n == 8)) {
        const SimdOps &ops = activeOps();
        dst.resizeForOverwrite(n, n);
        (n == 2 ? ops.mul2 : n == 4 ? ops.mul4 : ops.mul8)(
            dst.data(), a.data(), b.data());
        return;
    }
    mulGenericInto(dst, a, b);
}

void
mulGenericInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    assert(&dst != &a && &dst != &b);
    assert(a.cols() == b.rows());
    const int m = a.rows(), kk = a.cols(), n = b.cols();
    dst.setZero(m, n);
    const Complex *ad = a.data();
    const Complex *bd = b.data();
    Complex *rd = dst.data();
    if (smallDims(m, kk, n)) {
        // Dense: gates and synthesis blocks are dense, so the old
        // per-element zero test only cost branches here. Every
        // accumulation runs, in k order (NaN/Inf now propagate).
        for (int i = 0; i < m; ++i) {
            double *rrow = reinterpret_cast<double *>(rd +
                                                      static_cast<size_t>(i) * n);
            const double *arow = reinterpret_cast<const double *>(
                ad + static_cast<size_t>(i) * kk);
            for (int k = 0; k < kk; ++k) {
                const double are = arow[2 * k];
                const double aim = arow[2 * k + 1];
                const double *brow = reinterpret_cast<const double *>(
                    bd + static_cast<size_t>(k) * n);
                for (int j = 0; j < n; ++j)
                    cmulAcc(rrow[2 * j], rrow[2 * j + 1], are, aim,
                            brow[2 * j], brow[2 * j + 1]);
            }
        }
        return;
    }
    // Large operands: structured zeros (lifted gates, simulator
    // unitaries) are common enough that skipping a zero row of
    // accumulations is a real win.
    for (int i = 0; i < m; ++i) {
        for (int k = 0; k < kk; ++k) {
            const Complex aik = ad[static_cast<size_t>(i) * kk + k];
            if (aik == Complex(0.0, 0.0))
                continue;
            const Complex *brow = bd + static_cast<size_t>(k) * n;
            Complex *rrow = rd + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j)
                rrow[j] += aik * brow[j];
        }
    }
}

void
kronInto(Matrix &dst, const Matrix &a, const Matrix &b)
{
    assert(&dst != &a && &dst != &b);
    const int rr = a.rows() * b.rows();
    const int rc = a.cols() * b.cols();
    if (rr <= Matrix::kInlineDim && rc <= Matrix::kInlineDim &&
        !a.empty() && !b.empty()) {
        dst.resizeForOverwrite(rr, rc);
        activeOps().kronSmall(dst.data(), a.data(), a.rows(),
                              a.cols(), b.data(), b.rows(), b.cols());
        return;
    }
    dst.setZero(rr, rc);
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) {
            const Complex aij = a(i, j);
            if (aij == Complex(0.0, 0.0))
                continue;
            for (int k = 0; k < b.rows(); ++k)
                for (int l = 0; l < b.cols(); ++l)
                    dst(i * b.rows() + k, j * b.cols() + l) =
                        aij * b(k, l);
        }
}

void
daggerInto(Matrix &dst, const Matrix &a)
{
    assert(&dst != &a);
    dst.resizeForOverwrite(a.cols(), a.rows());
    activeOps().dagger(dst.data(), a.data(), a.rows(), a.cols());
}

void
axpyInPlace(Matrix &y, const Complex &s, const Matrix &x)
{
    assert(y.rows() == x.rows() && y.cols() == x.cols());
    activeOps().axpy(y.data(), s, x.data(), y.size());
}

void
scaleInPlace(Matrix &m, const Complex &s)
{
    activeOps().scale(m.data(), s, m.size());
}

Complex
mulTrace(const Matrix &a, const Matrix &b)
{
    assert(a.rows() == a.cols() && b.rows() == b.cols());
    assert(a.cols() == b.rows());
    const int n = a.rows();
    const double *ad = reinterpret_cast<const double *>(a.data());
    const double *bd = reinterpret_cast<const double *>(b.data());
    // Mirrors trace(mul(a, b)) exactly: the (i,i) chain accumulates
    // over k first, then the diagonal sums in i order.
    double tre = 0.0, tim = 0.0;
    for (int i = 0; i < n; ++i) {
        double rre = 0.0, rim = 0.0;
        const double *arow = ad + 2 * static_cast<size_t>(i) * n;
        for (int k = 0; k < n; ++k)
            cmulAcc(rre, rim, arow[2 * k], arow[2 * k + 1],
                    bd[2 * (static_cast<size_t>(k) * n + i)],
                    bd[2 * (static_cast<size_t>(k) * n + i) + 1]);
        tre += rre;
        tim += rim;
    }
    return {tre, tim};
}

Complex
trace(const Matrix &a)
{
    assert(a.rows() == a.cols());
    Complex t(0.0, 0.0);
    for (int i = 0; i < a.rows(); ++i)
        t += a(i, i);
    return t;
}

double
frobeniusNorm(const Matrix &a)
{
    double s = 0.0;
    const Complex *d = a.data();
    const size_t n = a.size();
    for (size_t k = 0; k < n; ++k)
        s += std::norm(d[k]);
    return std::sqrt(s);
}

double
maxAbs(const Matrix &a)
{
    double m = 0.0;
    const Complex *d = a.data();
    const size_t n = a.size();
    for (size_t k = 0; k < n; ++k)
        m = std::max(m, std::abs(d[k]));
    return m;
}

} // namespace reqisc::qmath::kernels
