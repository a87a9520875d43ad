#include "qmath/eig.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "qmath/raw_complex.hh"

namespace reqisc::qmath
{

namespace
{

using detail::Cx;

/** Sum of squared magnitudes of off-diagonal entries. */
double
offDiagonalNorm2(const Matrix &a)
{
    double s = 0.0;
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j)
            if (i != j)
                s += std::norm(a(i, j));
    return s;
}

/**
 * One Jacobi sweep step: build the 2x2 unitary that annihilates
 * a(p,q) of a Hermitian matrix and apply it from both sides,
 * accumulating into v.
 */
void
jacobiRotate(Matrix &a, Matrix &v, int p, int q)
{
    const Complex apq = a(p, q);
    const double mag = std::abs(apq);
    if (mag == 0.0)
        return;
    const double app = a(p, p).real();
    const double aqq = a(q, q).real();
    // Phase that makes the off-diagonal entry real positive.
    const Complex phase = apq / mag;
    // Classic symmetric Jacobi angle on the phase-rotated problem;
    // the zeroing condition for this rotation convention is
    // tan(2*theta) = 2*mag / (app - aqq).
    const double zeta = (app - aqq) / (2.0 * mag);
    const double t = (zeta >= 0.0)
        ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
        : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
    const double c = 1.0 / std::sqrt(1.0 + t * t);
    const double s = t * c;
    const Complex sp = s * phase;

    const int n = a.rows();
    // A <- J^dagger A J with J = [[c, -conj(sp)], [sp? ...]] realised
    // column-wise: col_p' = c*col_p + conj(sp)*col_q,
    //              col_q' = -sp*col_p + c*col_q.
    for (int i = 0; i < n; ++i) {
        const Complex aip = a(i, p);
        const Complex aiq = a(i, q);
        a(i, p) = c * aip + std::conj(sp) * aiq;
        a(i, q) = -sp * aip + c * aiq;
    }
    for (int j = 0; j < n; ++j) {
        const Complex apj = a(p, j);
        const Complex aqj = a(q, j);
        a(p, j) = c * apj + sp * aqj;
        a(q, j) = -std::conj(sp) * apj + c * aqj;
    }
    for (int i = 0; i < n; ++i) {
        const Complex vip = v(i, p);
        const Complex viq = v(i, q);
        v(i, p) = c * vip + std::conj(sp) * viq;
        v(i, q) = -sp * vip + c * viq;
    }
}

/** Sort eigenpairs ascending by eigenvalue. */
void
sortEigenpairs(EigResult &r)
{
    const int n = static_cast<int>(r.values.size());
    // Fixed scratch for the small sizes everything here uses; the
    // permuted copies stay inline thanks to the Matrix SBO.
    std::array<int, Matrix::kInlineDim> orderSmall;
    std::array<double, Matrix::kInlineDim> wSmall;
    std::vector<int> orderBig;
    std::vector<double> wBig;
    int *order = orderSmall.data();
    double *w = wSmall.data();
    if (n > Matrix::kInlineDim) {
        orderBig.resize(n);
        wBig.resize(n);
        order = orderBig.data();
        w = wBig.data();
    }
    for (int j = 0; j < n; ++j)
        order[j] = j;
    std::sort(order, order + n, [&](int a, int b) {
        return r.values[a] < r.values[b];
    });
    Matrix v;
    v.resizeForOverwrite(n, n);
    for (int j = 0; j < n; ++j) {
        w[j] = r.values[order[j]];
        for (int i = 0; i < n; ++i)
            v(i, j) = r.vectors(i, order[j]);
    }
    std::copy_n(w, n, r.values.begin());
    r.vectors = std::move(v);
}

/** jacobiRotate on the fixed-size path's raw storage. */
template <int N>
void
jacobiRotateFixed(Cx (&a)[N][N], Cx (&v)[N][N], int p, int q)
{
    const Cx apq = a[p][q];
    const double mag = abs(apq);
    if (mag == 0.0)
        return;
    const double app = a[p][p].re;
    const double aqq = a[q][q].re;
    const Cx phase = apq / mag;
    const double zeta = (app - aqq) / (2.0 * mag);
    const double t = (zeta >= 0.0)
        ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
        : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
    const double c = 1.0 / std::sqrt(1.0 + t * t);
    const double s = t * c;
    const Cx sp = s * phase;
    for (int i = 0; i < N; ++i) {
        const Cx aip = a[i][p];
        const Cx aiq = a[i][q];
        a[i][p] = c * aip + conj(sp) * aiq;
        a[i][q] = -sp * aip + c * aiq;
    }
    for (int j = 0; j < N; ++j) {
        const Cx apj = a[p][j];
        const Cx aqj = a[q][j];
        a[p][j] = c * apj + sp * aqj;
        a[q][j] = -conj(sp) * apj + c * aqj;
    }
    for (int i = 0; i < N; ++i) {
        const Cx vip = v[i][p];
        const Cx viq = v[i][q];
        v[i][p] = c * vip + conj(sp) * viq;
        v[i][q] = -sp * vip + c * viq;
    }
}

/**
 * eighGeneric for a compile-time N, on raw doubles in local arrays.
 * Every statement mirrors the generic one — same pair order, sweep
 * cap, off-diagonal test, early exits and sort comparator — so the
 * result is bit-identical; the win is full unrolling and no Matrix
 * indexing or std::complex temporaries in the sweeps.
 */
template <int N>
EigResult
jacobiEigFixed(const Matrix &in)
{
    Cx a[N][N];
    Cx v[N][N];
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j) {
            a[i][j] = {in(i, j).real(), in(i, j).imag()};
            v[i][j] = {i == j ? 1.0 : 0.0, 0.0};
        }
    const double scale = std::max(in.frobeniusNorm(), 1e-300);
    for (int sweep = 0; sweep < 100; ++sweep) {
        double off = 0.0;
        for (int i = 0; i < N; ++i)
            for (int j = 0; j < N; ++j)
                if (i != j)
                    off += norm(a[i][j]);
        if (std::sqrt(off) < 1e-15 * scale)
            break;
        for (int p = 0; p < N - 1; ++p)
            for (int q = p + 1; q < N; ++q)
                jacobiRotateFixed(a, v, p, q);
    }
    double w[N];
    int order[N];
    for (int j = 0; j < N; ++j) {
        w[j] = a[j][j].re;
        order[j] = j;
    }
    std::sort(order, order + N,
              [&](int x, int y) { return w[x] < w[y]; });
    EigResult r;
    r.values.resize(N);
    r.vectors.resizeForOverwrite(N, N);
    for (int j = 0; j < N; ++j) {
        r.values[j] = w[order[j]];
        for (int i = 0; i < N; ++i)
            r.vectors(i, j) =
                Complex(v[i][order[j]].re, v[i][order[j]].im);
    }
    return r;
}

/** The one dispatch point: fixed-size for n in {2, 4}. */
EigResult
jacobiEig(const Matrix &a)
{
    switch (a.rows()) {
      case 2: return jacobiEigFixed<2>(a);
      case 4: return jacobiEigFixed<4>(a);
      default: return eighGeneric(a);
    }
}

} // namespace

EigResult
eighGeneric(const Matrix &in)
{
    assert(in.rows() == in.cols());
    Matrix a = in;
    const int n = a.rows();
    Matrix v = Matrix::identity(n);
    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    for (int sweep = 0; sweep < 100; ++sweep) {
        if (std::sqrt(offDiagonalNorm2(a)) < 1e-15 * scale)
            break;
        for (int p = 0; p < n - 1; ++p)
            for (int q = p + 1; q < n; ++q)
                jacobiRotate(a, v, p, q);
    }
    EigResult r;
    r.values.resize(n);
    for (int i = 0; i < n; ++i)
        r.values[i] = a(i, i).real();
    r.vectors = std::move(v);
    sortEigenpairs(r);
    return r;
}

EigResult
eigh(const Matrix &a)
{
    assert(a.rows() == a.cols());
    assert(a.isHermitian(1e-8 * std::max(1.0, a.maxAbs())));
    return jacobiEig(a);
}

EigResult
eighReal(const Matrix &a)
{
    EigResult r = jacobiEig(a);
    // Rotations of a real matrix stay real; scrub numerical dust so the
    // caller can rely on exact realness.
    for (int i = 0; i < r.vectors.rows(); ++i)
        for (int j = 0; j < r.vectors.cols(); ++j)
            r.vectors(i, j) = Complex(r.vectors(i, j).real(), 0.0);
    return r;
}

Matrix
simultaneousDiagonalize(const Matrix &a, const Matrix &b)
{
    assert(a.rows() == a.cols() && b.rows() == b.cols());
    assert(a.rows() == b.rows());
    const int n = a.rows();

    // Diagonalize a first; then within each (near-)degenerate
    // eigenvalue cluster of a, diagonalize the restriction of b.
    EigResult ea = eighReal(a);
    Matrix q = ea.vectors;

    const double scale =
        std::max({a.maxAbs(), b.maxAbs(), 1.0});
    const double cluster_tol = 1e-7 * scale;

    int start = 0;
    while (start < n) {
        int end = start + 1;
        while (end < n &&
               std::abs(ea.values[end] - ea.values[start]) < cluster_tol)
            ++end;
        const int m = end - start;
        if (m > 1) {
            // Restrict b to the cluster subspace and diagonalize.
            Matrix sub(m, m);
            // sub = Qc^T b Qc where Qc are the cluster columns.
            for (int i = 0; i < m; ++i)
                for (int j = 0; j < m; ++j) {
                    Complex s(0.0, 0.0);
                    for (int r = 0; r < n; ++r)
                        for (int c = 0; c < n; ++c)
                            s += q(r, start + i) * b(r, c) *
                                 q(c, start + j);
                    sub(i, j) = Complex(s.real(), 0.0);
                }
            // Symmetrize against roundoff.
            Matrix subs = (sub + sub.transpose()) * Complex(0.5, 0.0);
            EigResult eb = eighReal(subs);
            // Rotate the cluster columns of q by eb.vectors.
            Matrix newcols(n, m);
            for (int r = 0; r < n; ++r)
                for (int j = 0; j < m; ++j) {
                    Complex s(0.0, 0.0);
                    for (int i = 0; i < m; ++i)
                        s += q(r, start + i) * eb.vectors(i, j);
                    newcols(r, j) = s;
                }
            for (int r = 0; r < n; ++r)
                for (int j = 0; j < m; ++j)
                    q(r, start + j) =
                        Complex(newcols(r, j).real(), 0.0);
        }
        start = end;
    }

    // Force det(q) = +1 (q is real orthogonal, so det = +-1) by
    // flipping the last column if necessary.
    if (determinant(q).real() < 0.0)
        for (int r = 0; r < n; ++r)
            q(r, n - 1) = -q(r, n - 1);
    return q;
}

} // namespace reqisc::qmath
