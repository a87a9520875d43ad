#include "qmath/svd.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "qmath/raw_complex.hh"

namespace reqisc::qmath
{

namespace
{

using detail::Cx;

/**
 * svdGeneric for a compile-time N, on raw doubles in local arrays.
 * Every statement mirrors the generic one it replaces — same pair
 * order, sweep cap, thresholds, early exits, sort comparator, final
 * divisions and column completion — so the result is bit-identical;
 * the win is full unrolling and no Matrix indexing or std::complex
 * temporaries in the sweeps.
 */
template <int N>
SvdResult
svdFixed(const Matrix &a)
{
    Cx u[N][N];    // becomes U * Sigma
    Cx v[N][N];    // accumulates V
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j) {
            u[i][j] = {a(i, j).real(), a(i, j).imag()};
            v[i][j] = {i == j ? 1.0 : 0.0, 0.0};
        }

    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    const double skipBelow = 1e-18 * scale * scale;
    const double doneBelow = 1e-15 * scale * scale;
    for (int sweep = 0; sweep < 120; ++sweep) {
        double off = 0.0;
        for (int p = 0; p < N - 1; ++p) {
            for (int q = p + 1; q < N; ++q) {
                Cx cpq{0.0, 0.0};
                double app = 0.0, aqq = 0.0;
                for (int i = 0; i < N; ++i) {
                    app += norm(u[i][p]);
                    aqq += norm(u[i][q]);
                    cpq += conj(u[i][p]) * u[i][q];
                }
                const double mag = abs(cpq);
                off = std::max(off, mag);
                if (mag < skipBelow || mag == 0.0)
                    continue;
                const Cx phase = cpq / mag;
                const double zeta = (app - aqq) / (2.0 * mag);
                const double t = (zeta >= 0.0)
                    ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                    : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;
                const Cx sp = s * phase;
                for (int i = 0; i < N; ++i) {
                    const Cx uip = u[i][p];
                    const Cx uiq = u[i][q];
                    u[i][p] = c * uip + conj(sp) * uiq;
                    u[i][q] = -sp * uip + c * uiq;
                }
                for (int i = 0; i < N; ++i) {
                    const Cx vip = v[i][p];
                    const Cx viq = v[i][q];
                    v[i][p] = c * vip + conj(sp) * viq;
                    v[i][q] = -sp * vip + c * viq;
                }
            }
        }
        if (off < doneBelow || off == 0.0)
            break;
    }

    // Singular values descending, then the zero-column completion.
    double nrm[N];
    int order[N];
    for (int j = 0; j < N; ++j) {
        double s2 = 0.0;
        for (int i = 0; i < N; ++i)
            s2 += norm(u[i][j]);
        nrm[j] = std::sqrt(s2);
        order[j] = j;
    }
    std::sort(order, order + N,
              [&](int x, int y) { return nrm[x] > nrm[y]; });

    SvdResult out;
    out.s.resize(N);
    Cx ou[N][N] = {};
    out.v.resizeForOverwrite(N, N);
    for (int j = 0; j < N; ++j) {
        const int src = order[j];
        out.s[j] = nrm[src];
        for (int i = 0; i < N; ++i)
            out.v(i, j) = Complex(v[i][src].re, v[i][src].im);
        if (nrm[src] > 1e-300)
            for (int i = 0; i < N; ++i)
                ou[i][j] = u[i][src] / nrm[src];
    }

    for (int j = 0; j < N; ++j) {
        double cn = 0.0;
        for (int i = 0; i < N; ++i)
            cn += norm(ou[i][j]);
        if (cn > 0.5)
            continue;
        for (int cand = 0; cand < N; ++cand) {
            Cx e[N] = {};
            e[cand] = {1.0, 0.0};
            for (int k = 0; k < N; ++k) {
                if (k == j)
                    continue;
                Cx proj{0.0, 0.0};
                for (int i = 0; i < N; ++i)
                    proj += conj(ou[i][k]) * e[i];
                for (int i = 0; i < N; ++i)
                    e[i] -= proj * ou[i][k];
            }
            double en2 = 0.0;
            for (int i = 0; i < N; ++i)
                en2 += norm(e[i]);
            const double en = std::sqrt(en2);
            if (en > 1e-6) {
                for (int i = 0; i < N; ++i)
                    ou[i][j] = e[i] / en;
                break;
            }
        }
    }
    out.u.resizeForOverwrite(N, N);
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            out.u(i, j) = Complex(ou[i][j].re, ou[i][j].im);
    return out;
}

} // namespace

SvdResult
svd(const Matrix &a)
{
    assert(a.rows() == a.cols());
    switch (a.rows()) {
      case 2: return svdFixed<2>(a);
      case 4: return svdFixed<4>(a);
      default: return svdGeneric(a);
    }
}

SvdResult
svdGeneric(const Matrix &a)
{
    assert(a.rows() == a.cols());
    const int n = a.rows();
    Matrix u = a;                      // becomes U * Sigma
    Matrix v = Matrix::identity(n);    // accumulates V

    const double scale = std::max(a.frobeniusNorm(), 1e-300);
    for (int sweep = 0; sweep < 120; ++sweep) {
        double off = 0.0;
        for (int p = 0; p < n - 1; ++p) {
            for (int q = p + 1; q < n; ++q) {
                // 2x2 Gram matrix of columns p, q.
                Complex cpq(0.0, 0.0);
                double app = 0.0, aqq = 0.0;
                for (int i = 0; i < n; ++i) {
                    app += std::norm(u(i, p));
                    aqq += std::norm(u(i, q));
                    cpq += std::conj(u(i, p)) * u(i, q);
                }
                const double mag = std::abs(cpq);
                off = std::max(off, mag);
                // mag == 0 only gets here when the threshold
                // underflowed (|a| below ~1e-154): nothing to rotate,
                // and the phase below would be 0/0.
                if (mag < 1e-18 * scale * scale || mag == 0.0)
                    continue;
                const Complex phase = cpq / mag;
                const double zeta = (app - aqq) / (2.0 * mag);
                const double t = (zeta >= 0.0)
                    ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                    : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;
                const Complex sp = s * phase;
                for (int i = 0; i < n; ++i) {
                    const Complex uip = u(i, p);
                    const Complex uiq = u(i, q);
                    u(i, p) = c * uip + std::conj(sp) * uiq;
                    u(i, q) = -sp * uip + c * uiq;
                }
                for (int i = 0; i < n; ++i) {
                    const Complex vip = v(i, p);
                    const Complex viq = v(i, q);
                    v(i, p) = c * vip + std::conj(sp) * viq;
                    v(i, q) = -sp * vip + c * viq;
                }
            }
        }
        if (off < 1e-15 * scale * scale || off == 0.0)
            break;
    }

    // Column norms of U*Sigma are the singular values. Fixed scratch
    // for the small sizes synthesis uses (the Matrix temporaries are
    // already inline via the small-buffer optimization; the result's
    // std::vector s is the one remaining allocation).
    std::array<double, Matrix::kInlineDim> nrmSmall;
    std::array<int, Matrix::kInlineDim> orderSmall;
    std::vector<double> nrmBig;
    std::vector<int> orderBig;
    double *nrm = nrmSmall.data();
    int *order = orderSmall.data();
    if (n > Matrix::kInlineDim) {
        nrmBig.resize(n);
        orderBig.resize(n);
        nrm = nrmBig.data();
        order = orderBig.data();
    }
    for (int j = 0; j < n; ++j) {
        double s2 = 0.0;
        for (int i = 0; i < n; ++i)
            s2 += std::norm(u(i, j));
        nrm[j] = std::sqrt(s2);
        order[j] = j;
    }

    // Sort singular values descending, permuting u and v columns
    // (normalizing u's as they land).
    std::sort(order, order + n,
              [&](int x, int y) { return nrm[x] > nrm[y]; });
    SvdResult out;
    out.s.resize(n);
    out.u.setZero(n, n);
    out.v.resizeForOverwrite(n, n);
    for (int j = 0; j < n; ++j) {
        const int src = order[j];
        out.s[j] = nrm[src];
        for (int i = 0; i < n; ++i)
            out.v(i, j) = v(i, src);
        if (nrm[src] > 1e-300)
            for (int i = 0; i < n; ++i)
                out.u(i, j) = u(i, src) / nrm[src];
    }

    // Complete zero columns of u into an orthonormal basis so u is
    // always exactly unitary (needed by polarUnitary for singular a).
    for (int j = 0; j < n; ++j) {
        double nrm = 0.0;
        for (int i = 0; i < n; ++i)
            nrm += std::norm(out.u(i, j));
        if (nrm > 0.5)
            continue;
        // Gram-Schmidt a unit vector against the existing columns.
        for (int cand = 0; cand < n; ++cand) {
            Matrix e(n, 1);
            e(cand, 0) = 1.0;
            for (int k = 0; k < n; ++k) {
                if (k == j)
                    continue;
                Complex proj(0.0, 0.0);
                for (int i = 0; i < n; ++i)
                    proj += std::conj(out.u(i, k)) * e(i, 0);
                for (int i = 0; i < n; ++i)
                    e(i, 0) -= proj * out.u(i, k);
            }
            double en = e.frobeniusNorm();
            if (en > 1e-6) {
                for (int i = 0; i < n; ++i)
                    out.u(i, j) = e(i, 0) / en;
                break;
            }
        }
    }
    return out;
}

Matrix
polarUnitary(const Matrix &a)
{
    SvdResult r = svd(a);
    return r.u * r.v.dagger();
}

} // namespace reqisc::qmath
