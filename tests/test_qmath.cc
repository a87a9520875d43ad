/**
 * @file
 * Unit and property tests for the qmath substrate.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "qmath/eig.hh"
#include "qmath/expm.hh"
#include "qmath/matrix.hh"
#include "qmath/optimize.hh"
#include "qmath/random.hh"
#include "qmath/svd.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::qmath;

TEST(Matrix, IdentityAndMultiply)
{
    Matrix id = Matrix::identity(3);
    Matrix a(3, 3);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            a(i, j) = Complex(i + 1, j - 1);
    EXPECT_MATRIX_NEAR(a * id, a, 1e-15);
    EXPECT_MATRIX_NEAR(id * a, a, 1e-15);
}

TEST(Matrix, DaggerInvolution)
{
    Rng rng(7);
    Matrix a = randomGinibre(4, rng);
    EXPECT_MATRIX_NEAR(a.dagger().dagger(), a, 1e-15);
}

TEST(Matrix, TraceOfProductCyclic)
{
    Rng rng(11);
    Matrix a = randomGinibre(4, rng);
    Matrix b = randomGinibre(4, rng);
    Complex t1 = (a * b).trace();
    Complex t2 = (b * a).trace();
    EXPECT_NEAR(std::abs(t1 - t2), 0.0, 1e-10);
}

TEST(Matrix, KronMixedProduct)
{
    // (A (x) B)(C (x) D) = AC (x) BD.
    Rng rng(13);
    Matrix a = randomGinibre(2, rng), b = randomGinibre(2, rng);
    Matrix c = randomGinibre(2, rng), d = randomGinibre(2, rng);
    EXPECT_MATRIX_NEAR(kron(a, b) * kron(c, d), kron(a * c, b * d),
                       1e-9);
}

TEST(Matrix, PauliAlgebra)
{
    EXPECT_MATRIX_NEAR(pauliX() * pauliX(), Matrix::identity(2), 1e-15);
    EXPECT_MATRIX_NEAR(pauliY() * pauliY(), Matrix::identity(2), 1e-15);
    EXPECT_MATRIX_NEAR(pauliZ() * pauliZ(), Matrix::identity(2), 1e-15);
    // XY = iZ
    EXPECT_MATRIX_NEAR(pauliX() * pauliY(), pauliZ() * kI, 1e-15);
    // Two-qubit products commute pairwise.
    Matrix c1 = pauliXX() * pauliYY() - pauliYY() * pauliXX();
    EXPECT_NEAR(c1.maxAbs(), 0.0, 1e-15);
}

TEST(Matrix, ApproxEqualUpToPhase)
{
    Rng rng(17);
    Matrix u = randomUnitary(4, rng);
    Matrix v = u * std::exp(Complex(0.0, 1.234));
    EXPECT_TRUE(u.approxEqualUpToPhase(v, 1e-12));
    EXPECT_FALSE(u.approxEqual(v, 1e-12));
}

TEST(Matrix, KronFactorExact)
{
    Rng rng(19);
    for (int rep = 0; rep < 20; ++rep) {
        Matrix a = randomSU2(rng), b = randomSU2(rng);
        Matrix m = kron(a, b);
        Matrix fa, fb;
        double resid = kronFactor2x2(m, fa, fb);
        EXPECT_LT(resid, 1e-8);
        EXPECT_MATRIX_NEAR(kron(fa, fb), m, 1e-8);
    }
}

class EighProperty : public ::testing::TestWithParam<int> {};

TEST_P(EighProperty, RandomHermitianRoundTrip)
{
    const int n = GetParam();
    Rng rng(100 + n);
    for (int rep = 0; rep < 10; ++rep) {
        Matrix h = randomHermitian(n, rng);
        EigResult e = eigh(h);
        EXPECT_TRUE(e.vectors.isUnitary(1e-10));
        Matrix d(n, n);
        for (int i = 0; i < n; ++i)
            d(i, i) = e.values[i];
        EXPECT_MATRIX_NEAR(e.vectors * d * e.vectors.dagger(), h, 1e-9);
        // Ascending order.
        for (int i = 1; i < n; ++i)
            EXPECT_LE(e.values[i - 1], e.values[i] + 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighProperty,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Eigh, DiagonalMatrix)
{
    Matrix d(3, 3);
    d(0, 0) = 3.0; d(1, 1) = -1.0; d(2, 2) = 0.5;
    EigResult e = eigh(d);
    EXPECT_NEAR(e.values[0], -1.0, 1e-12);
    EXPECT_NEAR(e.values[1], 0.5, 1e-12);
    EXPECT_NEAR(e.values[2], 3.0, 1e-12);
}

TEST(Eigh, DegenerateSpectrum)
{
    // XX has eigenvalues {-1,-1,1,1}; check the reconstruction.
    EigResult e = eigh(pauliXX());
    Matrix d(4, 4);
    for (int i = 0; i < 4; ++i)
        d(i, i) = e.values[i];
    EXPECT_MATRIX_NEAR(e.vectors * d * e.vectors.dagger(), pauliXX(),
                       1e-10);
}

TEST(SimultaneousDiag, CommutingPair)
{
    // Build commuting symmetric real matrices from a shared eigenbasis.
    Rng rng(23);
    for (int rep = 0; rep < 10; ++rep) {
        // Random rotation via QR on a real matrix.
        Matrix g(4, 4);
        std::normal_distribution<double> nd(0.0, 1.0);
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                g(i, j) = nd(rng);
        // Orthogonalize columns (Gram-Schmidt).
        for (int j = 0; j < 4; ++j) {
            for (int k = 0; k < j; ++k) {
                Complex p(0, 0);
                for (int i = 0; i < 4; ++i)
                    p += g(i, k) * g(i, j);
                for (int i = 0; i < 4; ++i)
                    g(i, j) -= p * g(i, k);
            }
            double nn = 0;
            for (int i = 0; i < 4; ++i)
                nn += std::norm(g(i, j));
            for (int i = 0; i < 4; ++i)
                g(i, j) *= Complex(1.0 / std::sqrt(nn), 0.0);
        }
        Matrix da(4, 4), db(4, 4);
        // Degenerate a-spectrum forces the cluster path.
        da(0, 0) = 1.0; da(1, 1) = 1.0; da(2, 2) = -2.0; da(3, 3) = 0.0;
        db(0, 0) = 5.0; db(1, 1) = -3.0; db(2, 2) = 7.0; db(3, 3) = 2.0;
        Matrix a = g * da * g.transpose();
        Matrix b = g * db * g.transpose();
        Matrix q = simultaneousDiagonalize(a, b);
        Matrix qa = q.transpose() * a * q;
        Matrix qb = q.transpose() * b * q;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                if (i != j) {
                    EXPECT_NEAR(std::abs(qa(i, j)), 0.0, 1e-7);
                    EXPECT_NEAR(std::abs(qb(i, j)), 0.0, 1e-7);
                }
        EXPECT_TRUE(q.isUnitary(1e-9));
    }
}

class SvdProperty : public ::testing::TestWithParam<int> {};

TEST_P(SvdProperty, RandomRoundTrip)
{
    const int n = GetParam();
    Rng rng(31 + n);
    for (int rep = 0; rep < 10; ++rep) {
        Matrix a = randomGinibre(n, rng);
        SvdResult r = svd(a);
        EXPECT_TRUE(r.u.isUnitary(1e-9));
        EXPECT_TRUE(r.v.isUnitary(1e-9));
        Matrix s(n, n);
        for (int i = 0; i < n; ++i) {
            s(i, i) = r.s[i];
            EXPECT_GE(r.s[i], 0.0);
            if (i > 0) {
                EXPECT_LE(r.s[i], r.s[i - 1] + 1e-12);
            }
        }
        EXPECT_MATRIX_NEAR(r.u * s * r.v.dagger(), a, 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdProperty,
                         ::testing::Values(2, 3, 4, 8));

TEST(Svd, RankDeficient)
{
    Matrix a(3, 3);
    a(0, 0) = 1.0;  // rank one
    SvdResult r = svd(a);
    EXPECT_NEAR(r.s[0], 1.0, 1e-12);
    EXPECT_NEAR(r.s[1], 0.0, 1e-12);
    EXPECT_NEAR(r.s[2], 0.0, 1e-12);
    EXPECT_TRUE(r.u.isUnitary(1e-9));
}

TEST(Svd, ZeroAndTinyMatricesGiveFiniteUnitaryFactors)
{
    // |a| below ~1e-154 underflows the rotation threshold to 0; the
    // zero pairs must be skipped, not divided through (0/0 = NaN).
    Rng rng(43);
    for (int n : {2, 4}) {
        const Matrix x = randomGinibre(n, rng);
        Matrix tiny(n, n);  // 1e-170 * x_0 x_1^dagger, rank one
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                tiny(i, j) = 1e-170 * x(i, 0) * std::conj(x(j, 1));
        for (const Matrix &a : {Matrix(n, n), tiny}) {
            for (auto solve : {&svd, &svdGeneric}) {
                const SvdResult r = solve(a);
                for (double s : r.s) {
                    EXPECT_GE(s, 0.0);
                    EXPECT_LE(s, 1e-168);
                }
                for (const Matrix *m : {&r.u, &r.v})
                    for (int k = 0; k < n * n; ++k)
                        EXPECT_TRUE(std::isfinite(m->data()[k].real()) &&
                                    std::isfinite(m->data()[k].imag()))
                            << "n=" << n;
                EXPECT_TRUE(r.u.isUnitary(1e-12)) << "n=" << n;
                EXPECT_TRUE(r.v.isUnitary(1e-12)) << "n=" << n;
            }
            EXPECT_TRUE(polarUnitary(a).isUnitary(1e-12)) << "n=" << n;
        }
    }
}

TEST(Matrix, NaNIsNeverNear)
{
    Matrix m = Matrix::identity(2);
    m(0, 1) = Complex(std::nan(""), 0.0);
    EXPECT_FALSE(m.isUnitary());
    EXPECT_FALSE(m.isHermitian());
    EXPECT_FALSE(m.approxEqual(m));
    EXPECT_FALSE(m.approxEqualUpToPhase(m));
    EXPECT_FALSE(test::matrixNear(m, m, 1e-8));
}

TEST(Svd, PolarUnitaryOfUnitaryIsItself)
{
    Rng rng(37);
    Matrix u = randomUnitary(4, rng);
    EXPECT_MATRIX_NEAR(polarUnitary(u), u, 1e-8);
}

TEST(Expm, MatchesSeriesForSmallGenerator)
{
    Rng rng(41);
    Matrix h = randomHermitian(4, rng);
    const double t = 0.01;
    // 4th order Taylor comparison.
    Matrix acc = Matrix::identity(4);
    Matrix term = Matrix::identity(4);
    for (int k = 1; k <= 8; ++k) {
        term = term * h * Complex(0.0, -t) * Complex(1.0 / k, 0.0);
        acc += term;
    }
    EXPECT_MATRIX_NEAR(expim(h, t), acc, 1e-10);
}

TEST(Expm, UnitaryAndInverse)
{
    Rng rng(43);
    Matrix h = randomHermitian(4, rng);
    Matrix u = expim(h, 0.7);
    EXPECT_TRUE(u.isUnitary(1e-10));
    EXPECT_MATRIX_NEAR(u * expimPlus(h, 0.7), Matrix::identity(4),
                       1e-10);
}

TEST(Expm, PauliRotationClosedForm)
{
    // exp(-i t X) = cos t I - i sin t X.
    const double t = 0.3;
    Matrix expect = Matrix::identity(2) * Complex(std::cos(t), 0.0) -
                    pauliX() * Complex(0.0, std::sin(t));
    EXPECT_MATRIX_NEAR(expim(pauliX(), t), expect, 1e-12);
}

TEST(Random, UnitaryIsUnitary)
{
    Rng rng(47);
    for (int n : {2, 4, 8}) {
        Matrix u = randomUnitary(n, rng);
        EXPECT_TRUE(u.isUnitary(1e-10));
    }
}

TEST(Random, SU2HasUnitDeterminant)
{
    Rng rng(53);
    for (int rep = 0; rep < 5; ++rep) {
        Matrix u = randomSU2(rng);
        Complex det = u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0);
        EXPECT_NEAR(std::abs(det - Complex(1.0, 0.0)), 0.0, 1e-10);
    }
}

TEST(Random, Deterministic)
{
    Rng a(99), b(99);
    EXPECT_MATRIX_NEAR(randomUnitary(4, a), randomUnitary(4, b), 0.0);
}

TEST(Optimize, NelderMeadQuadratic)
{
    auto f = [](const std::vector<double> &x) {
        return (x[0] - 1.0) * (x[0] - 1.0) +
               10.0 * (x[1] + 2.0) * (x[1] + 2.0);
    };
    MinimizeResult r = nelderMead(f, {0.0, 0.0}, 0.5);
    EXPECT_NEAR(r.x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.x[1], -2.0, 1e-5);
}

TEST(Optimize, NewtonSolve2D)
{
    // Roots of (x^2 + y^2 - 4, x - y).
    auto f = [](const std::vector<double> &v) {
        return std::vector<double>{v[0] * v[0] + v[1] * v[1] - 4.0,
                                   v[0] - v[1]};
    };
    RootResult r = newtonSolve(f, {1.0, 0.5});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(std::abs(r.x[0]), std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(r.x[0], r.x[1], 1e-9);
}

TEST(Optimize, Bisect)
{
    double root = bisect([](double x) { return x * x - 2.0; },
                         0.0, 2.0);
    EXPECT_NEAR(root, std::sqrt(2.0), 1e-12);
}
