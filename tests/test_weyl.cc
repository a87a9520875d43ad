/**
 * @file
 * Tests for the Weyl chamber geometry and KAK decomposition.
 */

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "qmath/expm.hh"
#include "qmath/random.hh"
#include "test_util.hh"
#include "weyl/su2.hh"
#include "weyl/weyl.hh"

using namespace reqisc;
using namespace reqisc::qmath;
using namespace reqisc::weyl;

namespace
{

constexpr double kPi = std::numbers::pi;

Matrix
cnotMatrix()
{
    Matrix m(4, 4);
    m(0, 0) = 1.0;
    m(1, 1) = 1.0;
    m(2, 3) = 1.0;
    m(3, 2) = 1.0;
    return m;
}

Matrix
czMatrix()
{
    Matrix m = Matrix::identity(4);
    m(3, 3) = -1.0;
    return m;
}

Matrix
swapMatrix()
{
    Matrix m(4, 4);
    m(0, 0) = 1.0;
    m(1, 2) = 1.0;
    m(2, 1) = 1.0;
    m(3, 3) = 1.0;
    return m;
}

Matrix
iswapMatrix()
{
    Matrix m(4, 4);
    m(0, 0) = 1.0;
    m(1, 2) = kI;
    m(2, 1) = kI;
    m(3, 3) = 1.0;
    return m;
}

} // namespace

TEST(CanonicalGate, MatchesExponential)
{
    Rng rng(61);
    std::uniform_real_distribution<double> d(-1.5, 1.5);
    for (int rep = 0; rep < 20; ++rep) {
        WeylCoord c{d(rng), d(rng), d(rng)};
        Matrix h = pauliXX() * Complex(c.x, 0.0) +
                   pauliYY() * Complex(c.y, 0.0) +
                   pauliZZ() * Complex(c.z, 0.0);
        EXPECT_MATRIX_NEAR(canonicalGate(c), expim(h), 1e-10);
    }
}

TEST(CanonicalGate, KnownGates)
{
    // Can(pi/4,0,0) is locally equivalent to CNOT; check unitarity and
    // the explicit CNOT coordinate below instead of matrix equality.
    EXPECT_TRUE(canonicalGate(WeylCoord::cnot()).isUnitary(1e-12));
    // Can(pi/4,pi/4,pi/4) is SWAP up to phase.
    Matrix s = canonicalGate(WeylCoord::swap());
    EXPECT_TRUE(s.approxEqualUpToPhase(swapMatrix(), 1e-12));
    // Can(pi/4,pi/4,0) is iSWAP up to phase/locals: its coordinate
    // must be the iSWAP point.
    EXPECT_TRUE(weylCoordinate(iswapMatrix())
                    .approxEqual(WeylCoord::iswap(), 1e-9));
}

TEST(MagicBasis, IsUnitaryAndDiagonalizesPaulis)
{
    const Matrix &m = magicBasis();
    EXPECT_TRUE(m.isUnitary(1e-14));
    for (const Matrix *p : {&pauliXX(), &pauliYY(), &pauliZZ()}) {
        Matrix d = m.dagger() * (*p) * m;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                if (i != j) {
                    EXPECT_NEAR(std::abs(d(i, j)), 0.0, 1e-12);
                }
    }
}

TEST(WeylCoord, ChamberMembership)
{
    EXPECT_TRUE(WeylCoord::identity().inChamber());
    EXPECT_TRUE(WeylCoord::cnot().inChamber());
    EXPECT_TRUE(WeylCoord::swap().inChamber());
    EXPECT_TRUE(WeylCoord::bgate().inChamber());
    // z < 0 is allowed off the x = pi/4 face ...
    EXPECT_TRUE((WeylCoord{0.5, 0.3, -0.2}).inChamber());
    // ... but not on it.
    EXPECT_FALSE((WeylCoord{kPi / 4.0, 0.3, -0.2}).inChamber());
    EXPECT_FALSE((WeylCoord{0.3, 0.5, 0.1}).inChamber());
    EXPECT_FALSE((WeylCoord{0.9, 0.3, 0.1}).inChamber());
}

TEST(Kak, KnownCoordinates)
{
    EXPECT_TRUE(weylCoordinate(cnotMatrix())
                    .approxEqual(WeylCoord::cnot(), 1e-9));
    EXPECT_TRUE(weylCoordinate(czMatrix())
                    .approxEqual(WeylCoord::cnot(), 1e-9));
    EXPECT_TRUE(weylCoordinate(swapMatrix())
                    .approxEqual(WeylCoord::swap(), 1e-9));
    EXPECT_TRUE(weylCoordinate(iswapMatrix())
                    .approxEqual(WeylCoord::iswap(), 1e-9));
    EXPECT_TRUE(weylCoordinate(Matrix::identity(4))
                    .approxEqual(WeylCoord::identity(), 1e-9));
}

TEST(Kak, LocalGatesHaveZeroCoordinate)
{
    Rng rng(67);
    for (int rep = 0; rep < 10; ++rep) {
        // Right factor first (tools/check_rng_draws.py).
        const Matrix b = randomSU2(rng), a = randomSU2(rng);
        Matrix u = kron(a, b);
        EXPECT_TRUE(weylCoordinate(u).approxEqual(
            WeylCoord::identity(), 1e-8));
    }
}

class KakRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(KakRoundTrip, RandomUnitaries)
{
    Rng rng(1000 + GetParam());
    for (int rep = 0; rep < 25; ++rep) {
        Matrix u = randomUnitary(4, rng);
        KakDecomposition k = kakDecompose(u);
        EXPECT_TRUE(k.coord.inChamber(1e-8))
            << "coord " << k.coord.toString();
        EXPECT_MATRIX_NEAR(k.reconstruct(), u, 1e-9);
        // Factors are in SU(2).
        for (const Matrix *f : {&k.a1, &k.a2, &k.b1, &k.b2}) {
            EXPECT_TRUE(f->isUnitary(1e-9));
            Complex det = (*f)(0, 0) * (*f)(1, 1) -
                          (*f)(0, 1) * (*f)(1, 0);
            EXPECT_NEAR(std::abs(det - Complex(1.0, 0.0)), 0.0, 1e-8);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KakRoundTrip,
                         ::testing::Range(0, 8));

TEST(Kak, CanonicalGateRoundTrip)
{
    // Coordinates already in the chamber must be recovered exactly.
    Rng rng(71);
    std::uniform_real_distribution<double> d(0.0, 1.0);
    for (int rep = 0; rep < 30; ++rep) {
        double x = d(rng) * kPi / 4.0;
        double y = d(rng) * x;
        double z = (2.0 * d(rng) - 1.0) * y;
        if (std::abs(x - kPi / 4.0) < 1e-6)
            z = std::abs(z);
        WeylCoord c{x, y, z};
        WeylCoord got = weylCoordinate(canonicalGate(c));
        EXPECT_TRUE(got.approxEqual(c, 1e-8))
            << "in " << c.toString() << " out " << got.toString();
    }
}

TEST(Kak, InvariantUnderLocalGates)
{
    Rng rng(73);
    for (int rep = 0; rep < 15; ++rep) {
        Matrix u = randomUnitary(4, rng);
        // Right factors first (tools/check_rng_draws.py).
        const Matrix l1 = randomSU2(rng), l0 = randomSU2(rng);
        const Matrix r1 = randomSU2(rng), r0 = randomSU2(rng);
        Matrix l = kron(l0, l1);
        Matrix r = kron(r0, r1);
        EXPECT_TRUE(locallyEquivalent(u, l * u * r, 1e-7));
    }
}

TEST(Kak, HardEdgeCases)
{
    // Gates sitting exactly on chamber boundaries and corners.
    std::vector<WeylCoord> cases = {
        WeylCoord::identity(), WeylCoord::cnot(), WeylCoord::iswap(),
        WeylCoord::swap(), WeylCoord::bgate(), WeylCoord::sqisw(),
        {kPi / 4.0, kPi / 8.0, kPi / 8.0},   // ECP
        {kPi / 4.0, kPi / 4.0, kPi / 8.0},   // QFT corner point
        {1e-9, 1e-10, 0.0},                  // near identity
        {kPi / 4.0, 1e-9, 1e-9},             // near CNOT
    };
    for (const auto &c : cases) {
        Matrix u = canonicalGate(c);
        KakDecomposition k = kakDecompose(u);
        EXPECT_TRUE(k.coord.inChamber(1e-7));
        EXPECT_MATRIX_NEAR(k.reconstruct(), u, 1e-8);
        EXPECT_TRUE(k.coord.approxEqual(c, 1e-7))
            << "in " << c.toString() << " out "
            << k.coord.toString();
    }
}

TEST(Mirror, CoordinateFormula)
{
    // SWAP * Can(c) must be locally equivalent to Can(mirror(c)).
    Rng rng(79);
    for (int rep = 0; rep < 20; ++rep) {
        WeylCoord c = randomWeylCoord(rng);
        Matrix lhs = swapMatrix() * canonicalGate(c);
        WeylCoord m = mirrorCoord(c);
        EXPECT_TRUE(m.inChamber(1e-7))
            << "c " << c.toString() << " mirror " << m.toString();
        EXPECT_TRUE(weylCoordinate(lhs).approxEqual(m, 1e-7))
            << "c " << c.toString() << " mirror " << m.toString()
            << " actual " << weylCoordinate(lhs).toString();
    }
}

TEST(Mirror, NearIdentityMovesFarFromOrigin)
{
    WeylCoord tiny{0.01, 0.005, 0.001};
    WeylCoord m = mirrorCoord(tiny);
    EXPECT_GT(m.norm1(), 1.0);
    // Mirroring twice returns to the original point.
    EXPECT_TRUE(mirrorCoord(m).approxEqual(tiny, 1e-12));
}

TEST(Mirror, SwapMapsToIdentityAndBack)
{
    EXPECT_TRUE(mirrorCoord(WeylCoord::swap())
                    .approxEqual(WeylCoord::identity(), 1e-12));
    EXPECT_TRUE(mirrorCoord(WeylCoord::identity())
                    .approxEqual(WeylCoord::swap(), 1e-12));
}

TEST(U3, RoundTripRandom)
{
    Rng rng(83);
    for (int rep = 0; rep < 30; ++rep) {
        Matrix u = randomSU2(rng);
        U3Angles a = u3Angles(u);
        Matrix back = u3Matrix(a.theta, a.phi, a.lambda) *
                      std::exp(Complex(0.0, a.phase));
        EXPECT_MATRIX_NEAR(back, u, 1e-10);
    }
}

TEST(U3, DiagonalAndAntiDiagonal)
{
    Matrix rz{{std::exp(Complex(0.0, -0.4)), 0.0},
              {0.0, std::exp(Complex(0.0, 0.4))}};
    U3Angles a = u3Angles(rz);
    EXPECT_MATRIX_NEAR(u3Matrix(a.theta, a.phi, a.lambda) *
                           std::exp(Complex(0.0, a.phase)),
                       rz, 1e-10);
    U3Angles b = u3Angles(pauliX());
    EXPECT_MATRIX_NEAR(u3Matrix(b.theta, b.phi, b.lambda) *
                           std::exp(Complex(0.0, b.phase)),
                       pauliX(), 1e-10);
    U3Angles c = u3Angles(pauliY());
    EXPECT_MATRIX_NEAR(u3Matrix(c.theta, c.phi, c.lambda) *
                           std::exp(Complex(0.0, c.phase)),
                       pauliY(), 1e-10);
}
