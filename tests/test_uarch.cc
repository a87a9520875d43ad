/**
 * @file
 * Tests for the genAshN microarchitecture (Algorithm 1).
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "qmath/expm.hh"
#include "qmath/random.hh"
#include "service/persist.hh"
#include "synth/pool.hh"
#include "test_util.hh"
#include "uarch/coupling.hh"
#include "uarch/duration.hh"
#include "uarch/genashn.hh"
#include "weyl/weyl.hh"

using namespace reqisc;
using namespace reqisc::qmath;
using namespace reqisc::uarch;
using reqisc::weyl::WeylCoord;

namespace
{

constexpr double kPi = std::numbers::pi;

} // namespace

TEST(Coupling, StrengthAndFactories)
{
    EXPECT_NEAR(Coupling::xy(1.0).strength(), 1.0, 1e-12);
    EXPECT_NEAR(Coupling::xx(1.0).strength(), 1.0, 1e-12);
    EXPECT_TRUE(Coupling::xy().isCanonical());
    EXPECT_TRUE(Coupling::xx().isCanonical());
    Rng rng(2);
    for (int i = 0; i < 20; ++i) {
        Coupling c = Coupling::random(rng);
        EXPECT_TRUE(c.isCanonical());
        EXPECT_NEAR(c.strength(), 1.0, 1e-9);
    }
}

TEST(Coupling, So3Su2RoundTrip)
{
    Rng rng(5);
    for (int rep = 0; rep < 20; ++rep) {
        Matrix u = randomSU2(rng);
        double r[3][3];
        so3FromSu2(u, r);
        Matrix v = su2FromSo3(r);
        // The lift is unique up to sign.
        EXPECT_TRUE(v.approxEqualUpToPhase(u, 1e-9));
        double r2[3][3];
        so3FromSu2(v, r2);
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                EXPECT_NEAR(r2[i][j], r[i][j], 1e-9);
    }
}

TEST(Coupling, NormalFormCanonicalInput)
{
    // A Hamiltonian already in canonical form must round-trip.
    Coupling c{0.6, 0.3, -0.1};
    HamiltonianNormalForm nf = normalForm(c.hamiltonian());
    EXPECT_NEAR(nf.coupling.a, 0.6, 1e-9);
    EXPECT_NEAR(nf.coupling.b, 0.3, 1e-9);
    EXPECT_NEAR(std::abs(nf.coupling.c), 0.1, 1e-9);
    EXPECT_MATRIX_NEAR(nf.reconstruct(), c.hamiltonian(), 1e-8);
}

TEST(Coupling, NormalFormRandomHermitian)
{
    Rng rng(7);
    for (int rep = 0; rep < 15; ++rep) {
        // Random interaction: rotated canonical + random locals.
        Coupling c = Coupling::random(rng);
        Matrix u1 = randomSU2(rng), u2 = randomSU2(rng);
        Matrix frame = kron(u1, u2);
        Matrix h = frame * c.hamiltonian() * frame.dagger();
        Matrix l1 = randomHermitian(2, rng);
        Matrix l2 = randomHermitian(2, rng);
        h += kron(l1, Matrix::identity(2));
        h += kron(Matrix::identity(2), l2);
        HamiltonianNormalForm nf = normalForm(h);
        EXPECT_TRUE(nf.coupling.isCanonical(1e-8));
        EXPECT_NEAR(nf.coupling.a, c.a, 1e-7);
        EXPECT_NEAR(nf.coupling.b, c.b, 1e-7);
        EXPECT_NEAR(std::abs(nf.coupling.c), std::abs(c.c), 1e-7);
        EXPECT_MATRIX_NEAR(nf.reconstruct(), h, 1e-7);
    }
}

TEST(Duration, Figure6aClosedForms)
{
    // Gate time landscape under XY coupling, Fig 6(a): durations in
    // units of pi/g.
    const Coupling xy = Coupling::xy(1.0);
    auto d = [&](const WeylCoord &c) {
        return optimalDuration(xy, c) / kPi;
    };
    EXPECT_NEAR(d(WeylCoord::sqisw()), 0.25, 1e-12);
    EXPECT_NEAR(d(WeylCoord::iswap()), 0.50, 1e-12);
    EXPECT_NEAR(d(WeylCoord::swap()), 0.75, 1e-12);
    EXPECT_NEAR(d(WeylCoord::cv()), 0.25, 1e-12);
    EXPECT_NEAR(d(WeylCoord::cnot()), 0.50, 1e-12);
    EXPECT_NEAR(d(WeylCoord::bgate()), 0.50, 1e-12);
    // QTSW (pi/16, pi/16, pi/16) = 0.1875; SQSW = 0.375; ECP = 0.5;
    // QFT corner = 0.625 (all from Fig 6a).
    EXPECT_NEAR(d({kPi / 16, kPi / 16, kPi / 16}), 0.1875, 1e-12);
    EXPECT_NEAR(d({kPi / 8, kPi / 8, kPi / 8}), 0.375, 1e-12);
    EXPECT_NEAR(d({kPi / 4, kPi / 8, kPi / 8}), 0.50, 1e-12);
    EXPECT_NEAR(d({kPi / 4, kPi / 4, kPi / 8}), 0.625, 1e-12);
}

TEST(Duration, XxCouplingClosedForms)
{
    // Table 3 single-gate durations under XX coupling.
    const Coupling xx = Coupling::xx(1.0);
    EXPECT_NEAR(optimalDuration(xx, WeylCoord::cnot()), 0.785, 1e-3);
    EXPECT_NEAR(optimalDuration(xx, WeylCoord::iswap()), 1.571, 1e-3);
    EXPECT_NEAR(optimalDuration(xx, WeylCoord::sqisw()), 0.785, 1e-3);
    EXPECT_NEAR(optimalDuration(xx, WeylCoord::bgate()), 1.178, 1e-3);
}

TEST(Duration, CnotSpeedupOverConventional)
{
    // pi/2g vs pi/sqrt(2)g: the 1.41x speedup claimed in Section 4.4.
    const double ours = optimalDuration(Coupling::xy(1.0),
                                        WeylCoord::cnot());
    const double conv = conventionalCnotDuration(1.0);
    EXPECT_NEAR(conv / ours, std::sqrt(2.0), 1e-9);
}

TEST(Duration, MirrorBranchHelpsNegativeCCouplings)
{
    // Under XY coupling the mirrored branch never wins (tau2 >= tau1
    // across the chamber); with c < 0 it does, e.g. for gates whose
    // x+y+z constraint binds through the weak a+b+c denominator.
    const Coupling xy = Coupling::xy(1.0);
    Rng rng(31);
    for (int rep = 0; rep < 50; ++rep) {
        DurationInfo i = durationInfo(xy, weyl::randomWeylCoord(rng));
        EXPECT_GE(i.tau2, i.tau1 - 1e-12);
    }
    const Coupling neg{0.5, 0.3, -0.2};
    DurationInfo info =
        durationInfo(neg, {0.2 * kPi, 0.15 * kPi, 0.1 * kPi});
    EXPECT_TRUE(info.usesMirrorBranch);
    EXPECT_LT(info.tau2, info.tau1);
    // The effective coordinate is the local-equivalent mirror.
    EXPECT_NEAR(info.effective.x, kPi / 2.0 - 0.2 * kPi, 1e-12);
    EXPECT_NEAR(info.effective.z, -0.1 * kPi, 1e-12);
}

TEST(Duration, HaarAverageXy)
{
    // Table 3: average SU(4) duration 1.341/g under XY coupling.
    Rng rng(11);
    const Coupling xy = Coupling::xy(1.0);
    double acc = 0.0;
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        acc += optimalDuration(xy, weyl::randomWeylCoord(rng));
    EXPECT_NEAR(acc / n, 1.341, 0.03);
}

TEST(Duration, HaarAverageXx)
{
    // Table 3: average SU(4) duration 1.178/g under XX coupling.
    Rng rng(13);
    const Coupling xx = Coupling::xx(1.0);
    double acc = 0.0;
    const int n = 3000;
    for (int i = 0; i < n; ++i)
        acc += optimalDuration(xx, weyl::randomWeylCoord(rng));
    EXPECT_NEAR(acc / n, 1.178, 0.03);
}

TEST(GenAshN, IswapNeedsNoDrives)
{
    GateScheme scheme(Coupling::xy(1.0));
    PulseSolution s = scheme.solveCoord(WeylCoord::iswap());
    ASSERT_TRUE(s.converged);
    EXPECT_NEAR(s.omega1, 0.0, 1e-7);
    EXPECT_NEAR(s.omega2, 0.0, 1e-7);
    EXPECT_NEAR(s.delta, 0.0, 1e-7);
}

TEST(GenAshN, CnotXyOneSideDrive)
{
    // Fig 6(d): the CNOT family needs a one-side drive (A2 = 0).
    GateScheme scheme(Coupling::xy(1.0));
    PulseSolution s = scheme.solveCoord(WeylCoord::cnot());
    ASSERT_TRUE(s.converged);
    EXPECT_EQ(s.scheme, SubScheme::ND);
    EXPECT_NEAR(s.ampA2(), 0.0, 1e-6);
    EXPECT_GT(std::abs(s.ampA1()), 0.1);
}

TEST(GenAshN, CnotXxNoDrives)
{
    // Under XX coupling CNOT is a pure coupling evolution.
    GateScheme scheme(Coupling::xx(1.0));
    PulseSolution s = scheme.solveCoord(WeylCoord::cnot());
    ASSERT_TRUE(s.converged);
    EXPECT_NEAR(s.amplitudePenalty(), 0.0, 1e-7);
}

TEST(GenAshN, SwapXySameSignDrives)
{
    // Fig 6(d): the SWAP family requires both-side equal drives.
    GateScheme scheme(Coupling::xy(1.0));
    PulseSolution s = scheme.solveCoord(WeylCoord::swap());
    ASSERT_TRUE(s.converged);
    EXPECT_NEAR(s.ampA1(), s.ampA2(), 1e-6);
    EXPECT_GT(std::abs(s.ampA1()), 1e-3);
}

class GenAshNNamedGates
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GenAshNNamedGates, SolvesAndVerifies)
{
    const int which_coupling = std::get<0>(GetParam());
    const int which_gate = std::get<1>(GetParam());
    Rng rng(400 + which_coupling);
    Coupling cpl = which_coupling == 0 ? Coupling::xy(1.0)
                 : which_coupling == 1 ? Coupling::xx(1.0)
                 : Coupling::random(rng);
    const WeylCoord gates[] = {
        WeylCoord::cnot(), WeylCoord::iswap(), WeylCoord::swap(),
        WeylCoord::sqisw(), WeylCoord::bgate(), WeylCoord::cv(),
        {kPi / 4, kPi / 8, kPi / 8},    // ECP
        {kPi / 4, kPi / 4, kPi / 8},    // QFT corner
        {0.5, 0.3, -0.2},               // generic interior
    };
    const WeylCoord target = gates[which_gate];
    GateScheme scheme(cpl);
    PulseSolution s = scheme.solveCoord(target);
    ASSERT_TRUE(s.converged)
        << "coupling " << which_coupling << " gate "
        << target.toString();
    EXPECT_LT(s.coordError, 1e-7);
    EXPECT_NEAR(s.tau, optimalDuration(cpl, target), 1e-12);
    // Subscheme property: at least one of Omega1/Omega2/delta is 0.
    const double m = std::min({std::abs(s.omega1), std::abs(s.omega2),
                               std::abs(s.delta)});
    EXPECT_NEAR(m, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GenAshNNamedGates,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Range(0, 9)));

TEST(GenAshN, RandomTargetsRandomCouplings)
{
    Rng rng(17);
    int solved = 0;
    const int total = 25;
    for (int rep = 0; rep < total; ++rep) {
        Coupling cpl = Coupling::random(rng);
        Matrix u = randomUnitary(4, rng);
        // Skip near-identity targets (mirrored at compile time).
        if (needsMirror(weyl::weylCoordinate(u), 0.1))
            continue;
        GateScheme scheme(cpl);
        PulseSolution s = scheme.solve(u);
        ASSERT_TRUE(s.converged) << "rep " << rep;
        ASSERT_TRUE(s.hasCorrections);
        // Eq. (5): (A1 x A2) E (B1 x B2) = U exactly.
        Matrix rebuilt = kron(s.a1, s.a2) * scheme.evolution(s) *
                         kron(s.b1, s.b2);
        EXPECT_MATRIX_NEAR(rebuilt, u, 1e-6);
        ++solved;
    }
    EXPECT_GE(solved, total / 2);
}

TEST(GenAshN, TimeOptimalityAgainstBound)
{
    // The solver must never beat or exceed the HVC bound: tau always
    // equals min(tau1, tau2) exactly.
    Rng rng(19);
    for (int rep = 0; rep < 10; ++rep) {
        Coupling cpl = Coupling::random(rng);
        WeylCoord c = weyl::randomWeylCoord(rng);
        GateScheme scheme(cpl);
        PulseSolution s = scheme.solveCoord(c);
        DurationInfo info = durationInfo(cpl, c);
        EXPECT_EQ(s.tau, info.tau);
    }
}

TEST(GenAshN, NearIdentityMirrorPolicy)
{
    EXPECT_TRUE(needsMirror({0.01, 0.005, 0.001}, 0.1));
    EXPECT_FALSE(needsMirror(WeylCoord::cnot(), 0.1));
    // The mirror of a near-identity gate is solvable with bounded
    // amplitudes while the direct gate needs much stronger drives.
    GateScheme scheme(Coupling::xy(1.0));
    WeylCoord tiny{0.02, 0.01, 0.005};
    WeylCoord mirrored = weyl::mirrorCoord(tiny);
    PulseSolution sm = scheme.solveCoord(mirrored);
    ASSERT_TRUE(sm.converged);
    PulseSolution sd = scheme.solveCoord(tiny);
    if (sd.converged) {
        EXPECT_GT(sd.amplitudePenalty(),
                  2.0 * sm.amplitudePenalty());
    }
}

TEST(GenAshN, IdentityGateTrivial)
{
    GateScheme scheme(Coupling::xy(1.0));
    PulseSolution s = scheme.solveCoord(WeylCoord::identity());
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.tau, 0.0, 1e-12);
}

TEST(GenAshN, ArbitraryHamiltonianFullPipeline)
{
    // Lab-frame Hamiltonian of Eq. (7): detuned qubits + XX coupling.
    Rng rng(23);
    for (int rep = 0; rep < 5; ++rep) {
        Matrix h = Coupling::xx(1.0).hamiltonian();
        h += kron(qmath::pauliZ(), Matrix::identity(2)) *
             Complex(-0.25, 0.0);
        h += kron(Matrix::identity(2), qmath::pauliZ()) *
             Complex(0.15, 0.0);
        Matrix u = randomUnitary(4, rng);
        if (needsMirror(weyl::weylCoordinate(u), 0.1))
            continue;
        ArbitrarySolution s = solveArbitrary(h, u);
        ASSERT_TRUE(s.converged) << "rep " << rep;
        Matrix htot = h + kron(s.h1, Matrix::identity(2)) +
                      kron(Matrix::identity(2), s.h2);
        Matrix ev = qmath::expim(htot, s.canonical.tau);
        Matrix rebuilt = kron(s.a1, s.a2) * ev * kron(s.b1, s.b2);
        EXPECT_MATRIX_NEAR(rebuilt, u, 1e-6);
    }
}

TEST(GenAshN, SubschemePartitionOfChamber)
{
    // Sample the chamber; every solved point reports a subscheme and
    // the three regions are all populated under XY coupling.
    Rng rng(29);
    GateScheme scheme(Coupling::xy(1.0));
    int counts[3] = {0, 0, 0};
    for (int rep = 0; rep < 60; ++rep) {
        WeylCoord c = weyl::randomWeylCoord(rng);
        if (needsMirror(c, 0.05))
            continue;
        DurationInfo info = durationInfo(scheme.coupling(), c);
        counts[static_cast<int>(info.scheme)]++;
    }
    EXPECT_GT(counts[0], 0);
    EXPECT_GT(counts[1] + counts[2], 0);
}

// ---- Pulse oracle: the pooled EA multistart against the serial one ----

namespace
{

/**
 * Uniform in [lo, hi) from the generator's raw bits, so the oracle's
 * inputs do not depend on a standard library's distributions.
 */
double
uniform(Rng &rng, double lo, double hi)
{
    return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
}

/** A 2x2 unitary exp(-i (a X + b Y + c Z)) with seeded a, b, c. */
Matrix
seededSU2(Rng &rng)
{
    // One draw per statement: operands of + are unsequenced.
    const double a = uniform(rng, -2, 2);
    const double b = uniform(rng, -2, 2);
    const double c = uniform(rng, -2, 2);
    return qmath::expim(qmath::pauliX() * Complex(a, 0) +
                            qmath::pauliY() * Complex(b, 0) +
                            qmath::pauliZ() * Complex(c, 0),
                        1.0);
}

/** One coupling's oracle inputs. */
struct OracleCase
{
    const char *name;
    Coupling cpl;
    std::vector<WeylCoord> coords;   //!< solveCoord targets
    std::vector<Matrix> unitaries;   //!< solve(u) targets
    std::vector<WeylCoord> fallback; //!< primary subscheme fails
};

/**
 * Seeded coordinates: the named corners, points on the x = pi/4 and
 * z = 0 chamber faces, and interior points, every third one close to
 * y = x (where XY coupling's EA regions lie). Every eighth
 * coordinate also becomes a solve(u) target under seeded local
 * rotations.
 */
OracleCase
makeCase(const char *name, const Coupling &cpl, std::uint64_t seed,
         int interior, std::vector<WeylCoord> fallback = {})
{
    Rng rng(seed);
    OracleCase oc{name, cpl, {}, {}, fallback};
    oc.coords = {
        WeylCoord::identity(), WeylCoord::cnot(), WeylCoord::iswap(),
        WeylCoord::swap(), WeylCoord::sqisw(), WeylCoord::bgate(),
        WeylCoord::cv(), {kPi / 4, kPi / 8, kPi / 8},
        {kPi / 4, kPi / 4, kPi / 8}, {kPi / 4, kPi / 8, -kPi / 8},
        {kPi / 8, kPi / 8, kPi / 8}, {kPi / 8, kPi / 8, -kPi / 8},
    };
    for (int i = 0; i < 16; ++i) {
        const double y = uniform(rng, 0.0, kPi / 4);
        oc.coords.push_back({kPi / 4, y, uniform(rng, -y, y)});
    }
    for (int i = 0; i < 16; ++i) {
        const double x = uniform(rng, 0.0, kPi / 4);
        oc.coords.push_back({x, uniform(rng, 0.0, x), 0.0});
    }
    for (int i = 0; i < interior; ++i) {
        const double x = uniform(rng, 0.0, kPi / 4);
        const double y = i % 3 ? uniform(rng, 0.0, x)
                               : uniform(rng, 0.7 * x, x);
        oc.coords.push_back({x, y, uniform(rng, -y, y)});
    }
    oc.coords.insert(oc.coords.end(), fallback.begin(), fallback.end());
    for (std::size_t i = 0; i < oc.coords.size(); i += 8) {
        const Matrix a1 = seededSU2(rng), a2 = seededSU2(rng);
        const Matrix b1 = seededSU2(rng), b2 = seededSU2(rng);
        oc.unitaries.push_back(kron(a1, a2) *
                               weyl::canonicalGate(oc.coords[i]) *
                               kron(b1, b2));
    }
    return oc;
}

/** The oracle: XY, XX and one generic canonical coupling. */
const std::vector<OracleCase> &
oracleCases()
{
    static const std::vector<OracleCase> cases = {
        makeCase("xy", Coupling::xy(1.0), 101, 110),
        makeCase("xx", Coupling::xx(1.0), 102, 30),
        // On these z = +-y points the primary subscheme finds no
        // verified root, so solveCoord runs the cross-scheme fallback
        // (every full multistart there fails too).
        makeCase("generic",
                 {0.6916474463010851, 0.26398316075479666,
                  0.044369392944118236},
                 103, 30,
                 {{0.20503192021753913, 0.11300978124769397,
                   0.11300978124769397},
                  {0.1945128121927856, 0.10773578739267187,
                   0.10773578739267187},
                  {0.30526027761068392, 0.21099228745005677,
                   -0.21099228745005677},
                  {0.56289664932707428, 0.38905802349750446,
                   -0.38905802349750446}}),
    };
    return cases;
}

/** solveCoord on every coordinate, then solve(u) on every unitary. */
std::vector<PulseSolution>
solveAll(const GateScheme &scheme, const OracleCase &oc)
{
    std::vector<PulseSolution> out;
    for (const WeylCoord &c : oc.coords)
        out.push_back(scheme.solveCoord(c));
    for (const Matrix &u : oc.unitaries)
        out.push_back(scheme.solve(u));
    return out;
}

template <typename T>
std::string
bytesOf(const T &v)
{
    std::string s(sizeof v, '\0');
    std::memcpy(s.data(), &v, sizeof v);
    return s;
}

std::string
bytesOf(const Matrix &m)
{
    std::string s = bytesOf(m.rows()) + bytesOf(m.cols());
    for (int i = 0; i < m.rows(); ++i)
        for (int j = 0; j < m.cols(); ++j)
            s += bytesOf(m(i, j));
    return s;
}

/** The raw bytes of every pinned PulseSolution field, by name. */
std::vector<std::pair<const char *, std::string>>
pinnedFields(const PulseSolution &s)
{
    return {
        {"converged", bytesOf(s.converged)},
        {"scheme", bytesOf(s.scheme)},
        {"tau", bytesOf(s.tau)},
        {"omega1", bytesOf(s.omega1)},
        {"omega2", bytesOf(s.omega2)},
        {"delta", bytesOf(s.delta)},
        {"coordError", bytesOf(s.coordError)},
        {"a1", bytesOf(s.a1)},
        {"a2", bytesOf(s.a2)},
        {"b1", bytesOf(s.b1)},
        {"b2", bytesOf(s.b2)},
    };
}

::testing::AssertionResult
sameBits(const PulseSolution &want, const PulseSolution &got)
{
    const auto w = pinnedFields(want), g = pinnedFields(got);
    for (std::size_t i = 0; i < w.size(); ++i)
        if (w[i].second != g[i].second)
            return ::testing::AssertionFailure()
                   << "field " << w[i].first << " differs";
    return ::testing::AssertionSuccess();
}

/** Every EA-scheme coordinate of a case (the pooled path's inputs). */
std::vector<WeylCoord>
eaCoords(const OracleCase &oc)
{
    std::vector<WeylCoord> out;
    for (const WeylCoord &c : oc.coords)
        if (durationInfo(oc.cpl, c).scheme != SubScheme::ND)
            out.push_back(c);
    return out;
}

} // namespace

TEST(GenAshN, PooledSolveIsBitIdentical)
{
    synth::BlockPool one(1), three(3);
    std::size_t total = 0;
    for (const OracleCase &oc : oracleCases()) {
        total += oc.coords.size();
        EXPECT_GE(eaCoords(oc).size(), 20u) << oc.name;
        const std::vector<PulseSolution> serial =
            solveAll(GateScheme(oc.cpl), oc);
        for (std::size_t i = 0; i < oc.fallback.size(); ++i)
            EXPECT_FALSE(
                serial[oc.coords.size() - oc.fallback.size() + i]
                    .converged)
                << oc.name << " fallback point " << i;
        for (synth::BlockPool *pool : {&one, &three}) {
            const std::vector<PulseSolution> pooled =
                solveAll(GateScheme(oc.cpl, pool), oc);
            ASSERT_EQ(pooled.size(), serial.size());
            for (std::size_t i = 0; i < serial.size(); ++i)
                EXPECT_TRUE(sameBits(serial[i], pooled[i]))
                    << oc.name << " solution " << i << " at "
                    << pool->helperThreads() << " helpers";
        }
    }
    EXPECT_GE(total, 300u);
}

TEST(GenAshN, SolutionsMatchParentDigest)
{
    // FNV-1a over every pinned field of every oracle solution,
    // solved serially. The pin is the value this test printed before
    // the EA multistart could run on a pool; the solver must keep
    // reproducing it bit for bit.
    std::string bytes;
    std::size_t solutions = 0;
    for (const OracleCase &oc : oracleCases())
        for (const PulseSolution &s : solveAll(GateScheme(oc.cpl), oc)) {
            for (const auto &field : pinnedFields(s))
                bytes += field.second;
            ++solutions;
        }
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64,
                  service::persist::fnv1aBytes(bytes.data(), bytes.size()));
    std::printf("genAshN oracle digest %s over %zu solutions\n", digest,
                solutions);
    EXPECT_EQ(std::string(digest), "d2a48cdae2108c1e");
}

TEST(GenAshN, ConcurrentSolvesShareOnePool)
{
    // Two job threads solve through one shared pool at once: their
    // batches interleave in the queue and either caller may run the
    // other's starts, yet each solution keeps the serial bits.
    const OracleCase &oc = oracleCases()[1];
    std::vector<WeylCoord> coords = eaCoords(oc);
    coords.resize(12);
    const GateScheme serial(oc.cpl);
    std::vector<PulseSolution> want;
    for (const WeylCoord &c : coords)
        want.push_back(serial.solveCoord(c));

    synth::BlockPool pool(2);
    const GateScheme pooled(oc.cpl, &pool);
    std::vector<PulseSolution> got[2];
    auto solveInOrder = [&](int t) {
        for (std::size_t i = 0; i < coords.size(); ++i)
            got[t].push_back(pooled.solveCoord(
                coords[t == 0 ? i : coords.size() - 1 - i]));
    };
    std::thread first(solveInOrder, 0), second(solveInOrder, 1);
    first.join();
    second.join();
    for (std::size_t i = 0; i < coords.size(); ++i) {
        EXPECT_TRUE(sameBits(want[i], got[0][i])) << "thread 0, " << i;
        EXPECT_TRUE(sameBits(want[coords.size() - 1 - i], got[1][i]))
            << "thread 1, " << i;
    }
}

TEST(GenAshN, MultistartCountsStartsAndDiscards)
{
    // A pooled multistart evaluates the serial loop's starts plus the
    // speculative ones it discards past the fold's stop point.
    auto &reg = obs::Registry::global();
    const bool was = reg.enabled();
    reg.setEnabled(true);
    obs::Counter *starts = reg.counter("reqisc_genashn_starts_total", "");
    obs::Counter *discarded =
        reg.counter("reqisc_genashn_starts_discarded_total", "");
    const OracleCase &oc = oracleCases()[1];
    std::vector<WeylCoord> coords = eaCoords(oc);
    coords.resize(8);

    auto countSolves = [&](const GateScheme &scheme) {
        const std::int64_t s0 = starts->value(), d0 = discarded->value();
        for (const WeylCoord &c : coords)
            scheme.solveCoord(c);
        return std::make_pair(starts->value() - s0,
                              discarded->value() - d0);
    };
    const auto [serial, serial_discarded] = countSolves(GateScheme(oc.cpl));
    EXPECT_GE(serial, static_cast<std::int64_t>(coords.size()));
    EXPECT_EQ(serial_discarded, 0);
    synth::BlockPool pool(3);
    const auto [pooled, pooled_discarded] =
        countSolves(GateScheme(oc.cpl, &pool));
    EXPECT_EQ(pooled - pooled_discarded, serial);
    reg.setEnabled(was);
}
