/**
 * @file
 * Cross-module property sweeps: parameterized invariants that stress
 * boundary regions and randomized inputs harder than the per-module
 * unit tests.
 */

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "circuit/lower.hh"
#include "compiler/baselines.hh"
#include "compiler/passes.hh"
#include "compiler/pipeline.hh"
#include "qmath/expm.hh"
#include "qmath/optimize.hh"
#include "qmath/random.hh"
#include "qsim/statevector.hh"
#include "service/cache.hh"
#include "suite/suite.hh"
#include "synth/synthesis.hh"
#include "test_util.hh"
#include "uarch/genashn.hh"
#include "weyl/invariants.hh"
#include "weyl/weyl.hh"

using namespace reqisc;
using namespace reqisc::qmath;
using reqisc::weyl::WeylCoord;

namespace
{

constexpr double kPi = std::numbers::pi;

} // namespace

// ---- Weyl chamber / canonicalization sweeps ---------------------------

class CanonSweep : public ::testing::TestWithParam<int> {};

TEST_P(CanonSweep, ArbitraryCoordinatesCanonicalizeConsistently)
{
    // Build canonical gates from far-out-of-chamber coordinates and
    // check that KAK (a) lands in the chamber, (b) reconstructs, and
    // (c) agrees with the Makhlin invariants of the raw gate.
    Rng rng(5000 + GetParam());
    std::uniform_real_distribution<double> d(-8.0, 8.0);
    for (int rep = 0; rep < 10; ++rep) {
        WeylCoord raw{d(rng), d(rng), d(rng)};
        Matrix u = weyl::canonicalGate(raw);
        weyl::KakDecomposition k = weyl::kakDecompose(u);
        EXPECT_TRUE(k.coord.inChamber(1e-7)) << raw.toString();
        EXPECT_LT((k.reconstruct() - u).maxAbs(), 1e-8)
            << raw.toString();
        EXPECT_TRUE(weyl::makhlinInvariants(u).approxEqual(
            weyl::makhlinFromCoord(k.coord), 1e-7))
            << raw.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonSweep, ::testing::Range(0, 6));

TEST(WeylProperties, MirrorIsInvolutionAcrossChamber)
{
    Rng rng(311);
    for (int rep = 0; rep < 40; ++rep) {
        WeylCoord c = weyl::randomWeylCoord(rng);
        WeylCoord m = weyl::mirrorCoord(c);
        EXPECT_TRUE(m.inChamber(1e-9)) << c.toString();
        // Involution modulo the x = pi/4 face identification.
        WeylCoord mm = weyl::mirrorCoord(m);
        Matrix a = weyl::canonicalGate(mm);
        Matrix b = weyl::canonicalGate(c);
        EXPECT_TRUE(weyl::locallyEquivalentFast(a, b, 1e-8))
            << c.toString();
    }
}

TEST(WeylProperties, DurationInvariantUnderMirrorPair)
{
    // tau_opt treats (x,y,z) and its pi/2-x mirror identically by
    // construction: solving either reaches the same gate class.
    Rng rng(313);
    const uarch::Coupling cpl = uarch::Coupling::random(rng);
    for (int rep = 0; rep < 20; ++rep) {
        WeylCoord c = weyl::randomWeylCoord(rng);
        const double t1 = uarch::optimalDuration(cpl, c);
        // Mirror-equivalent representative: (pi/2 - x, y, -z),
        // re-canonicalized.
        WeylCoord alt = weyl::weylCoordinate(
            weyl::canonicalGate({kPi / 2 - c.x, c.y, -c.z}));
        const double t2 = uarch::optimalDuration(cpl, alt);
        EXPECT_NEAR(t1, t2, 1e-9);
    }
}

// ---- genAshN solver sweeps --------------------------------------------

class SolverSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolverSweep, RandomCouplingRandomTarget)
{
    Rng rng(6000 + GetParam());
    uarch::Coupling cpl = uarch::Coupling::random(rng);
    uarch::GateScheme scheme(cpl);
    for (int rep = 0; rep < 4; ++rep) {
        Matrix u = qmath::randomUnitary(4, rng);
        WeylCoord c = weyl::weylCoordinate(u);
        if (uarch::needsMirror(c, 0.12))
            continue;
        uarch::PulseSolution s = scheme.solve(u);
        ASSERT_TRUE(s.converged)
            << "coupling (" << cpl.a << "," << cpl.b << "," << cpl.c
            << ") target " << c.toString();
        Matrix rebuilt = kron(s.a1, s.a2) * scheme.evolution(s) *
                         kron(s.b1, s.b2);
        EXPECT_LT(qmath::traceInfidelity(rebuilt, u), 1e-6);
        // Optimality: tau equals the closed-form bound.
        EXPECT_NEAR(s.tau, uarch::optimalDuration(cpl, c), 1e-12);
        // Subscheme structure: one drive parameter vanishes.
        const double m =
            std::min({std::abs(s.omega1), std::abs(s.omega2),
                      std::abs(s.delta)});
        EXPECT_NEAR(m, 0.0, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSweep, ::testing::Range(0, 8));

TEST(SolverProperties, LabFrameXxHamiltonianOfEq7)
{
    // The capacitively-coupled lab-frame Hamiltonian of Eq. (7):
    // detuned qubits + XX coupling, handled through the normal form.
    Matrix h = uarch::Coupling::xx(1.0).hamiltonian();
    h += kron(qmath::pauliZ(), Matrix::identity(2)) *
         Complex(-0.35, 0.0);
    h += kron(Matrix::identity(2), qmath::pauliZ()) *
         Complex(0.21, 0.0);
    uarch::HamiltonianNormalForm nf = uarch::normalForm(h);
    EXPECT_NEAR(nf.coupling.a, 1.0, 1e-9);
    EXPECT_NEAR(nf.coupling.b, 0.0, 1e-9);
    EXPECT_NEAR(nf.coupling.c, 0.0, 1e-9);
    // Local parts captured exactly.
    EXPECT_MATRIX_NEAR(nf.reconstruct(), h, 1e-9);
    // And the full pipeline solves a CNOT on it.
    Matrix target = circuit::Gate::cx(0, 1).matrix();
    uarch::ArbitrarySolution s = uarch::solveArbitrary(h, target);
    ASSERT_TRUE(s.converged);
    Matrix htot = h + kron(s.h1, Matrix::identity(2)) +
                  kron(Matrix::identity(2), s.h2);
    Matrix ev = qmath::expim(htot, s.canonical.tau);
    EXPECT_LT(qmath::traceInfidelity(
                  kron(s.a1, s.a2) * ev * kron(s.b1, s.b2), target),
              1e-6);
}

TEST(SolverProperties, DurationScalesInverselyWithCoupling)
{
    // H -> k H implies tau -> tau / k (Appendix A.1.1 rescaling).
    Rng rng(317);
    for (int rep = 0; rep < 10; ++rep) {
        WeylCoord c = weyl::randomWeylCoord(rng);
        uarch::Coupling c1 = uarch::Coupling::random(rng);
        uarch::Coupling c2{2.0 * c1.a, 2.0 * c1.b, 2.0 * c1.c};
        EXPECT_NEAR(uarch::optimalDuration(c1, c),
                    2.0 * uarch::optimalDuration(c2, c), 1e-12);
    }
}

TEST(SolverProperties, StrongerCouplingNeverSlower)
{
    // Adding coupling strength along the canonical ordering can only
    // shorten the optimal duration.
    Rng rng(331);
    for (int rep = 0; rep < 20; ++rep) {
        WeylCoord c = weyl::randomWeylCoord(rng);
        uarch::Coupling weak = uarch::Coupling::random(rng);
        uarch::Coupling strong{weak.a * 1.5, weak.b * 1.5,
                               weak.c * 1.5};
        EXPECT_LE(uarch::optimalDuration(strong, c),
                  uarch::optimalDuration(weak, c) + 1e-12);
    }
}

// ---- Synthesis properties ----------------------------------------------

TEST(SynthProperties, FixedBasisDecompositionSqisw)
{
    Rng rng(337);
    for (int rep = 0; rep < 6; ++rep) {
        Matrix u = qmath::randomUnitary(4, rng);
        auto gates = synth::su4ToFixedBasis(0, 1, u,
                                            circuit::Op::SQISW);
        ASSERT_FALSE(gates.empty()) << rep;
        circuit::Circuit c(2);
        int basis_count = 0;
        for (const auto &g : gates) {
            c.add(g);
            if (g.op == circuit::Op::SQISW)
                ++basis_count;
        }
        EXPECT_LE(basis_count, 3);
        EXPECT_TRUE(qsim::buildUnitary(c).approxEqualUpToPhase(
            u, 1e-4))
            << rep;
    }
}

TEST(SynthProperties, FixedBasisUsesFewerForEasyClasses)
{
    // SQiSW itself costs one basis gate; CNOT-class costs two.
    auto count = [](const Matrix &u) {
        int n = 0;
        for (const auto &g :
             synth::su4ToFixedBasis(0, 1, u, circuit::Op::SQISW))
            if (g.op == circuit::Op::SQISW)
                ++n;
        return n;
    };
    EXPECT_EQ(count(circuit::Gate::sqisw(0, 1).matrix()), 1);
    EXPECT_EQ(count(circuit::Gate::cx(0, 1).matrix()), 2);
    EXPECT_LE(count(circuit::Gate::swap(0, 1).matrix()), 3);
}

TEST(SynthProperties, SynthesisNeverExceedsUniversalBound)
{
    // Any 3-qubit unitary synthesizes within seven blocks.
    Rng rng(347);
    for (int rep = 0; rep < 3; ++rep) {
        Matrix u = qmath::randomUnitary(8, rng);
        synth::SynthesisOptions opts;
        opts.tol = 1e-8;
        opts.descending = true;
        synth::SynthesisResult r =
            synth::synthesizeBlock(u, {0, 1, 2}, opts);
        ASSERT_TRUE(r.success);
        EXPECT_LE(r.blockCount, 7);
        EXPECT_GE(r.blockCount, synth::su4LowerBound(3));
    }
}

// ---- Compiler properties ------------------------------------------------

TEST(CompilerProperties, VariationalModePreservesSemantics)
{
    Rng rng(349);
    circuit::Circuit c(3);
    c.add(circuit::Gate::h(0));
    c.add(circuit::Gate::rzz(0, 1, 0.37));
    c.add(circuit::Gate::rzz(1, 2, 0.61));
    c.add(circuit::Gate::rx(1, 0.5));
    c.add(circuit::Gate::rzz(0, 1, 0.83));
    compiler::CompileOptions opts;
    opts.variationalMode = true;
    compiler::CompileResult r = compiler::reqiscEff(c, opts);
    // One distinct 2Q class (the fixed basis gate).
    EXPECT_EQ(r.circuit.countDistinctSU4(), 1);
    const Matrix ref = qsim::buildUnitary(circuit::lowerToCnot(c));
    const Matrix got = qsim::buildUnitaryWithPermutation(
        r.circuit, r.finalPermutation);
    EXPECT_LT(qmath::traceInfidelity(ref, got), 1e-6);
}

TEST(CompilerProperties, Fuse2QIdempotent)
{
    Rng rng(353);
    circuit::Circuit c(4);
    for (int i = 0; i < 10; ++i) {
        int a = static_cast<int>(rng() % 4);
        int b = (a + 1 + static_cast<int>(rng() % 3)) % 4;
        c.add(circuit::Gate::u4(a, b, qmath::randomUnitary(4, rng)));
    }
    circuit::Circuit once = compiler::fuse2QBlocks(c);
    circuit::Circuit twice = compiler::fuse2QBlocks(once);
    EXPECT_EQ(once.count2Q(), twice.count2Q());
}

TEST(CompilerProperties, CompactnessScoreNeverIncreasesUnderDagCompact)
{
    Rng rng(359);
    for (int rep = 0; rep < 5; ++rep) {
        circuit::Circuit c(5);
        for (int i = 0; i < 12; ++i) {
            int a = static_cast<int>(rng() % 5);
            int b = (a + 1 + static_cast<int>(rng() % 4)) % 5;
            c.add(circuit::Gate::u4(std::min(a, b), std::max(a, b),
                                    qmath::randomUnitary(4, rng)));
        }
        circuit::Circuit d = compiler::dagCompact(c);
        EXPECT_LE(compiler::compactnessScore(d),
                  compiler::compactnessScore(c));
        EXPECT_TRUE(qsim::buildUnitary(d).approxEqualUpToPhase(
            qsim::buildUnitary(c), 1e-4));
    }
}

TEST(CompilerProperties, BaselinesNeverIncreaseGateCount)
{
    for (unsigned seed : {401u, 402u, 403u}) {
        auto bm = suite::makeAlu(5, 15, seed);
        circuit::Circuit low = compiler::lowerToCnot3(bm.circuit);
        EXPECT_LE(compiler::qiskitLike(bm.circuit).count2Q(),
                  low.count2Q());
        EXPECT_LE(compiler::tketLike(bm.circuit).count2Q(),
                  low.count2Q());
        EXPECT_LE(compiler::bqskitLike(bm.circuit).count2Q(),
                  low.count2Q());
    }
}

// ---- Optimizer robustness ------------------------------------------------

TEST(OptimizerProperties, NelderMeadRosenbrock)
{
    auto f = [](const std::vector<double> &x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    MinimizeResult r = nelderMead(f, {-1.2, 1.0}, 0.5, 1e-15, 4000);
    EXPECT_NEAR(r.x[0], 1.0, 1e-3);
    EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(OptimizerProperties, NewtonFromPoorStart)
{
    auto f = [](const std::vector<double> &v) {
        return std::vector<double>{std::sin(v[0]) - 0.5};
    };
    RootResult r = newtonSolve(f, {2.9});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(std::sin(r.x[0]), 0.5, 1e-10);
}

// ---- Cache-key properties (service/cache.hh) --------------------------

TEST(CacheKeyProperties, GlobalPhaseNeverSplitsSynthEntries)
{
    // The synth-cache fingerprint canonicalizes global phase, so
    // U and e^{i phi} U must always share one entry — for any U and
    // any phase. Failure entries are used as markers: a hit on the
    // exact key needs no verification, so the property is tested on
    // the key alone.
    Rng rng(7100);
    std::uniform_real_distribution<double> ph(-kPi, kPi);
    synth::SynthesisOptions opts;
    const synth::SynthesisResult marker;  // failure entry

    for (int rep = 0; rep < 20; ++rep) {
        service::SynthCache cache;
        const Matrix u = randomUnitary(8, rng);
        cache.store(u, opts, marker, 0.0);

        const Complex w = std::polar(1.0, ph(rng));
        Matrix phased = u;
        for (int i = 0; i < 8; ++i)
            for (int j = 0; j < 8; ++j)
                phased(i, j) = phased(i, j) * w;

        synth::SynthesisResult out;
        EXPECT_TRUE(cache.lookup(phased, opts, out)) << "rep " << rep;
        EXPECT_EQ(cache.size(), 1u);
    }
}

TEST(CacheKeyProperties, PerturbationsBeyondQuantizationMiss)
{
    // Entry-wise perturbations far above the fingerprint quantization
    // step (1e-12) land on a different key: the cache never serves a
    // result for a materially different unitary.
    Rng rng(7200);
    std::uniform_int_distribution<int> idx(0, 7);
    synth::SynthesisOptions opts;
    const synth::SynthesisResult marker;

    for (double delta : {1e-6, 1e-3, 0.1}) {
        for (int rep = 0; rep < 10; ++rep) {
            service::SynthCache cache;
            const Matrix u = randomUnitary(8, rng);
            cache.store(u, opts, marker, 0.0);

            Matrix nudged = u;
            const int i = idx(rng), j = idx(rng);
            nudged(i, j) = nudged(i, j) + Complex{delta, 0.0};
            synth::SynthesisResult out;
            EXPECT_FALSE(cache.lookup(nudged, opts, out))
                << "delta " << delta << " rep " << rep;
        }
    }
}

TEST(CacheKeyProperties, EverySearchOptionSplitsTheKey)
{
    // Each field of SynthesisOptions that determines the search
    // outcome is part of the cache key; changing any one of them must
    // miss (the deterministic-search contract of a hit would
    // otherwise be violated).
    Rng rng(7300);
    const Matrix u = randomUnitary(8, rng);
    const synth::SynthesisResult marker;

    synth::SynthesisOptions base;
    base.descending = true;

    std::vector<synth::SynthesisOptions> variants(5, base);
    variants[0].tol = base.tol * 10.0;
    variants[1].maxBlocks = base.maxBlocks + 1;
    variants[2].restarts = base.restarts + 1;
    variants[3].seed = base.seed + 1;
    variants[4].descending = !base.descending;

    for (size_t v = 0; v < variants.size(); ++v) {
        service::SynthCache cache;
        cache.store(u, base, marker, 0.0);
        synth::SynthesisResult out;
        EXPECT_TRUE(cache.lookup(u, base, out));
        EXPECT_FALSE(cache.lookup(u, variants[v], out))
            << "variant " << v;
    }
}

TEST(CacheKeyProperties, PulseLookupIsToleranceExactAcrossBuckets)
{
    // Sweep coordinates straddling bucket boundaries: a stored class
    // must hit for every probe within the cluster tolerance and miss
    // for every probe beyond it, no matter how the probe falls
    // against the hash-cell grid.
    const double tol = 1e-6;
    uarch::PulseSolution sol;
    sol.converged = true;
    sol.coordError = 0.0;

    Rng rng(7400);
    std::uniform_real_distribution<double> d(0.05, kPi / 4 - 0.05);
    for (int rep = 0; rep < 20; ++rep) {
        service::PulseCache cache(uarch::Coupling::xy(1.0), tol);
        WeylCoord c{d(rng), d(rng) / 2, d(rng) / 4};
        cache.store(c, sol, 0.0);

        for (double frac : {0.0, 0.3, 0.99}) {
            WeylCoord probe = c;
            probe.x += frac * tol;
            uarch::PulseSolution out;
            EXPECT_TRUE(cache.lookup(probe, out))
                << "rep " << rep << " frac " << frac;
        }
        for (double frac : {1.5, 3.0, 10.0}) {
            WeylCoord probe = c;
            probe.x += frac * tol;
            uarch::PulseSolution out;
            EXPECT_FALSE(cache.lookup(probe, out))
                << "rep " << rep << " frac " << frac;
        }
    }
}
