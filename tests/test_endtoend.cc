/**
 * @file
 * End-to-end integration tests: every small benchmark runs through
 * the full stack — compile (Eff and Full), route, pulse-solve — with
 * semantics and invariants checked at each stage. These are the
 * "executable Table 2 / Fig 12 / Fig 15" correctness backbone.
 */

#include <gtest/gtest.h>

#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "compiler/baselines.hh"
#include "compiler/metrics.hh"
#include "compiler/pipeline.hh"
#include "qsim/statevector.hh"
#include "route/sabre.hh"
#include "suite/suite.hh"
#include "test_util.hh"
#include "uarch/calibration.hh"
#include "weyl/invariants.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using namespace reqisc::qmath;

namespace
{

/** All small benchmarks, addressable by index for TEST_P. */
const std::vector<suite::Benchmark> &
benchmarks()
{
    static const auto suite = suite::smallSuite();
    return suite;
}

Matrix
referenceUnitary(const suite::Benchmark &bm)
{
    return qsim::buildUnitary(circuit::lowerToCnot(bm.circuit));
}

} // namespace

class EndToEnd : public ::testing::TestWithParam<int>
{
  protected:
    const suite::Benchmark &bm() const
    {
        return benchmarks()[GetParam()];
    }
};

TEST_P(EndToEnd, EffPreservesSemantics)
{
    if (bm().circuit.numQubits() > 8)
        GTEST_SKIP() << "too large for unitary verification";
    const Matrix ref = referenceUnitary(bm());
    compiler::CompileResult r = compiler::reqiscEff(bm().circuit);
    const Matrix got = qsim::buildUnitaryWithPermutation(
        r.circuit, r.finalPermutation);
    EXPECT_LT(qmath::traceInfidelity(ref, got), 1e-6) << bm().name;
}

TEST_P(EndToEnd, FullPreservesSemanticsAndNeverWorseThanEff)
{
    if (bm().circuit.numQubits() > 8)
        GTEST_SKIP() << "too large for unitary verification";
    const Matrix ref = referenceUnitary(bm());
    compiler::CompileResult eff = compiler::reqiscEff(bm().circuit);
    compiler::CompileResult full = compiler::reqiscFull(bm().circuit);
    const Matrix got = qsim::buildUnitaryWithPermutation(
        full.circuit, full.finalPermutation);
    EXPECT_LT(qmath::traceInfidelity(ref, got), 1e-5) << bm().name;
    EXPECT_LE(full.circuit.count2Q(), eff.circuit.count2Q())
        << bm().name;
}

TEST_P(EndToEnd, CompiledGatesAreNotNearIdentity)
{
    // Mirroring must leave no near-identity 2Q gate behind.
    compiler::CompileOptions opts;
    compiler::CompileResult r =
        compiler::reqiscFull(bm().circuit, opts);
    for (const Gate &g : r.circuit) {
        if (g.is2Q()) {
            EXPECT_GT(g.weylCoord().norm1(),
                      opts.mirrorThreshold - 1e-9)
                << bm().name << " " << g.toString();
        }
    }
}

TEST_P(EndToEnd, EveryCompiledGateIsPulseSolvable)
{
    // The whole point of the stack: each emitted SU(4) must have a
    // verified pulse solution on XY hardware.
    compiler::CompileResult r = compiler::reqiscFull(bm().circuit);
    uarch::GateScheme scheme(uarch::Coupling::xy(1.0));
    for (const Gate &g : r.circuit) {
        if (!g.is2Q())
            continue;
        uarch::PulseSolution s = scheme.solve(g.matrix());
        ASSERT_TRUE(s.converged)
            << bm().name << " " << g.toString();
        // Eq. (5): corrections reproduce the gate exactly.
        Matrix rebuilt = kron(s.a1, s.a2) * scheme.evolution(s) *
                         kron(s.b1, s.b2);
        EXPECT_LT(qmath::traceInfidelity(rebuilt, g.matrix()), 1e-6)
            << bm().name;
    }
}

TEST_P(EndToEnd, CalibrationPlanCoversCircuit)
{
    compiler::CompileResult r = compiler::reqiscEff(bm().circuit);
    uarch::CalibrationPlan plan = uarch::planCalibration(
        r.circuit, uarch::Coupling::xy(1.0));
    EXPECT_EQ(plan.unsolved, 0) << bm().name;
    int total = 0;
    for (const auto &e : plan.entries)
        total += e.uses;
    EXPECT_EQ(total, r.circuit.count2Q()) << bm().name;
    EXPECT_EQ(plan.distinctGates(),
              r.circuit.countDistinctSU4(1e-6));
    EXPECT_GT(plan.cost(), 0.0);
}

TEST_P(EndToEnd, RoutedOnChainRespectsTopologyAndSemantics)
{
    // 8-qubit instances (comparator_3, rip_add_8) are in scope: a
    // 256-amplitude statevector check is cheap, and routing is
    // deterministic, so the whole small suite exercises routed-chain
    // semantics.
    if (bm().circuit.numQubits() > 8)
        GTEST_SKIP() << "too large for routed verification";
    compiler::CompileResult full = compiler::reqiscFull(bm().circuit);
    const int n = full.circuit.numQubits();
    route::Topology topo = route::Topology::chain(n);
    route::RouteOptions opts;
    opts.mirroring = true;
    route::RouteResult rr =
        route::sabreRoute(full.circuit, topo, opts);
    for (const Gate &g : rr.circuit) {
        if (g.numQubits() == 2) {
            EXPECT_TRUE(topo.connected(g.qubits[0], g.qubits[1]))
                << bm().name;
        }
    }
    // Statevector check from |0..0>: compose compile + route
    // permutations and compare with the reference output.
    qsim::StateVector ref_sv(n);
    ref_sv.applyCircuit(circuit::lowerToCnot(bm().circuit));
    qsim::StateVector phys_sv(n);
    Circuit lowered(n);
    for (const Gate &g : rr.circuit) {
        if (g.op == Op::SWAP) {
            lowered.add(Gate::cx(g.qubits[0], g.qubits[1]));
            lowered.add(Gate::cx(g.qubits[1], g.qubits[0]));
            lowered.add(Gate::cx(g.qubits[0], g.qubits[1]));
        } else {
            lowered.add(g);
        }
    }
    phys_sv.applyCircuit(lowered);
    std::vector<int> layout(n);
    for (int q = 0; q < n; ++q)
        layout[q] = rr.finalLayout[full.finalPermutation[q]];
    phys_sv.permuteQubits(qsim::inversePermutation(layout));
    EXPECT_GT(phys_sv.fidelity(ref_sv), 1.0 - 1e-5) << bm().name;
}

TEST_P(EndToEnd, QasmRoundTrip)
{
    const std::string text = circuit::toQasm(bm().circuit);
    Circuit back = circuit::fromQasm(text);
    ASSERT_EQ(back.numQubits(), bm().circuit.numQubits());
    if (bm().circuit.numQubits() > 8)
        return;
    const Matrix a = qsim::buildUnitary(
        circuit::lowerToCnot(bm().circuit));
    const Matrix b = qsim::buildUnitary(circuit::lowerToCnot(back));
    EXPECT_LT(qmath::traceInfidelity(a, b), 1e-9) << bm().name;
}

TEST_P(EndToEnd, CompiledQasmRoundTrip)
{
    // Compiled circuits contain CAN/U3 (and U4 expansion paths).
    compiler::CompileResult r = compiler::reqiscEff(bm().circuit);
    const std::string text = circuit::toQasm(r.circuit);
    Circuit back = circuit::fromQasm(text);
    if (bm().circuit.numQubits() > 8)
        return;
    const Matrix a = qsim::buildUnitary(r.circuit);
    const Matrix b = qsim::buildUnitary(back);
    EXPECT_LT(qmath::traceInfidelity(a, b), 1e-9) << bm().name;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EndToEnd,
    ::testing::Range(0, static_cast<int>(benchmarks().size())),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string n = benchmarks()[info.param].name;
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(Invariants, MatchKakOracle)
{
    Rng rng(301);
    for (int rep = 0; rep < 30; ++rep) {
        Matrix u = randomUnitary(4, rng);
        Matrix l = kron(randomSU2(rng), randomSU2(rng));
        Matrix r = kron(randomSU2(rng), randomSU2(rng));
        // Invariant under local dressing.
        EXPECT_TRUE(weyl::locallyEquivalentFast(u, l * u * r, 1e-7));
        // Agreement with the KAK-based oracle on both outcomes.
        Matrix v = randomUnitary(4, rng);
        EXPECT_EQ(weyl::locallyEquivalent(u, v, 1e-7),
                  weyl::locallyEquivalentFast(u, v, 1e-7));
    }
}

TEST(Invariants, KnownValues)
{
    // Makhlin: identity -> g1 = 1, g2 = 3; CNOT -> g1 = 0, g2 = 1;
    // SWAP -> g1 = -1, g2 = -3.
    auto id = weyl::makhlinInvariants(Matrix::identity(4));
    EXPECT_NEAR(std::abs(id.g1 - Complex(1, 0)), 0.0, 1e-10);
    EXPECT_NEAR(id.g2, 3.0, 1e-10);
    auto cx = weyl::makhlinInvariants(Gate::cx(0, 1).matrix());
    EXPECT_NEAR(std::abs(cx.g1), 0.0, 1e-10);
    EXPECT_NEAR(cx.g2, 1.0, 1e-10);
    auto sw = weyl::makhlinInvariants(Gate::swap(0, 1).matrix());
    EXPECT_NEAR(std::abs(sw.g1 - Complex(-1, 0)), 0.0, 1e-10);
    EXPECT_NEAR(sw.g2, -3.0, 1e-10);
}

TEST(Invariants, CoordConsistency)
{
    Rng rng(307);
    for (int rep = 0; rep < 10; ++rep) {
        Matrix u = randomUnitary(4, rng);
        auto direct = weyl::makhlinInvariants(u);
        auto via_coord =
            weyl::makhlinFromCoord(weyl::weylCoordinate(u));
        EXPECT_TRUE(direct.approxEqual(via_coord, 1e-8));
    }
}

TEST(Qasm, ParseErrors)
{
    EXPECT_THROW(circuit::fromQasm("qreg q[2];\nfoo q[0];\n"),
                 std::runtime_error);
    EXPECT_THROW(circuit::fromQasm("cx q[0],q[1];\n"),
                 std::runtime_error);   // gate before qreg
    EXPECT_THROW(circuit::fromQasm("qreg q[2];\ncx q[0],q[1]\n"),
                 std::runtime_error);   // missing semicolon
    EXPECT_THROW(
        circuit::fromQasm("qreg q[2];\nrz(0.4,0.3) q[0];\n"),
        std::runtime_error);            // wrong arity
}

TEST(Qasm, CommentsAndWhitespace)
{
    Circuit c = circuit::fromQasm(
        "OPENQASM 2.0;\n"
        "// header comment\n"
        "qreg q[3];\n"
        "  h q[0];   // trailing comment\n"
        "\n"
        "ccx q[0],q[1],q[2];\n");
    EXPECT_EQ(c.numQubits(), 3);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1].op, Op::CCX);
}

TEST(Calibration, SharedClassesAreClustered)
{
    Circuit c(3);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cz(1, 2));   // same class as CX
    c.add(Gate::swap(0, 1));
    uarch::CalibrationPlan plan =
        uarch::planCalibration(c, uarch::Coupling::xy(1.0));
    EXPECT_EQ(plan.distinctGates(), 2);
    EXPECT_EQ(plan.unsolved, 0);
    int cnot_uses = 0;
    for (const auto &e : plan.entries)
        if (e.coord.approxEqual(weyl::WeylCoord::cnot(), 1e-6))
            cnot_uses = e.uses;
    EXPECT_EQ(cnot_uses, 2);
}
