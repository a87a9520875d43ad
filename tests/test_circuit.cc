/**
 * @file
 * Tests for the circuit IR, DAG, metrics, lowering and simulators.
 */

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/dag.hh"
#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "obs/metrics.hh"
#include "qmath/kernels.hh"
#include "qmath/random.hh"
#include "qsim/density.hh"
#include "qsim/statevector.hh"
#include "test_util.hh"
#include "weyl/weyl.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using namespace reqisc::qmath;
using namespace reqisc::qsim;

namespace
{

constexpr double kPi = std::numbers::pi;

namespace kernels = qmath::kernels;
using test::SimdGuard;

/** The kernel backends this build runs: scalar, then AVX2 if any. */
std::vector<bool>
kernelBackends()
{
    SimdGuard guard;
    std::vector<bool> simd = {false};
    if (kernels::setSimdEnabled(true))
        simd.push_back(true);
    return simd;
}

bool
sameBits(const weyl::WeylCoord &a, const weyl::WeylCoord &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** weyl::kakDecompose calls since construction (registry on). */
class KakCount
{
  public:
    KakCount()
    {
        reg_.setEnabled(true);
        start_ = calls_->value();
    }
    ~KakCount() { reg_.setEnabled(was_); }
    KakCount(const KakCount &) = delete;
    KakCount &operator=(const KakCount &) = delete;

    std::int64_t delta() const { return calls_->value() - start_; }

  private:
    obs::Registry &reg_ = obs::Registry::global();
    bool was_ = reg_.enabled();
    obs::Counter *calls_ =
        reg_.counter("reqisc_kak_decompositions_total", "",
                     obs::FlightEvents::Skip);
    std::int64_t start_ = 0;
};

} // namespace

TEST(Gate, MatrixShapes)
{
    EXPECT_EQ(Gate::h(0).matrix().rows(), 2);
    EXPECT_EQ(Gate::cx(0, 1).matrix().rows(), 4);
    EXPECT_EQ(Gate::ccx(0, 1, 2).matrix().rows(), 8);
    EXPECT_EQ(Gate::mcx({0, 1, 2}, 3).matrix().rows(), 16);
}

TEST(Gate, AllMatricesUnitary)
{
    std::vector<Gate> gates = {
        Gate::x(0), Gate::y(0), Gate::z(0), Gate::h(0), Gate::s(0),
        Gate::sdg(0), Gate::t(0), Gate::tdg(0), Gate::sx(0),
        Gate::rx(0, 0.3), Gate::ry(0, -0.7), Gate::rz(0, 1.1),
        Gate::u3(0, 0.2, 0.4, 0.6), Gate::cx(0, 1), Gate::cy(0, 1),
        Gate::cz(0, 1), Gate::swap(0, 1), Gate::iswap(0, 1),
        Gate::sqisw(0, 1), Gate::bgate(0, 1), Gate::cp(0, 1, 0.5),
        Gate::rzz(0, 1, 0.4), Gate::rxx(0, 1, 0.6),
        Gate::ryy(0, 1, 0.8), Gate::can(0, 1, {0.3, 0.2, 0.1}),
        Gate::ccx(0, 1, 2), Gate::ccz(0, 1, 2), Gate::cswap(0, 1, 2),
        Gate::peres(0, 1, 2),
    };
    for (const Gate &g : gates)
        EXPECT_TRUE(g.matrix().isUnitary(1e-10)) << g.toString();
}

TEST(Gate, InverseRelations)
{
    EXPECT_MATRIX_NEAR(Gate::s(0).matrix() * Gate::sdg(0).matrix(),
                       Matrix::identity(2), 1e-12);
    EXPECT_MATRIX_NEAR(Gate::t(0).matrix() * Gate::tdg(0).matrix(),
                       Matrix::identity(2), 1e-12);
    EXPECT_MATRIX_NEAR(
        Gate::sqisw(0, 1).matrix() * Gate::sqisw(0, 1).matrix(),
        Gate::iswap(0, 1).matrix(), 1e-12);
}

TEST(Gate, WeylCoordsOfNamedGates)
{
    using weyl::WeylCoord;
    EXPECT_TRUE(Gate::cx(0, 1).weylCoord().approxEqual(
        WeylCoord::cnot(), 1e-9));
    EXPECT_TRUE(Gate::cz(0, 1).weylCoord().approxEqual(
        WeylCoord::cnot(), 1e-9));
    EXPECT_TRUE(Gate::swap(0, 1).weylCoord().approxEqual(
        WeylCoord::swap(), 1e-9));
    EXPECT_TRUE(Gate::iswap(0, 1).weylCoord().approxEqual(
        WeylCoord::iswap(), 1e-9));
    EXPECT_TRUE(Gate::sqisw(0, 1).weylCoord().approxEqual(
        WeylCoord::sqisw(), 1e-9));
    EXPECT_TRUE(Gate::bgate(0, 1).weylCoord().approxEqual(
        WeylCoord::bgate(), 1e-9));
    EXPECT_THROW(Gate::ccx(0, 1, 2).weylCoord(), std::invalid_argument);
}

TEST(U4Payload, CachedDecompositionMatchesAFreshOneBitForBit)
{
    Rng rng(211);
    std::vector<Matrix> inputs;
    for (int i = 0; i < 32; ++i)
        inputs.push_back(randomUnitary(4, rng));
    inputs.push_back(Matrix::identity(4));
    for (const Gate &g : {Gate::cx(0, 1), Gate::swap(0, 1),
                          Gate::iswap(0, 1)})
        inputs.push_back(g.matrix());
    // The chamber's x = pi/4 face and z = 0 floor, dressed with
    // random local gates.
    for (const weyl::WeylCoord &c :
         {weyl::WeylCoord{kPi / 4.0, 0.3, 0.1},
          weyl::WeylCoord{0.5, 0.2, 0.0}}) {
        // Right factors first (tools/check_rng_draws.py).
        const Matrix l1 = randomUnitary(2, rng), l0 = randomUnitary(2, rng);
        const Matrix r1 = randomUnitary(2, rng), r0 = randomUnitary(2, rng);
        inputs.push_back(kron(l0, l1) * weyl::canonicalGate(c) *
                         kron(r0, r1));
    }

    SimdGuard guard;
    for (const bool simd : kernelBackends()) {
        kernels::setSimdEnabled(simd);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            SCOPED_TRACE("input " + std::to_string(i) +
                         (simd ? " simd" : " scalar"));
            // A fresh payload, so it decomposes under this backend.
            const Gate g = Gate::u4(0, 1, inputs[i]);
            ASSERT_EQ(std::memcmp(g.payload->data(), inputs[i].data(),
                                  16 * sizeof(Complex)),
                      0);
            const weyl::WeylCoord coord = g.weylCoord();
            const weyl::KakDecomposition cached = g.payload->kak();
            const weyl::KakDecomposition fresh =
                weyl::kakDecompose(inputs[i]);
            EXPECT_EQ(std::memcmp(&cached.phase, &fresh.phase,
                                  sizeof fresh.phase),
                      0);
            EXPECT_TRUE(test::bitIdentical(cached.a1, fresh.a1));
            EXPECT_TRUE(test::bitIdentical(cached.a2, fresh.a2));
            EXPECT_TRUE(test::bitIdentical(cached.b1, fresh.b1));
            EXPECT_TRUE(test::bitIdentical(cached.b2, fresh.b2));
            EXPECT_TRUE(sameBits(cached.coord, fresh.coord));
            EXPECT_TRUE(sameBits(coord, fresh.coord));
        }
    }
}

TEST(U4Payload, DecomposesOncePerPayloadAcrossThreads)
{
    Rng rng(223);
    std::vector<Gate> gates;
    for (int i = 0; i < 64; ++i)
        gates.push_back(Gate::u4(0, 1, randomUnitary(4, rng)));

    constexpr int kThreads = 8;
    std::vector<std::vector<weyl::WeylCoord>> seen(kThreads);
    KakCount count;
    {
        std::atomic<bool> go{false};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&gates, &go, &out = seen[t]] {
                // Copies share their payload with the originals.
                const std::vector<Gate> copies = gates;
                while (!go.load())
                    std::this_thread::yield();
                for (const Gate &g : copies)
                    out.push_back(g.weylCoord());
            });
        go.store(true);
        for (std::thread &t : threads)
            t.join();
    }
    EXPECT_EQ(count.delta(), 64);
    for (int t = 1; t < kThreads; ++t)
        for (std::size_t i = 0; i < gates.size(); ++i)
            EXPECT_TRUE(sameBits(seen[t][i], seen[0][i]))
                << "thread " << t << ", gate " << i;
}

TEST(U4Payload, ExpandToCanU3ReusesTheDecomposition)
{
    Rng rng(227);
    Circuit c(3);
    for (int i = 0; i < 16; ++i) {
        c.add(Gate::u4(i % 2, i % 2 + 1, randomUnitary(4, rng)));
        c.add(Gate::h(i % 3));
        c.add(Gate::can(0, 2, {0.3, 0.2, 0.1}));
    }
    for (const Gate &g : c)
        if (g.is2Q())
            (void)g.weylCoord();
    KakCount count;
    const Circuit expanded = expandToCanU3(c);
    EXPECT_EQ(count.delta(), 0);
    EXPECT_EQ(expanded.countOp(Op::U4), 0);
    EXPECT_TRUE(buildUnitary(expanded).approxEqualUpToPhase(
        buildUnitary(c), 1e-8));
}

TEST(Circuit, Metrics)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(1, 2));
    c.add(Gate::cx(0, 1));
    c.add(Gate::t(2));
    EXPECT_EQ(c.count2Q(), 3);
    EXPECT_EQ(c.depth2Q(), 3);
    EXPECT_EQ(c.countOp(Op::CX), 3);
}

TEST(Circuit, Depth2QParallelGates)
{
    Circuit c(4);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(2, 3));  // parallel
    c.add(Gate::cx(1, 2));  // depends on both
    EXPECT_EQ(c.depth2Q(), 2);
}

TEST(Circuit, DistinctSU4Count)
{
    Circuit c(4);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cz(1, 2));    // same class as CX
    c.add(Gate::swap(2, 3));  // new class
    c.add(Gate::can(0, 1, {0.3, 0.1, 0.05}));  // new class
    EXPECT_EQ(c.countDistinctSU4(), 3);
}

TEST(Circuit, CriticalPathDuration)
{
    Circuit c(3);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(1, 2));
    c.add(Gate::cx(0, 1));
    const double d = criticalPathDuration(
        c, [](const Gate &) { return 2.0; });
    EXPECT_NEAR(d, 6.0, 1e-12);
}

TEST(Dag, LinearChain)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cx(0, 1));
    c.add(Gate::h(1));
    Dag d = buildDag(c);
    ASSERT_EQ(d.nodes.size(), 3u);
    EXPECT_TRUE(d.nodes[0].preds.empty());
    EXPECT_EQ(d.nodes[1].preds.size(), 1u);
    EXPECT_EQ(d.nodes[2].preds.size(), 1u);
    EXPECT_EQ(d.roots(), std::vector<int>{0});
    EXPECT_EQ(d.leaves(), std::vector<int>{2});
}

TEST(Dag, NoDuplicateEdges)
{
    Circuit c(2);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(0, 1));  // shares both qubits
    Dag d = buildDag(c);
    EXPECT_EQ(d.nodes[0].succs.size(), 1u);
    EXPECT_EQ(d.nodes[1].preds.size(), 1u);
}

TEST(StateVector, BellState)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cx(0, 1));
    StateVector sv(2);
    sv.applyCircuit(c);
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0] - Complex(r, 0)), 0, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitudes()[3] - Complex(r, 0)), 0, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitudes()[2]), 0.0, 1e-12);
}

TEST(StateVector, AgreesWithKron)
{
    // Apply a random 2Q gate on nonadjacent qubits of a 3-qubit state
    // and compare with the explicit kron matrix.
    Rng rng(91);
    Matrix u = randomUnitary(4, rng);
    Circuit c(3);
    c.add(Gate::u4(0, 2, u));
    Matrix full = qsim::buildUnitary(c);
    // Manual embedding: qubit 0 MSB, qubit 2 LSB, identity on qubit 1.
    Matrix expect(8, 8);
    for (int r = 0; r < 8; ++r)
        for (int cc = 0; cc < 8; ++cc) {
            const int r0 = (r >> 2) & 1, r1 = (r >> 1) & 1, r2 = r & 1;
            const int c0 = (cc >> 2) & 1, c1 = (cc >> 1) & 1,
                      c2 = cc & 1;
            if (r1 != c1)
                continue;
            expect(r, cc) = u(r0 * 2 + r2, c0 * 2 + c2);
        }
    EXPECT_MATRIX_NEAR(full, expect, 1e-12);
}

TEST(StateVector, PermuteQubits)
{
    // Prepare |100> then move qubit 0 to wire 2.
    StateVector sv(3);
    sv.applyGate(Gate::x(0));
    std::vector<int> perm = {2, 0, 1};
    sv.permuteQubits(perm);
    // Bit of qubit 0 is now on wire 2 -> state |001>.
    EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 1.0, 1e-12);
}

TEST(Lower, CcxMatchesMatrix)
{
    Circuit c(3);
    c.add(Gate::ccx(0, 1, 2));
    Circuit low = lowerThreeQubit(c);
    EXPECT_EQ(low.countOp(Op::CX), 6);
    Matrix got = buildUnitary(low);
    EXPECT_TRUE(got.approxEqualUpToPhase(buildUnitary(c), 1e-9));
}

TEST(Lower, CczCswapPeres)
{
    for (Gate g : {Gate::ccz(0, 1, 2), Gate::cswap(0, 1, 2),
                   Gate::peres(0, 1, 2)}) {
        Circuit c(3);
        c.add(g);
        Circuit low = lowerThreeQubit(c);
        EXPECT_TRUE(buildUnitary(low).approxEqualUpToPhase(
            buildUnitary(c), 1e-9))
            << g.toString();
    }
}

TEST(Lower, McxLadder)
{
    // 4-control MCX on 7 qubits (2 clean ancillas).
    Circuit c(7);
    c.add(Gate::mcx({0, 1, 2, 3}, 4));
    Circuit low = decomposeMcx(c);
    EXPECT_EQ(low.countOp(Op::CCX), 5);  // 2*(4-2)+1
    // Verify action on computational basis states with ancillas |0>.
    for (int a = 0; a < 16; ++a) {
        StateVector sv(7);
        for (int b = 0; b < 4; ++b)
            if (a & (1 << b))
                sv.applyGate(Gate::x(3 - b));
        StateVector sv2 = sv;
        sv.applyCircuit(low);
        // Expected: target (qubit 4) flips iff all controls set.
        if (a == 15)
            sv2.applyGate(Gate::x(4));
        EXPECT_NEAR(sv.fidelity(sv2), 1.0, 1e-9) << "controls " << a;
    }
}

TEST(Lower, TwoQubitAnalyticCases)
{
    Rng rng(97);
    // 1-CX class, 2-CX class, generic, local.
    std::vector<Matrix> targets;
    targets.push_back(Gate::cx(0, 1).matrix());
    targets.push_back(Gate::cz(0, 1).matrix());
    targets.push_back(Gate::iswap(0, 1).matrix());
    targets.push_back(Gate::sqisw(0, 1).matrix());
    targets.push_back(Gate::bgate(0, 1).matrix());
    targets.push_back(Gate::rzz(0, 1, 0.7).matrix());
    // Right factor first (tools/check_rng_draws.py).
    const Matrix local1 = randomSU2(rng), local0 = randomSU2(rng);
    targets.push_back(kron(local0, local1));
    targets.push_back(Gate::swap(0, 1).matrix());
    targets.push_back(randomUnitary(4, rng));
    targets.push_back(
        weyl::canonicalGate({0.6, 0.4, 0.2}));
    for (const Matrix &u : targets) {
        Circuit c(2);
        for (const Gate &g : gateToCnotsAnalytic(0, 1, u))
            c.add(g);
        EXPECT_TRUE(buildUnitary(c).approxEqualUpToPhase(u, 1e-8));
    }
}

TEST(Lower, CnotCountByClass)
{
    // CX-class: 1; z=0 class: 2; generic: <= 4 (analytic fallback).
    auto count = [](const Matrix &u) {
        Circuit c(2);
        for (const Gate &g : gateToCnotsAnalytic(0, 1, u))
            c.add(g);
        return c.countOp(Op::CX);
    };
    EXPECT_EQ(count(Gate::cz(0, 1).matrix()), 1);
    EXPECT_EQ(count(Gate::iswap(0, 1).matrix()), 2);
    EXPECT_EQ(count(Gate::sqisw(0, 1).matrix()), 2);
    EXPECT_LE(count(Gate::swap(0, 1).matrix()), 4);
}

TEST(Lower, FullCircuitToCnot)
{
    Rng rng(101);
    Circuit c(4);
    c.add(Gate::h(0));
    c.add(Gate::ccx(0, 1, 2));
    c.add(Gate::iswap(2, 3));
    c.add(Gate::rzz(0, 3, 0.5));
    c.add(Gate::can(1, 2, {0.4, 0.3, 0.1}));
    Circuit low = lowerToCnot(c);
    for (const Gate &g : low)
        EXPECT_TRUE(g.numQubits() == 1 || g.op == Op::CX)
            << g.toString();
    EXPECT_TRUE(buildUnitary(low).approxEqualUpToPhase(
        buildUnitary(c), 1e-8));
}

TEST(Lower, ExpandToCanU3)
{
    Rng rng(103);
    Circuit c(3);
    c.add(Gate::cx(0, 1));
    c.add(Gate::u4(1, 2, randomUnitary(4, rng)));
    c.add(Gate::h(0));
    Circuit e = expandToCanU3(c);
    for (const Gate &g : e)
        EXPECT_TRUE(g.op == Op::CAN || g.op == Op::U3)
            << g.toString();
    EXPECT_TRUE(buildUnitary(e).approxEqualUpToPhase(
        buildUnitary(c), 1e-8));

    // A gate on three qubits has no {Can, U3} form; it passes through.
    c.add(Gate::ccx(0, 1, 2));
    e = expandToCanU3(c);
    ASSERT_GT(e.size(), 0u);
    EXPECT_EQ(e[e.size() - 1].op, Op::CCX);
    EXPECT_EQ(e.countOp(Op::CCX), 1);
}

TEST(Density, PureStateMatchesStateVector)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::cx(0, 1));
    c.add(Gate::ccx(0, 1, 2));
    DensityMatrix rho(3);
    for (const auto &g : c)
        rho.applyGate(g);
    StateVector sv(3);
    sv.applyCircuit(c);
    auto p1 = rho.probabilities();
    auto p2 = sv.probabilities();
    for (size_t i = 0; i < p1.size(); ++i)
        EXPECT_NEAR(p1[i], p2[i], 1e-10);
    EXPECT_NEAR(rho.traceReal(), 1.0, 1e-10);
}

TEST(Density, FullDepolarizationIsUniform)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cx(0, 1));
    DensityMatrix rho(2);
    for (const auto &g : c)
        rho.applyGate(g);
    rho.depolarize({0, 1}, 1.0);
    auto p = rho.probabilities();
    for (double v : p)
        EXPECT_NEAR(v, 0.25, 1e-10);
}

TEST(Density, NoisySimulationDegradesFidelity)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(1, 2));
    auto ideal = simulateNoisy(
        c, [](const circuit::Gate &) { return 1.0; }, 0.0, 1.0);
    auto noisy = simulateNoisy(
        c, [](const circuit::Gate &) { return 1.0; }, 0.05, 1.0);
    const double f = hellingerFidelity(ideal, noisy);
    EXPECT_LT(f, 1.0 - 1e-4);
    EXPECT_GT(f, 0.8);
    // More noise -> lower fidelity.
    auto noisier = simulateNoisy(
        c, [](const circuit::Gate &) { return 4.0; }, 0.05, 1.0);
    EXPECT_LT(hellingerFidelity(ideal, noisier), f);
}

TEST(Density, HellingerIdentity)
{
    std::vector<double> p = {0.5, 0.25, 0.25, 0.0};
    EXPECT_NEAR(hellingerFidelity(p, p), 1.0, 1e-12);
}

// ---- QASM parser error paths ------------------------------------------

namespace
{

/** Expect fromQasm to throw a runtime_error whose message contains
 *  `needle` (all parser errors carry a line number + reason). */
void
expectQasmError(const std::string &text, const std::string &needle)
{
    try {
        (void)circuit::fromQasm(text);
        FAIL() << "no parse error for: " << text;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("qasm parse error"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(Qasm, MalformedHeaderIsRejected)
{
    expectQasmError("qreg q2];\nh q[0];\n", "malformed qreg");
    expectQasmError("qreg q];[;\nh q[0];\n", "malformed qreg");
    expectQasmError("qreg q[two];\nh q[0];\n", "bad integer");
    expectQasmError("qreg q[0];\n", "positive");
    expectQasmError("qreg q[-3];\n", "positive");
}

TEST(Qasm, OneRegisterNamedQ)
{
    // A second qreg once reset the circuit, so this compiled "ok" to
    // the x alone; another name failed only on its operand count.
    expectQasmError("qreg q[2];\nh q[0];\ncx q[0],q[1];\nqreg q[3];\n"
                    "x q[2];\n",
                    "a second qreg");
    expectQasmError("qreg r[2];\nh r[0];\n", "register 'r'");
    expectQasmError("qreg q[2];\nqreg r[2];\n", "a second qreg");
    EXPECT_EQ(circuit::fromQasm("qreg  q [2];\nh q[1];\n").numQubits(), 2);
}

TEST(Qasm, OperandsAreExactlyTheQTokens)
{
    // The reader once took every "q[" after the gate name, so the
    // first text compiled "ok" as h q[0]; cx q[0],q[1].
    expectQasmError("qreg q[2];\nh xq[0];\ncx q[0] junk q[1];\n",
                    "line 2: bad operand 'xq[0]'");
    expectQasmError("qreg q[2];\ncx q[0] junk q[1];\n",
                    "bad operand 'q[0] junk q[1]'");
    expectQasmError("qreg q[2];\nh r[0];\n", "bad operand 'r[0]'");
    expectQasmError("qreg q[2];\ncx q[0]q[1];\n",
                    "bad operand 'q[0]q[1]'");
    expectQasmError("qreg q[2];\ncx q[0],;\n", "bad operand ''");
    expectQasmError("qreg q[2];\nrx(0.5,) q[0];\n", "bad number ''");
}

TEST(Qasm, BadQubitIndexIsRejected)
{
    expectQasmError("qreg q[2];\ncx q[0],q[5];\n", "out of range");
    expectQasmError("qreg q[2];\nh q[-1];\n", "out of range");
    expectQasmError("qreg q[4];\ncx q[1],q[1];\n",
                    "duplicate qubit operand");
    expectQasmError("h q[0];\nqreg q[2];\n",
                    "gate before qreg");
}

TEST(Qasm, UnterminatedGateIsRejected)
{
    expectQasmError("qreg q[2];\nh q[0]\n", "missing ';'");
    expectQasmError("qreg q[2];\nrx(0.5 q[0];\n",
                    "unterminated parameter list");
    expectQasmError("qreg q[2];\ncx q[0],q[1;\n",
                    "unterminated qubit operand");
    expectQasmError("qreg q[2];\nrx(abc) q[0];\n", "bad number");
    expectQasmError("qreg q[2];\nrx() q[0];\n",
                    "wrong parameter count");
    expectQasmError("qreg q[2];\nfrobnicate q[0];\n", "unknown op");
}

TEST(Qasm, WrongQubitCountIsRejected)
{
    // Each of these compiled "ok" to a wrong circuit, or (mcx q[0])
    // crashed the compiler, before the parser checked qubit counts.
    expectQasmError("qreg q[3];\nh q[0],q[1];\n", "wrong qubit count");
    expectQasmError("qreg q[3];\ncx q[0];\n", "wrong qubit count");
    expectQasmError("qreg q[3];\nccx q[0],q[1];\n", "wrong qubit count");
    expectQasmError("qreg q[3];\nswap q[0],q[1],q[2];\n",
                    "wrong qubit count");
    expectQasmError("qreg q[3];\nmcx q[0];\n", "at least 2");
}

TEST(Qasm, NonFiniteParameterIsRejected)
{
    expectQasmError("qreg q[2];\nrx(nan) q[0];\n", "non-finite");
    expectQasmError("qreg q[2];\nrzz(inf) q[0],q[1];\n", "non-finite");
    expectQasmError("qreg q[2];\nu3(0.5,-inf,0) q[0];\n", "non-finite");
}

TEST(Qasm, BenignWhitespaceInsideTokensIsAccepted)
{
    // The strict number parsing must not narrow the accepted
    // dialect: padding inside parens/brackets stays legal.
    const Circuit c = circuit::fromQasm(
        "OPENQASM 2.0;\nqreg q[ 2 ];\nrx( 0.5 ) q[ 0 ];\n"
        "cx q[0],q[ 1 ];\ncx  q[1] ,\tq[0] ;\nh\tq[0];\n");
    ASSERT_EQ(c.size(), 4u);
    EXPECT_DOUBLE_EQ(c[0].params[0], 0.5);
    EXPECT_EQ(c[1].qubits, (std::vector<int>{0, 1}));
    EXPECT_EQ(c[2].qubits, (std::vector<int>{1, 0}));
    EXPECT_EQ(c[3].op, Op::H);
    EXPECT_EQ(c[3].qubits, (std::vector<int>{0}));
}

TEST(Qasm, ErrorsCarryTheLineNumber)
{
    try {
        (void)circuit::fromQasm(
            "OPENQASM 2.0;\nqreg q[2];\n// fine\ncx q[0],q[9];\n");
        FAIL() << "no parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 4"),
                  std::string::npos)
            << e.what();
    }
}
