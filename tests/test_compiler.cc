/**
 * @file
 * Tests for the compiler passes, pipelines and baselines. The core
 * invariant: every pass and pipeline preserves circuit semantics up
 * to global phase (and the tracked output permutation for mirroring).
 * dagCompact is also pinned gate for gate against its pre-certificate
 * implementation, kept verbatim below as the oracle.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "compiler/baselines.hh"
#include "compiler/metrics.hh"
#include "compiler/passes.hh"
#include "compiler/pipeline.hh"
#include "qmath/expm.hh"
#include "qmath/random.hh"
#include "qsim/statevector.hh"
#include "service/persist.hh"
#include "suite/suite.hh"
#include "synth/instantiate.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using namespace reqisc::compiler;
using namespace reqisc::qmath;

namespace
{

/** Small mixed test circuit with high-level and low-level gates. */
Circuit
mixedCircuit(int seed)
{
    Rng rng(seed);
    std::uniform_real_distribution<double> ang(-1.5, 1.5);
    Circuit c(4);
    c.add(Gate::h(0));
    c.add(Gate::cx(0, 1));
    c.add(Gate::t(1));
    c.add(Gate::cx(0, 1));
    c.add(Gate::ccx(0, 1, 2));
    c.add(Gate::rz(2, ang(rng)));
    c.add(Gate::cx(2, 3));
    c.add(Gate::rx(3, ang(rng)));
    c.add(Gate::cx(2, 3));
    c.add(Gate::ccx(1, 2, 3));
    c.add(Gate::h(3));
    c.add(Gate::cx(0, 3));
    return c;
}

/** Semantics check up to phase and an output permutation. */
::testing::AssertionResult
sameSemantics(const Circuit &a, const Circuit &b,
              const std::vector<int> &perm_b, double tol = 1e-6)
{
    Matrix ua = qsim::buildUnitary(a);
    Matrix ub = perm_b.empty()
        ? qsim::buildUnitary(b)
        : qsim::buildUnitaryWithPermutation(b, perm_b);
    if (ua.approxEqualUpToPhase(ub, tol))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "circuits differ, fidelity="
           << qmath::traceFidelity(ua, ub);
}

// ---- The pre-certificate dagCompact, kept verbatim as the oracle -------

Circuit
legacyDagCompact(const Circuit &input, double tol = 1e-9)
{
    Circuit c = input;
    // A few greedy passes of adjacent exchanges.
    for (int pass = 0; pass < 3; ++pass) {
        bool changed = false;
        for (size_t i = 0; i + 1 < c.size(); ++i) {
            Gate &g1 = c[i];
            // Find the next multi-qubit gate adjacent in the DAG.
            if (!g1.is2Q() || (g1.op != Op::U4 && g1.op != Op::CAN))
                continue;
            size_t j = i + 1;
            bool blocked = false;
            for (; j < c.size(); ++j) {
                const Gate &gj = c[j];
                bool touches = false;
                for (int q : gj.qubits)
                    for (int p : g1.qubits)
                        if (q == p)
                            touches = true;
                if (touches) {
                    if (gj.is2Q() &&
                        (gj.op == Op::U4 || gj.op == Op::CAN))
                        break;
                    blocked = true;
                    break;
                }
            }
            if (blocked || j >= c.size())
                continue;
            Gate &g2 = c[j];
            // The exchange moves g2 before the gates between i and j;
            // it is only legal when none of them touch g2's qubits.
            for (size_t k = i + 1; k < j && !blocked; ++k)
                for (int q : c[k].qubits)
                    for (int p : g2.qubits)
                        if (q == p)
                            blocked = true;
            if (blocked)
                continue;
            // Exchange only pairs sharing exactly one qubit.
            int shared = 0;
            for (int q : g2.qubits)
                for (int p : g1.qubits)
                    if (q == p)
                        ++shared;
            if (shared != 1)
                continue;
            // Try the exchange on a copy and keep it if it lowers the
            // compactness score.
            Circuit trial = c;
            std::swap(trial[i], trial[j]);
            if (compactnessScore(trial) >= compactnessScore(c))
                continue;
            // Re-instantiate the swapped pair against the joint
            // unitary on the union qubits.
            std::vector<int> uq = g1.qubits;
            for (int q : g2.qubits)
                if (std::find(uq.begin(), uq.end(), q) == uq.end())
                    uq.push_back(q);
            std::sort(uq.begin(), uq.end());
            auto local = [&](const Gate &g) {
                std::vector<int> idx;
                for (int q : g.qubits)
                    idx.push_back(static_cast<int>(
                        std::find(uq.begin(), uq.end(), q) -
                        uq.begin()));
                return idx;
            };
            const Matrix m1 = synth::liftGate(g1.matrix(), local(g1),
                                              3);
            const Matrix m2 = synth::liftGate(g2.matrix(), local(g2),
                                              3);
            const Matrix joint = m2 * m1;   // g1 first
            // Reversed order: g2' first, then g1'.
            std::vector<synth::Slot> slots = {
                synth::Slot::free2Q(local(g2)[0], local(g2)[1]),
                synth::Slot::free2Q(local(g1)[0], local(g1)[1]),
            };
            synth::InstantiateOptions iopts;
            iopts.tol = tol;
            iopts.restarts = 2;
            iopts.maxSweeps = 200;
            synth::InstantiateResult r =
                test::legacyInstantiate(joint, 3, slots, iopts);
            if (!r.converged)
                continue;
            Gate ng2 = Gate::u4(g2.qubits[0], g2.qubits[1],
                                r.slots[0].value);
            Gate ng1 = Gate::u4(g1.qubits[0], g1.qubits[1],
                                r.slots[1].value);
            // Keep the slot qubit order consistent: free2Q was built
            // on sorted-local indices matching g's qubit order.
            c[i] = ng2;
            c[j] = ng1;
            changed = true;
        }
        if (!changed)
            break;
    }
    return c;
}

/** What hier-synth hands dagCompact: the template-lowered, fused IR. */
Circuit
compactInput(const Circuit &c)
{
    return fuse2QBlocks(
        fuse1Q(templateSynthesis(circuit::decomposeMcx(c))));
}

/** The examples/qasm circuits, by file name in sorted order. */
std::vector<std::pair<std::string, Circuit>>
exampleCircuits()
{
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(REQISC_SOURCE_DIR) + "/examples/qasm"))
        if (e.path().extension() == ".qasm")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::vector<std::pair<std::string, Circuit>> out;
    for (const auto &f : files)
        out.emplace_back(f.filename().string(),
                         circuit::fromQasm(test::readFile(f.string())));
    return out;
}

/**
 * A random 3-6 qubit circuit mixing Haar SU(4)s with diagonal ZZ
 * rotations and CXs, so some adjacent pairs exchange exactly.
 */
Circuit
randomU4Circuit(Rng &rng)
{
    std::uniform_int_distribution<int> width(3, 6), length(6, 14),
        kind(0, 5);
    std::uniform_real_distribution<double> ang(-1.5, 1.5);
    const Matrix z = Gate::z(0).matrix();
    const int n = width(rng);
    std::uniform_int_distribution<int> wire(0, n - 1);
    Circuit c(n);
    for (int g = length(rng); g > 0; --g) {
        const int a = wire(rng);
        int b = wire(rng);
        while (b == a)
            b = wire(rng);
        const int k = kind(rng);
        if (k < 2)
            c.add(Gate::u4(a, b, randomUnitary(4, rng)));
        else if (k < 4)
            c.add(Gate::u4(a, b, expim(kron(z, z), ang(rng))));
        else if (k == 4)
            c.add(Gate::cx(a, b));
        else
            c.add(Gate::rx(a, ang(rng)));
    }
    return c;
}

} // namespace

TEST(Passes, Fuse1QPreservesSemantics)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::t(0));
    c.add(Gate::s(0));
    c.add(Gate::x(1));
    c.add(Gate::cx(0, 1));
    c.add(Gate::rz(1, 0.3));
    c.add(Gate::rx(1, 0.7));
    Circuit f = fuse1Q(c);
    EXPECT_TRUE(sameSemantics(c, f, {}));
    // The three leading 1Q gates merge into one U3.
    EXPECT_EQ(f.size(), 4u);
}

TEST(Passes, Fuse1QDropsIdentity)
{
    Circuit c(1);
    c.add(Gate::h(0));
    c.add(Gate::h(0));
    Circuit f = fuse1Q(c);
    EXPECT_EQ(f.size(), 0u);
}

TEST(Passes, Fuse2QBlocksMergesRuns)
{
    Circuit c = mixedCircuit(3);
    Circuit low = lowerThreeQubit(c);
    Circuit f = fuse2QBlocks(fuse1Q(low));
    EXPECT_TRUE(sameSemantics(low, f, {}));
    // The CX-T-CX runs on a pair collapse into single U4s.
    EXPECT_LT(f.count2Q(), low.count2Q());
}

TEST(Passes, Fuse2QBlocksParallelPairs)
{
    Circuit c(4);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(2, 3));
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(2, 3));
    Circuit f = fuse2QBlocks(c);
    EXPECT_TRUE(sameSemantics(c, f, {}));
    EXPECT_EQ(f.count2Q(), 2);
}

TEST(Passes, Partition3QCoversAllGates)
{
    Circuit c = fuse2QBlocks(fuse1Q(lowerThreeQubit(
        mixedCircuit(5))));
    auto blocks = partition3Q(c);
    size_t total = 0;
    for (const auto &b : blocks) {
        EXPECT_LE(b.qubits.size(), 3u);
        total += b.gates.size();
    }
    EXPECT_EQ(total, c.size());
    Circuit re = blocksToCircuit(blocks, c.numQubits());
    EXPECT_TRUE(sameSemantics(c, re, {}));
}

TEST(Passes, DagCompactPreservesSemantics)
{
    Rng rng(31);
    Circuit c(4);
    // Chain of overlapping random SU(4)s, the compacting target.
    for (int i = 0; i < 6; ++i) {
        int a = i % 3;
        c.add(Gate::u4(a, a + 1, randomUnitary(4, rng)));
    }
    Circuit d = dagCompact(c);
    EXPECT_TRUE(sameSemantics(c, d, {}, 1e-4));
    EXPECT_LE(compactnessScore(d), compactnessScore(c));
}

TEST(Passes, DagCompactMatchesTheLegacyOracle)
{
    std::vector<std::pair<std::string, Circuit>> inputs =
        exampleCircuits();
    ASSERT_FALSE(inputs.empty());
    for (const auto &b : suite::smallSuite())
        inputs.emplace_back(b.name, b.circuit);
    Rng rng(61);
    for (int i = 0; i < 200; ++i)
        inputs.emplace_back("random_" + std::to_string(i),
                            randomU4Circuit(rng));

    int exchanged = 0;
    for (const auto &[name, c] : inputs) {
        const Circuit in = name.rfind("random_", 0) == 0
            ? fuse2QBlocks(fuse1Q(c))
            : compactInput(c);
        const Circuit got = dagCompact(in);
        ASSERT_TRUE(test::circuitsIdentical(got, legacyDagCompact(in)))
            << name;
        exchanged += !test::circuitsIdentical(got, in);
    }
    // Some inputs really exchange, so the oracle covers both paths.
    EXPECT_GT(exchanged, 20);
}

TEST(Passes, DagCompactHonoursSynthTol)
{
    // A ZZ rotation on (0, 1) and a ZZ rotation on (1, 2) carrying an
    // XX admixture of 1e-5: the best exchange has an infidelity in
    // (1e-12, 1e-9), and exchanging lets the two (0, 1) gates fuse.
    const Matrix z = Gate::z(0).matrix(), x = Gate::x(0).matrix();
    const Matrix zz = kron(z, z), xx = kron(x, x);
    const Matrix a = expim(zz, 0.4);
    const Matrix b = expim(zz * 0.7 + xx * 1e-5);
    Circuit c(3);
    c.add(Gate::u4(0, 1, a));
    c.add(Gate::u4(1, 2, b));
    c.add(Gate::u4(0, 1, expim(xx, 0.3)));

    synth::InstantiateOptions iopts;
    iopts.tol = 1e-9;
    iopts.restarts = 2;
    iopts.maxSweeps = 200;
    const synth::InstantiateResult best = synth::instantiate(
        synth::liftGate(b, {1, 2}, 3) * synth::liftGate(a, {0, 1}, 3),
        3, {synth::Slot::free2Q(1, 2), synth::Slot::free2Q(0, 1)},
        iopts);
    ASSERT_TRUE(best.converged);
    EXPECT_GT(best.infidelity, 1e-12);

    // hierarchicalSynthesis must forward its tolerance to the
    // dagCompact it runs first.
    auto run = [&](const std::string &pass, double tol) {
        return pass == "dag-compact"
                   ? dagCompact(c, tol)
                   : hierarchicalSynthesis(c, kHierSynthThreshold, tol);
    };
    for (const char *pass : {"dag-compact", "hier-synth"}) {
        const Circuit loose = run(pass, 1e-9);
        const Circuit tight = run(pass, 1e-12);
        EXPECT_EQ(loose[0].qubits, (std::vector<int>{1, 2})) << pass;
        EXPECT_EQ(tight[0].qubits, (std::vector<int>{0, 1})) << pass;
        EXPECT_TRUE(sameSemantics(c, loose, {}, 1e-4)) << pass;
    }
    EXPECT_EQ(run("hier-synth", 1e-9).count2Q(), 2);
    EXPECT_EQ(run("hier-synth", 1e-12).count2Q(), 3);
}

TEST(Passes, HierarchicalSynthesisReducesCount)
{
    // A CCX-pair circuit in CX basis has 12+ 2Q gates; hierarchical
    // synthesis must cut it substantially.
    Circuit c(3);
    c.add(Gate::ccx(0, 1, 2));
    c.add(Gate::ccx(0, 2, 1));
    Circuit low = lowerThreeQubit(c);
    ASSERT_GE(low.count2Q(), 12);
    Circuit h = hierarchicalSynthesis(low);
    EXPECT_TRUE(sameSemantics(low, h, {}, 1e-3));
    EXPECT_LE(h.count2Q(), 7);
}

TEST(Passes, MirrorNearIdentityTracksPermutation)
{
    Rng rng(37);
    Circuit c(3);
    // A near-identity CAN plus regular gates.
    c.add(Gate::h(0));
    c.add(Gate::can(0, 1, {0.02, 0.01, 0.0}));
    c.add(Gate::cx(1, 2));
    c.add(Gate::can(1, 2, {0.03, 0.0, 0.0}));
    std::vector<int> perm;
    Circuit m = mirrorNearIdentity(c, perm, 0.1);
    EXPECT_TRUE(sameSemantics(c, m, perm));
    // Both near-identity gates were mirrored; #2Q unchanged.
    EXPECT_EQ(m.count2Q(), c.count2Q());
    // All remaining 2Q gates are far from identity.
    for (const Gate &g : m) {
        if (g.is2Q()) {
            EXPECT_GT(g.weylCoord().norm1(), 0.1);
        }
    }
}

TEST(Passes, MirrorIdentityPermWhenNothingNearIdentity)
{
    Circuit c(2);
    c.add(Gate::cx(0, 1));
    std::vector<int> perm;
    Circuit m = mirrorNearIdentity(c, perm, 0.05);
    EXPECT_EQ(perm, (std::vector<int>{0, 1}));
    EXPECT_TRUE(sameSemantics(c, m, perm));
}

TEST(Passes, GroupPauliRotationsEnablesFusion)
{
    Circuit c(3);
    c.add(Gate::rzz(0, 1, 0.3));
    c.add(Gate::rzz(1, 2, 0.4));
    c.add(Gate::rzz(0, 1, 0.5));
    Circuit g = groupPauliRotations(c);
    EXPECT_TRUE(sameSemantics(c, g, {}));
    Circuit f = fuse2QBlocks(g);
    EXPECT_EQ(f.count2Q(), 2);  // the two (0,1) rotations merged
}

TEST(Passes, CancelAdjacentCx)
{
    Circuit c(3);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(1, 2));
    c.add(Gate::h(0));   // does not block the (1,2) pair
    c.add(Gate::cx(1, 2));
    Circuit f = cancelAdjacentCx(c);
    EXPECT_TRUE(sameSemantics(c, f, {}));
    EXPECT_EQ(f.countOp(Op::CX), 0);
}

TEST(Pipeline, TemplateSynthesisCorrectAndSmall)
{
    Circuit c(4);
    c.add(Gate::ccx(0, 1, 2));
    c.add(Gate::ccx(1, 2, 3));
    c.add(Gate::cx(0, 3));
    Circuit t = templateSynthesis(c);
    EXPECT_TRUE(sameSemantics(c, t, {}, 1e-3));
    // Each CCX costs at most 5 SU(4)s, far below the 6-CX unrolling.
    EXPECT_LE(t.count2Q(), 11);
}

TEST(Pipeline, EffPreservesSemantics)
{
    Circuit c = mixedCircuit(41);
    CompileResult r = reqiscEff(c);
    EXPECT_TRUE(sameSemantics(c, r.circuit, r.finalPermutation,
                              1e-4));
    for (const Gate &g : r.circuit)
        EXPECT_TRUE(g.op == Op::CAN || g.op == Op::U3);
}

TEST(Pipeline, FullPreservesSemanticsAndReduces)
{
    Circuit c = mixedCircuit(43);
    Circuit low = lowerToCnot3(c);
    CompileResult eff = reqiscEff(c);
    CompileResult full = reqiscFull(c);
    EXPECT_TRUE(sameSemantics(c, full.circuit,
                              full.finalPermutation, 1e-3));
    EXPECT_LE(full.circuit.count2Q(), eff.circuit.count2Q());
    EXPECT_LT(eff.circuit.count2Q(), low.count2Q());
}

TEST(Pipeline, EffHasFewDistinctSU4)
{
    // Template-based compilation keeps the calibration set small.
    Circuit c(5);
    for (int i = 0; i < 3; ++i) {
        c.add(Gate::ccx(i, i + 1, i + 2));
        c.add(Gate::cx(i, i + 1));
    }
    CompileResult r = reqiscEff(c);
    EXPECT_LE(r.circuit.countDistinctSU4(), 10);
}

TEST(Pipeline, NoCompactingAblationStillCorrect)
{
    Circuit c = mixedCircuit(47);
    CompileResult r =
        runPasses(c, {"synth", "group-pauli", "fuse", "hier-synth:nc",
                      "mirror", "lower"});
    EXPECT_TRUE(sameSemantics(c, r.circuit, r.finalPermutation,
                              1e-3));
}

TEST(Baselines, QiskitLikePreservesAndReduces)
{
    Circuit c = mixedCircuit(53);
    Circuit low = lowerToCnot3(c);
    Circuit q = qiskitLike(c);
    EXPECT_TRUE(sameSemantics(c, q, {}, 1e-4));
    EXPECT_LE(q.count2Q(), low.count2Q());
    for (const Gate &g : q)
        EXPECT_TRUE(g.numQubits() == 1 || g.op == Op::CX);
}

TEST(Baselines, TketLikeMergesRotations)
{
    Circuit c(3);
    c.add(Gate::rzz(0, 1, 0.3));
    c.add(Gate::rzz(1, 2, 0.4));
    c.add(Gate::rzz(0, 1, 0.5));
    c.add(Gate::rx(0, 0.2));
    Circuit t = tketLike(c);
    EXPECT_TRUE(sameSemantics(c, t, {}, 1e-4));
    // Merged (0,1) rotations: 2 + 2 CX instead of 6.
    EXPECT_LE(t.countOp(Op::CX), 4);
}

TEST(Baselines, BqskitLikeResynthesizes)
{
    Circuit c(3);
    c.add(Gate::ccx(0, 1, 2));
    c.add(Gate::ccx(0, 2, 1));
    Circuit b = bqskitLike(c);
    EXPECT_TRUE(sameSemantics(c, b, {}, 1e-3));
    // 12 CX unrolled -> at most 3 * (SU4 blocks) after resynthesis.
    EXPECT_LT(b.countOp(Op::CX), 12);
}

TEST(Baselines, Su4VariantsEmitCanU3)
{
    Circuit c = mixedCircuit(59);
    for (auto *fn : {&qiskitSU4, &tketSU4, &bqskitSU4}) {
        Circuit out = (*fn)(c);
        EXPECT_TRUE(sameSemantics(c, out, {}, 1e-3));
        for (const Gate &g : out)
            EXPECT_TRUE(g.op == Op::CAN || g.op == Op::U3)
                << g.toString();
    }
}

TEST(Baselines, OutputsMatchParentDigest)
{
    // FNV-1a over the op, qubits, parameter bits and U4 payload bits
    // of every baseline's output on the examples/qasm circuits, plus
    // two Toffolis: no example block passes bqskitLike's CX-count
    // acceptance, and this pair does. The pin is the value this test
    // printed before the baselines built their block unitaries
    // through synth::blockUnitary; they must keep reproducing it bit
    // for bit.
    std::string bytes;
    auto put = [&bytes](const auto &v) {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    };
    auto inputs = exampleCircuits();
    ASSERT_EQ(inputs.size(), 4u);
    Circuit toffolis(3);
    toffolis.add(Gate::ccx(0, 1, 2));
    toffolis.add(Gate::ccx(0, 2, 1));
    inputs.emplace_back("toffolis", toffolis);
    std::size_t gates = 0;
    for (const auto &[name, input] : inputs)
        for (auto *fn : {&qiskitLike, &tketLike, &bqskitLike,
                         &qiskitSU4, &tketSU4, &bqskitSU4})
            for (const Gate &g : (*fn)(input)) {
                put(static_cast<int>(g.op));
                put(g.qubits.size());
                for (int q : g.qubits)
                    put(q);
                put(g.params.size());
                for (double p : g.params)
                    put(p);
                put(g.payload != nullptr);
                if (g.payload) {
                    const Matrix m = g.payload->matrix();
                    for (int r = 0; r < m.rows(); ++r)
                        for (int c = 0; c < m.cols(); ++c) {
                            put(m(r, c).real());
                            put(m(r, c).imag());
                        }
                }
                ++gates;
            }
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64,
                  service::persist::fnv1aBytes(bytes.data(),
                                               bytes.size()));
    std::printf("baselines digest %s over %zu gates\n", digest, gates);
    EXPECT_EQ(std::string(digest), "0fca05fdef9c7fc2");
}

TEST(Metrics, DurationModels)
{
    Circuit c(2);
    c.add(Gate::cx(0, 1));
    auto conv = conventionalDurationModel(1.0);
    auto rq = reqiscDurationModel(uarch::Coupling::xy(1.0));
    Metrics mc = evaluate(c, conv);
    Metrics mr = evaluate(c, rq);
    EXPECT_NEAR(mc.duration, M_PI / std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(mr.duration, M_PI / 2.0, 1e-9);
    EXPECT_EQ(mc.count2Q, 1);
    EXPECT_EQ(mc.depth2Q, 1);
}

TEST(Metrics, SwapCostsThreeConventionally)
{
    Circuit c(2);
    c.add(Gate::swap(0, 1));
    auto conv = conventionalDurationModel(1.0);
    EXPECT_NEAR(evaluate(c, conv).duration,
                3.0 * M_PI / std::sqrt(2.0), 1e-9);
    auto rq = reqiscDurationModel(uarch::Coupling::xy(1.0));
    EXPECT_NEAR(evaluate(c, rq).duration, 0.75 * M_PI, 1e-9);
}
