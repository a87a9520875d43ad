/**
 * @file
 * Tests for the numeric instantiation engine (including its
 * light-cone certificate, checked against the legacy oracle in
 * test_util), approximate synthesis and the 3Q template library.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "circuit/lower.hh"
#include "obs/metrics.hh"
#include "qmath/expm.hh"
#include "qmath/random.hh"
#include "qsim/statevector.hh"
#include "synth/instantiate.hh"
#include "synth/synthesis.hh"
#include "synth/templates.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using namespace reqisc::qmath;
using namespace reqisc::synth;

TEST(Instantiate, LiftGateMatchesSimulator)
{
    Rng rng(201);
    Matrix g = randomUnitary(4, rng);
    Matrix lifted = liftGate(g, {0, 2}, 3);
    Circuit c(3);
    c.add(Gate::u4(0, 2, g));
    EXPECT_MATRIX_NEAR(lifted, qsim::buildUnitary(c), 1e-12);
}

TEST(Instantiate, SingleFreeBlockRecoversTarget)
{
    Rng rng(203);
    Matrix target = randomUnitary(4, rng);
    std::vector<Slot> slots = {Slot::free2Q(0, 1)};
    InstantiateResult r = instantiate(target, 2, slots);
    ASSERT_TRUE(r.converged);
    EXPECT_LT(r.infidelity, 1e-11);
    EXPECT_TRUE(r.slots[0].value.approxEqualUpToPhase(target, 1e-5));
}

TEST(Instantiate, FixedSlotsOnlyFreeOneQubit)
{
    // target = (u1 x u2) CX: free 1Q layers around a fixed CX.
    Rng rng(207);
    Matrix u1 = randomSU2(rng), u2 = randomSU2(rng);
    Matrix target = kron(u1, u2) * Gate::cx(0, 1).matrix();
    std::vector<Slot> slots = {
        Slot::fixed({0, 1}, Gate::cx(0, 1).matrix()),
        Slot::free1Q(0), Slot::free1Q(1)};
    InstantiateResult r = instantiate(target, 2, slots);
    ASSERT_TRUE(r.converged);
    EXPECT_LT(r.infidelity, 1e-11);
}

TEST(Instantiate, ThreeQubitRandomWithFiveBlocks)
{
    Rng rng(211);
    Matrix target = randomUnitary(8, rng);
    std::vector<Slot> slots;
    const std::pair<int, int> seq[] = {{0, 1}, {1, 2}, {0, 2},
                                       {0, 1}, {1, 2}};
    for (auto [a, b] : seq)
        slots.push_back(Slot::free2Q(a, b));
    for (int q = 0; q < 3; ++q)
        slots.push_back(Slot::free1Q(q));
    InstantiateOptions opts;
    opts.restarts = 5;
    opts.maxSweeps = 800;
    InstantiateResult r = instantiate(target, 3, slots, opts);
    // Five blocks cannot always express Haar targets exactly, but
    // they get very close; six blocks must converge (tested below via
    // synthesizeBlock). Here just require substantial progress.
    EXPECT_LT(r.infidelity, 0.05);
}

TEST(SupportDefect, CxSpreadsEachQubitOntoThePair)
{
    const Matrix cx = Gate::cx(0, 1).matrix();
    // X on the control becomes X X, Z on the target becomes Z Z: each
    // a Pauli of Frobenius norm 2 with no part on the lone qubit.
    EXPECT_EQ(supportDefect(cx, 2, 0, {0}), 2.0);
    EXPECT_EQ(supportDefect(cx, 2, 1, {1}), 2.0);
    EXPECT_EQ(supportDefect(cx, 2, 0, {0, 1}), 0.0);
}

TEST(SupportDefect, VanishesWhereTheCircuitKeepsTheSupport)
{
    Rng rng(229);
    // Right factors first (tools/check_rng_draws.py).
    const Matrix u2 = randomUnitary(2, rng), u1 = randomUnitary(2, rng),
                 u0 = randomUnitary(2, rng);
    const Matrix local = kron(kron(u0, u1), u2);
    for (int q = 0; q < 3; ++q)
        EXPECT_LE(supportDefect(local, 3, q, {q}), 1e-14) << q;

    // B on (1, 2) after A on (0, 1): qubit 0 only ever meets qubit 1,
    // while qubit 2's Paulis reach qubit 0 through A.
    const Matrix a = randomUnitary(4, rng), b = randomUnitary(4, rng);
    const Matrix t = liftGate(b, {1, 2}, 3) * liftGate(a, {0, 1}, 3);
    EXPECT_LE(supportDefect(t, 3, 0, {0, 1}), 1e-14);
    EXPECT_GT(supportDefect(t, 3, 2, {1, 2}), 0.1);
}

TEST(Instantiate, CertificateCountsRuledOutCalls)
{
    auto &reg = obs::Registry::global();
    const bool was = reg.enabled();
    reg.setEnabled(true);
    obs::Counter *calls = reg.counter("reqisc_instantiate_calls_total",
                                      "");
    obs::Counter *ruled =
        reg.counter("reqisc_instantiate_ruled_out_total", "");
    const Matrix target = liftGate(Gate::cx(0, 1).matrix(), {0, 1}, 3);

    const std::int64_t calls0 = calls->value(), ruled0 = ruled->value();
    InstantiateResult local = instantiate(
        target, 3, {Slot::free1Q(0), Slot::free1Q(1), Slot::free1Q(2)});
    EXPECT_EQ(calls->value() - calls0, 1);
    EXPECT_EQ(ruled->value() - ruled0, 1);
    EXPECT_FALSE(local.converged);
    EXPECT_EQ(local.sweeps, 0);
    // Qubit 0's X becomes X X I, so d = ||X X I||_F = sqrt(8) and
    // the certified bound is d^2 / (8 * 8).
    EXPECT_DOUBLE_EQ(local.infidelity, 1.0 / 8.0);
    ASSERT_EQ(local.slots.size(), 3u);
    EXPECT_TRUE(
        test::bitIdentical(local.slots[0].value, Matrix::identity(2)));

    // Every cone of (1,2)(0,1)(1,2) covers all three qubits.
    const std::int64_t calls1 = calls->value(), ruled1 = ruled->value();
    InstantiateResult full = instantiate(
        target, 3,
        {Slot::free2Q(1, 2), Slot::free2Q(0, 1), Slot::free2Q(1, 2)});
    EXPECT_EQ(calls->value() - calls1, 1);
    EXPECT_EQ(ruled->value() - ruled1, 0);
    EXPECT_TRUE(full.converged);
    reg.setEnabled(was);
}

namespace
{

/** A structure on `n` qubits whose light cones miss some qubit. */
struct PartialCone
{
    const char *name;
    int n;
    std::vector<Slot> slots;
    InstantiateOptions opts;
};

std::vector<PartialCone>
partialConeStructures()
{
    const std::pair<int, int> pairs[3] = {{0, 1}, {1, 2}, {0, 2}};
    auto withLocals = [](std::vector<Slot> slots, int n) {
        for (int q = 0; q < n; ++q)
            slots.push_back(Slot::free1Q(q));
        return slots;
    };
    InstantiateOptions search;   // the block-synthesis settings
    search.tol = 1e-9;
    InstantiateOptions exchange;  // dagCompact's settings
    exchange.tol = 1e-9;
    exchange.restarts = 2;
    exchange.maxSweeps = 200;
    InstantiateOptions basis;     // su4ToFixedBasis's settings
    basis.tol = 1e-10;
    basis.restarts = 10;
    basis.maxSweeps = 600;

    std::vector<PartialCone> out;
    out.push_back({"k0", 3, withLocals({}, 3), search});
    for (const auto &[a, b] : pairs)
        out.push_back(
            {"k1", 3, withLocals({Slot::free2Q(a, b)}, 3), search});
    // The distinct k = 2 pair sequences threeQubitStructures yields.
    const int k2[4][2] = {{0, 1}, {1, 2}, {2, 0}, {0, 2}};
    for (const auto &seq : k2)
        out.push_back({"k2", 3,
                       withLocals({Slot::free2Q(pairs[seq[0]].first,
                                                pairs[seq[0]].second),
                                   Slot::free2Q(pairs[seq[1]].first,
                                                pairs[seq[1]].second)},
                                  3),
                       search});
    // dagCompact's exchange: g2' first, then g1', sharing one qubit.
    const int swaps[6][4] = {{1, 2, 0, 1}, {0, 1, 1, 2}, {0, 2, 0, 1},
                             {0, 1, 0, 2}, {2, 1, 0, 2}, {0, 2, 2, 1}};
    for (const auto &x : swaps)
        out.push_back({"exchange", 3,
                       {Slot::free2Q(x[0], x[1]),
                        Slot::free2Q(x[2], x[3])},
                       exchange});
    out.push_back({"2q-local", 2, withLocals({}, 2), basis});
    return out;
}

/** The structure's circuit with random values in its free slots. */
Matrix
randomMember(const PartialCone &pc, Rng &rng)
{
    const int dim = 1 << pc.n;
    Matrix v = Matrix::identity(dim);
    for (const Slot &s : pc.slots)
        v = liftGate(s.kind == Slot::Kind::Free
                         ? randomUnitary(1 << s.qubits.size(), rng)
                         : s.value,
                     s.qubits, pc.n) *
            v;
    return v;
}

} // namespace

TEST(Instantiate, CertificateNeverChangesAResult)
{
    const std::vector<PartialCone> structures = partialConeStructures();
    Rng rng(233);
    int cases = 0, ruled_out = 0, converged = 0;
    for (int rep = 0; rep < 45; ++rep) {
        for (const PartialCone &pc : structures) {
            const int dim = 1 << pc.n;
            // Haar, exactly in the structure, and in the structure
            // with a perturbation of infidelity 0.1..10 x tol.
            const Matrix member = randomMember(pc, rng);
            Matrix h = randomHermitian(dim, rng);
            h = h * (1.0 / std::sqrt((h * h).trace().real() / dim));
            const double scale =
                std::pow(10.0, -1.0 + 2.0 * (rep % 9) / 8.0);
            const Matrix near =
                member * expim(h, std::sqrt(2.0 * scale * pc.opts.tol));
            for (const Matrix &target :
                 {randomUnitary(dim, rng), member, near}) {
                InstantiateOptions opts = pc.opts;
                opts.seed = 1000u + static_cast<unsigned>(cases);
                const InstantiateResult got =
                    instantiate(target, pc.n, pc.slots, opts);
                const InstantiateResult want =
                    test::legacyInstantiate(target, pc.n, pc.slots,
                                            opts);
                ++cases;
                ASSERT_EQ(got.converged, want.converged)
                    << pc.name << " case " << cases;
                converged += want.converged;
                if (!got.converged && got.sweeps == 0) {
                    // Ruled out: the structure as given and a
                    // certified lower bound on the legacy best.
                    ++ruled_out;
                    EXPECT_LE(got.infidelity, want.infidelity)
                        << pc.name << " case " << cases;
                    ASSERT_EQ(got.slots.size(), pc.slots.size());
                    for (size_t i = 0; i < got.slots.size(); ++i)
                        EXPECT_TRUE(test::bitIdentical(got.slots[i].value,
                                             pc.slots[i].value));
                    continue;
                }
                // Anything not ruled out is the legacy run, bit for
                // bit.
                EXPECT_EQ(std::memcmp(&got.infidelity, &want.infidelity,
                                      sizeof(double)),
                          0)
                    << pc.name << " case " << cases;
                EXPECT_EQ(got.sweeps, want.sweeps);
                ASSERT_EQ(got.slots.size(), want.slots.size());
                for (size_t i = 0; i < got.slots.size(); ++i)
                    EXPECT_TRUE(test::bitIdentical(got.slots[i].value,
                                         want.slots[i].value))
                        << pc.name << " case " << cases << " slot "
                        << i;
            }
        }
    }
    EXPECT_GE(cases, 2000);
    // The oracle exercises both sides of the certificate.
    EXPECT_GT(ruled_out, cases / 4);
    EXPECT_GT(converged, cases / 4);
}

TEST(Synthesis, LowerBounds)
{
    // Section 5.1.1: b_SU4(3) = 6, b_CNOT(3) = 14 (ceil(54/4)).
    EXPECT_EQ(su4LowerBound(2), 1);
    EXPECT_EQ(su4LowerBound(3), 6);
    EXPECT_EQ(cnotLowerBound(2), 3);
    EXPECT_EQ(cnotLowerBound(3), 14);
}

TEST(Synthesis, RandomThreeQubitTarget)
{
    Rng rng(213);
    Matrix target = randomUnitary(8, rng);
    SynthesisOptions opts;
    opts.tol = 1e-8;
    SynthesisResult r = synthesizeBlock(target, {0, 1, 2}, opts);
    ASSERT_TRUE(r.success);
    EXPECT_GE(r.blockCount, su4LowerBound(3));
    EXPECT_LE(r.blockCount, 7);
    Circuit c(3);
    for (const Gate &g : r.gates)
        c.add(g);
    EXPECT_TRUE(qsim::buildUnitary(c).approxEqualUpToPhase(
        target, 1e-3));
}

TEST(Synthesis, StructuredTargetUsesFewerBlocks)
{
    // A CCX-like target needs far fewer than six blocks.
    Matrix target = Gate::ccx(0, 1, 2).matrix();
    SynthesisOptions opts;
    opts.tol = 1e-9;
    SynthesisResult r = synthesizeBlock(target, {0, 1, 2}, opts);
    ASSERT_TRUE(r.success);
    // Yu et al.: five two-qubit gates are necessary and sufficient
    // for the Toffoli gate.
    EXPECT_LE(r.blockCount, 5);
    Circuit c(3);
    for (const Gate &g : r.gates)
        c.add(g);
    EXPECT_TRUE(qsim::buildUnitary(c).approxEqualUpToPhase(
        target, 1e-3));
}

TEST(Synthesis, TwoQubitBlockTrivial)
{
    Rng rng(217);
    Matrix target = randomUnitary(4, rng);
    SynthesisResult r = synthesizeBlock(target, {5, 7});
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.blockCount, 1);
    EXPECT_EQ(r.gates[0].qubits[0], 5);
    EXPECT_EQ(r.gates[0].qubits[1], 7);
}

TEST(Synthesis, LocalTargetZeroBlocks)
{
    Rng rng(219);
    // Right factors first (tools/check_rng_draws.py).
    const Matrix c = randomSU2(rng), b = randomSU2(rng),
                 a = randomSU2(rng);
    Matrix target = kron(kron(a, b), c);
    SynthesisResult r = synthesizeBlock(target, {0, 1, 2});
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.blockCount, 0);
}

TEST(Synthesis, Su4ToCnotsGenericUsesThree)
{
    Rng rng(223);
    for (int rep = 0; rep < 5; ++rep) {
        Matrix u = randomUnitary(4, rng);
        auto gates = su4ToCnots(0, 1, u);
        Circuit c(2);
        int cx = 0;
        for (const Gate &g : gates) {
            c.add(g);
            if (g.op == Op::CX)
                ++cx;
        }
        EXPECT_LE(cx, 3) << "rep " << rep;
        EXPECT_TRUE(qsim::buildUnitary(c).approxEqualUpToPhase(
            u, 1e-4))
            << "rep " << rep;
    }
}

TEST(Synthesis, Su4ToCnotsSpecialClasses)
{
    auto cxCount = [](const Matrix &u) {
        int cx = 0;
        for (const Gate &g : su4ToCnots(0, 1, u))
            if (g.op == Op::CX)
                ++cx;
        return cx;
    };
    EXPECT_EQ(cxCount(Gate::cz(0, 1).matrix()), 1);
    EXPECT_EQ(cxCount(Gate::iswap(0, 1).matrix()), 2);
    EXPECT_LE(cxCount(Gate::swap(0, 1).matrix()), 3);
    Rng rng(227);
    // Right factor first (tools/check_rng_draws.py).
    const Matrix b = randomSU2(rng), a = randomSU2(rng);
    EXPECT_EQ(cxCount(kron(a, b)), 0);
}

TEST(Templates, CcxVariantsCorrect)
{
    auto &lib = TemplateLibrary::instance();
    const auto &vs = lib.variants(Op::CCX);
    ASSERT_FALSE(vs.empty());
    const Matrix target = Gate::ccx(0, 1, 2).matrix();
    for (const auto &e : vs) {
        Circuit c(3);
        for (const Gate &g : e.gates)
            c.add(g);
        EXPECT_TRUE(qsim::buildUnitary(c).approxEqualUpToPhase(
            target, 1e-3));
        EXPECT_LE(e.canCount, 5);
    }
}

TEST(Templates, CcxBeatsCnotTemplateCount)
{
    // SU(4) templates must use fewer 2Q blocks than the 6-CX circuit.
    auto &lib = TemplateLibrary::instance();
    EXPECT_LE(lib.minBlocks(Op::CCX), 5);
}

TEST(Templates, EccVariantsOfferDifferentBoundaryPairs)
{
    auto &lib = TemplateLibrary::instance();
    const auto &vs = lib.variants(Op::CCX);
    // Control permutability + self-inverse must yield more than one
    // distinct (first, last) pair signature.
    std::set<std::pair<std::pair<int, int>, std::pair<int, int>>> sig;
    for (const auto &e : vs)
        sig.insert({e.firstPair, e.lastPair});
    EXPECT_GT(sig.size(), 1u);
}

TEST(Templates, PickPrefersRequestedPair)
{
    auto &lib = TemplateLibrary::instance();
    const auto &vs = lib.variants(Op::CCX);
    std::set<std::pair<int, int>> firsts;
    for (const auto &e : vs)
        firsts.insert(e.firstPair);
    for (const auto &f : firsts) {
        const auto &e = lib.pick(Op::CCX, f);
        EXPECT_EQ(e.firstPair, f);
    }
}

TEST(Templates, OtherIrsSynthesize)
{
    auto &lib = TemplateLibrary::instance();
    for (Op op : {Op::CCZ, Op::CSWAP, Op::PERES}) {
        const auto &vs = lib.variants(op);
        ASSERT_FALSE(vs.empty()) << opName(op);
        Gate ir;
        switch (op) {
          case Op::CCZ: ir = Gate::ccz(0, 1, 2); break;
          case Op::CSWAP: ir = Gate::cswap(0, 1, 2); break;
          default: ir = Gate::peres(0, 1, 2); break;
        }
        const Matrix target = ir.matrix();
        Circuit c(3);
        for (const Gate &g : vs.front().gates)
            c.add(g);
        EXPECT_TRUE(qsim::buildUnitary(c).approxEqualUpToPhase(
            target, 1e-3))
            << opName(op);
    }
}
