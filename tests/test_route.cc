/**
 * @file
 * Tests for topologies, SABRE and mirroring-SABRE.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/lower.hh"
#include "qmath/random.hh"
#include "qsim/statevector.hh"
#include "route/sabre.hh"
#include "route/topology.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using namespace reqisc::qmath;
using namespace reqisc::qsim;
using namespace reqisc::route;

namespace
{

/** Full state-level semantics check for a routed circuit. */
::testing::AssertionResult
routedMatrixOk(const Circuit &logical, const RouteResult &r,
               double tol = 1e-6)
{
    // Lift the logical circuit onto the physical wire count.
    Circuit lifted(r.circuit.numQubits());
    for (const Gate &g : logical)
        lifted.add(g);
    // Compare action on basis states: logical q starts on
    // initialLayout[q] and ends on finalLayout[q].
    const int n = r.circuit.numQubits();
    const size_t dim = static_cast<size_t>(1) << n;
    for (int trial = 0; trial < 8; ++trial) {
        Rng rng(100 + trial);
        std::uniform_int_distribution<size_t> d(0, dim - 1);
        const size_t basis = d(rng);
        // Logical run.
        StateVector lsv(n);
        lsv.amplitudes().assign(dim, qmath::Complex(0, 0));
        lsv.amplitudes()[basis] = 1.0;
        lsv.applyCircuit(lifted);
        // Physical run: permute input into the initial layout,
        // run, undo final layout.
        StateVector psv(n);
        psv.amplitudes().assign(dim, qmath::Complex(0, 0));
        psv.amplitudes()[basis] = 1.0;
        std::vector<int> init_full(n), final_full(n);
        for (int q = 0; q < n; ++q) {
            init_full[q] = q;
            final_full[q] = q;
        }
        for (int q = 0; q < logical.numQubits(); ++q) {
            init_full[q] = r.initialLayout[q];
            final_full[q] = r.finalLayout[q];
        }
        // Unused wires: fill with remaining targets consistently.
        std::vector<bool> used(n, false);
        for (int q = 0; q < logical.numQubits(); ++q)
            used[init_full[q]] = true;
        int cursor = 0;
        for (int q = logical.numQubits(); q < n; ++q) {
            while (used[cursor])
                ++cursor;
            init_full[q] = cursor;
            used[cursor] = true;
        }
        used.assign(n, false);
        for (int q = 0; q < logical.numQubits(); ++q)
            used[final_full[q]] = true;
        cursor = 0;
        for (int q = logical.numQubits(); q < n; ++q) {
            while (used[cursor])
                ++cursor;
            final_full[q] = cursor;
            used[cursor] = true;
        }
        psv.permuteQubits(init_full);
        psv.applyCircuit(r.circuit);
        psv.permuteQubits(qsim::inversePermutation(final_full));
        const double f = lsv.fidelity(psv);
        if (f < 1.0 - tol)
            return ::testing::AssertionFailure()
                   << "fidelity " << f << " on basis " << basis;
    }
    return ::testing::AssertionSuccess();
}

Circuit
randomSu4Circuit(int n, int gates, unsigned seed)
{
    Rng rng(seed);
    std::uniform_int_distribution<int> dq(0, n - 1);
    Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        int a = dq(rng), b = dq(rng);
        while (b == a)
            b = dq(rng);
        c.add(Gate::u4(a, b, randomUnitary(4, rng)));
    }
    return c;
}

} // namespace

TEST(Topology, ChainDistances)
{
    Topology t = Topology::chain(5);
    EXPECT_EQ(t.numQubits(), 5);
    EXPECT_TRUE(t.connected(0, 1));
    EXPECT_FALSE(t.connected(0, 2));
    EXPECT_EQ(t.distance(0, 4), 4);
    EXPECT_EQ(t.distance(2, 2), 0);
    EXPECT_EQ(t.edges().size(), 4u);
}

TEST(Topology, GridStructure)
{
    Topology t = Topology::grid(2, 3);
    EXPECT_EQ(t.numQubits(), 6);
    EXPECT_TRUE(t.connected(0, 3));
    EXPECT_TRUE(t.connected(0, 1));
    EXPECT_FALSE(t.connected(0, 4));
    EXPECT_EQ(t.distance(0, 5), 3);
    EXPECT_EQ(t.edges().size(), 7u);
}

TEST(Topology, GridFor)
{
    Topology t = Topology::gridFor(7);
    EXPECT_GE(t.numQubits(), 7);
}

TEST(Topology, AllToAll)
{
    Topology t = Topology::allToAll(4);
    EXPECT_EQ(t.edges().size(), 6u);
    EXPECT_EQ(t.distance(0, 3), 1);
}

TEST(Sabre, NoSwapsWhenAlreadyMapped)
{
    Circuit c(3);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cx(1, 2));
    RouteOptions opts;
    opts.reverseTraversalInit = false;
    RouteResult r = sabreRoute(c, Topology::chain(3), opts);
    EXPECT_EQ(r.swapsInserted, 0);
    EXPECT_EQ(r.circuit.count2Q(), 2);
    EXPECT_TRUE(routedMatrixOk(c, r));
}

TEST(Sabre, RoutesNonAdjacentGate)
{
    Circuit c(3);
    c.add(Gate::cx(0, 2));
    RouteOptions opts;
    opts.reverseTraversalInit = false;
    RouteResult r = sabreRoute(c, Topology::chain(3), opts);
    EXPECT_GE(r.swapsInserted, 1);
    // All emitted 2Q gates respect the topology.
    Topology t = Topology::chain(3);
    for (const Gate &g : r.circuit) {
        if (g.is2Q()) {
            EXPECT_TRUE(t.connected(g.qubits[0], g.qubits[1]));
        }
    }
    EXPECT_TRUE(routedMatrixOk(c, r));
}

class SabreRandom : public ::testing::TestWithParam<int> {};

TEST_P(SabreRandom, SemanticsPreservedOnChain)
{
    const int seed = GetParam();
    Circuit c = randomSu4Circuit(5, 12, 9000 + seed);
    Topology t = Topology::chain(5);
    for (bool mirroring : {false, true}) {
        RouteOptions opts;
        opts.mirroring = mirroring;
        RouteResult r = sabreRoute(c, t, opts);
        for (const Gate &g : r.circuit) {
            if (g.is2Q()) {
                EXPECT_TRUE(t.connected(g.qubits[0], g.qubits[1]));
            }
        }
        EXPECT_TRUE(routedMatrixOk(c, r))
            << "mirroring=" << mirroring << " seed=" << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SabreRandom, ::testing::Range(0, 6));

TEST(Sabre, SemanticsPreservedOnGrid)
{
    Circuit c = randomSu4Circuit(6, 14, 4242);
    Topology t = Topology::grid(2, 3);
    for (bool mirroring : {false, true}) {
        RouteOptions opts;
        opts.mirroring = mirroring;
        RouteResult r = sabreRoute(c, t, opts);
        EXPECT_TRUE(routedMatrixOk(c, r)) << mirroring;
    }
}

TEST(Sabre, MirroringNeverWorse)
{
    // Mirroring-SABRE's absorbed SWAPs cost zero #2Q; the total 2Q
    // count must never exceed plain SABRE's on the same input.
    for (int seed = 0; seed < 5; ++seed) {
        Circuit c = randomSu4Circuit(6, 20, 7000 + seed);
        Topology t = Topology::chain(6);
        RouteOptions plain;
        plain.mirroring = false;
        RouteOptions mirror;
        mirror.mirroring = true;
        RouteResult rp = sabreRoute(c, t, plain);
        RouteResult rm = sabreRoute(c, t, mirror);
        EXPECT_LE(rm.circuit.count2Q(), rp.circuit.count2Q())
            << "seed " << seed;
    }
}

TEST(Sabre, MirroringAbsorbsSwaps)
{
    // On a chain with distant gates, absorption opportunities exist.
    int total_absorbed = 0;
    for (int seed = 0; seed < 5; ++seed) {
        Circuit c = randomSu4Circuit(6, 25, 8100 + seed);
        RouteOptions opts;
        opts.mirroring = true;
        RouteResult r = sabreRoute(c, Topology::chain(6), opts);
        total_absorbed += r.swapsAbsorbed;
    }
    EXPECT_GT(total_absorbed, 0);
}

TEST(Sabre, WiderThanDeviceThrowsInEveryBuild)
{
    // A checked error, not an assert that Release compiles out (the
    // router would index its layout arrays past the chip's width).
    Circuit c(4);
    c.add(Gate::cx(0, 3));
    EXPECT_THROW(sabreRoute(c, Topology::chain(3)),
                 std::invalid_argument);
}

TEST(Sabre, FewerQubitsThanDevice)
{
    Circuit c(3);
    c.add(Gate::cx(0, 2));
    c.add(Gate::cx(1, 2));
    RouteResult r = sabreRoute(c, Topology::grid(2, 3));
    EXPECT_EQ(r.circuit.numQubits(), 6);
    EXPECT_TRUE(routedMatrixOk(c, r));
}
