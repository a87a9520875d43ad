/**
 * @file
 * Tests for topologies, SABRE and mirroring-SABRE.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "backend/backend.hh"
#include "circuit/lower.hh"
#include "qmath/random.hh"
#include "qsim/statevector.hh"
#include "route/sabre.hh"
#include "route/topology.hh"
#include "test_util.hh"
#include "weyl/weyl.hh"

#ifndef REQISC_SOURCE_DIR
#define REQISC_SOURCE_DIR "."
#endif

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

/**
 * Seeded {CX, Can, SWAP, U3} circuit on n qubits. With `stale` set,
 * qubits 0 and 1 meet once, then `gates` gates run on the other
 * qubits, then 40 more on all of them: the (0, 1) pair's last 2Q gate
 * lies far behind when it is needed again.
 */
Circuit
randomRoutingCircuit(int n, int gates, std::uint64_t seed,
                     bool stale = false)
{
    Rng rng(seed);
    Circuit c(n);
    auto add = [&](int lo) {
        const int span = n - lo;
        const int a = lo + static_cast<int>(rng() % span);
        int b = lo + static_cast<int>(rng() % (span - 1));
        if (b >= a)
            ++b;
        switch (rng() % 4) {
        case 0:
            c.add(Gate::cx(a, b));
            break;
        case 1:
            c.add(Gate::can(a, b, weyl::randomWeylCoord(rng)));
            break;
        case 2:
            c.add(Gate::swap(a, b));
            break;
        default: {
            // One draw per statement: argument order is unspecified.
            const double theta = 0.1 * (rng() % 31);
            const double phi = 0.1 * (rng() % 63);
            const double lambda = 0.1 * (rng() % 63);
            c.add(Gate::u3(a, theta, phi, lambda));
        }
        }
    };
    if (stale) {
        c.add(Gate::cx(0, 1));
        for (int i = 0; i < gates; ++i)
            add(2);
        for (int i = 0; i < 40; ++i)
            add(0);
    } else {
        for (int i = 0; i < gates; ++i)
            add(0);
    }
    return c;
}

/**
 * CX(0, 1), then `gap` gates on wires 2..11, then CX(0, 2): on an
 * identity-mapped chain(12) the SWAP that brings qubit 0 next to
 * qubit 2 can be absorbed into CX(0, 1), `gap` gates back.
 */
Circuit
windowCircuit(int gap)
{
    Circuit c(12);
    c.add(Gate::cx(0, 1));
    for (int i = 0; i < gap; ++i) {
        const int q = 2 + i % 9;
        c.add(Gate::cx(q, q + 1));
    }
    c.add(Gate::cx(0, 2));
    return c;
}

/** Every RouteResult field equal, the circuit bit for bit. */
::testing::AssertionResult
sameRoute(const RouteResult &a, const RouteResult &b)
{
    ::testing::AssertionResult gates =
        test::circuitsIdentical(a.circuit, b.circuit);
    if (!gates)
        return gates;
    if (a.initialLayout != b.initialLayout)
        return ::testing::AssertionFailure() << "initialLayout differs";
    if (a.finalLayout != b.finalLayout)
        return ::testing::AssertionFailure() << "finalLayout differs";
    if (a.swapsInserted != b.swapsInserted)
        return ::testing::AssertionFailure()
               << "swapsInserted " << a.swapsInserted << " vs "
               << b.swapsInserted;
    if (a.swapsAbsorbed != b.swapsAbsorbed)
        return ::testing::AssertionFailure()
               << "swapsAbsorbed " << a.swapsAbsorbed << " vs "
               << b.swapsAbsorbed;
    return ::testing::AssertionSuccess();
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

TEST(Sabre, DisconnectedTopologyThrows)
{
    // No route joins two components; the escape hatch used to spin
    // forever looking for a closer neighbour.
    Circuit c(4);
    c.add(Gate::cx(0, 2));
    const Topology t = Topology::custom(4, {{0, 1}, {2, 3}});
    EXPECT_THROW(sabreRoute(c, t), std::invalid_argument);
}

TEST(Sabre, AbsorbReachesBack257Gates)
{
    // The mirrored gate may lie at most 257 gates before the last
    // emitted one, the reach of the bounded scan the index replaced.
    RouteOptions opts;
    opts.mirroring = true;
    opts.reverseTraversalInit = false;
    const Topology t = Topology::chain(12);
    for (int gap : {1, 256, 257}) {
        const RouteResult r = sabreRoute(windowCircuit(gap), t, opts);
        EXPECT_EQ(r.swapsAbsorbed, 1) << gap;
        EXPECT_EQ(r.swapsInserted, 0) << gap;
    }
    for (int gap : {258, 400}) {
        const RouteResult r = sabreRoute(windowCircuit(gap), t, opts);
        EXPECT_EQ(r.swapsAbsorbed, 0) << gap;
        EXPECT_EQ(r.swapsInserted, 1) << gap;
    }
}

TEST(Sabre, MatchesTheLegacyOracle)
{
    // The incremental router takes every decision the rescanning one
    // took: same gates, payload bits, layouts and SWAP counts.
    std::vector<Topology> topos = {Topology::chain(12),
                                   Topology::grid(3, 4),
                                   Topology::gridFor(9)};
    std::vector<std::string> chips;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(REQISC_SOURCE_DIR) + "/examples/chips"))
        if (entry.path().extension() == ".json")
            chips.push_back(entry.path().string());
    std::sort(chips.begin(), chips.end());
    ASSERT_GE(chips.size(), 4u);
    for (const std::string &chip : chips)
        topos.push_back(backend::Backend::fromJsonFile(chip).topology());

    struct Case
    {
        Circuit circuit;
        std::string what;
    };
    const int sizes[] = {20, 75, 300, 1000, 20, 75, 300, 2000};
    std::uint64_t seed = 1;
    for (const Topology &t : topos) {
        const int width = std::min(12, t.numQubits());
        std::vector<Case> cases;
        for (int k = 0; k < 8; ++k, ++seed) {
            const int n = 3 + static_cast<int>(seed * 7 % (width - 2));
            const int gates = sizes[k];
            cases.push_back({randomRoutingCircuit(n, gates, seed),
                             "random n=" + std::to_string(n) +
                                 " gates=" + std::to_string(gates)});
        }
        if (width >= 5)
            for (int gap : {200, 300}) {
                cases.push_back(
                    {randomRoutingCircuit(width, gap, ++seed, true),
                     "stale n=" + std::to_string(width) +
                         " gap=" + std::to_string(gap)});
            }
        if (t.numQubits() == 12 && t.name() == "chain")
            for (int gap = 250; gap <= 262; ++gap)
                cases.push_back({windowCircuit(gap),
                                 "window gap=" + std::to_string(gap)});
        for (const Case &c : cases)
            for (bool mirroring : {false, true})
                for (bool rti : {false, true}) {
                    RouteOptions opts;
                    opts.mirroring = mirroring;
                    opts.reverseTraversalInit = rti;
                    EXPECT_TRUE(sameRoute(
                        sabreRoute(c.circuit, t, opts),
                        test::legacySabreRoute(c.circuit, t, opts)))
                        << t.name() << " " << c.what
                        << " mirroring=" << mirroring
                        << " reverseTraversalInit=" << rti;
                }
    }
}
