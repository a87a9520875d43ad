/**
 * @file
 * SABRE qubit routing and the SU(4)-aware mirroring-SABRE variant
 * (Section 5.3.2).
 *
 * Mirroring-SABRE adds a "last mapped layer" L of already-emitted 2Q
 * gates with no later gate on their wires; a SWAP whose physical pair
 * matches a gate in L is absorbed into that gate (replacing it by its
 * mirror), contributing zero #2Q overhead. Absorbable candidates that
 * also lower the heuristic cost below the no-swap baseline H0 are
 * preferred; otherwise the standard SABRE heuristic decides.
 */

#ifndef REQISC_ROUTE_SABRE_HH
#define REQISC_ROUTE_SABRE_HH

#include <vector>

#include "circuit/circuit.hh"
#include "route/topology.hh"

namespace reqisc::route
{

/** Routing configuration. */
struct RouteOptions
{
    bool mirroring = false;      //!< enable mirroring-SABRE
    double extendedWeight = 0.5; //!< W, lookahead weight
    int extendedSize = 20;       //!< |E|, lookahead window
    double decayIncrement = 0.001; //!< reset on every emitted gate
    bool reverseTraversalInit = true;  //!< SABRE-style initial layout
    /**
     * Read by nothing: routing draws no random numbers. perfbench's
     * routed equivalence check still sets it; delete both together.
     */
    unsigned seed = 7;
};

/** Routed circuit with mapping bookkeeping. */
struct RouteResult
{
    circuit::Circuit circuit;        //!< gates on physical wires
    std::vector<int> initialLayout;  //!< logical q starts on wire
    std::vector<int> finalLayout;    //!< logical q ends on wire
    int swapsInserted = 0;           //!< explicit SWAPs added
    int swapsAbsorbed = 0;           //!< SWAPs mirrored into L gates
};

/**
 * Route a logical circuit onto the topology. Every 2Q gate of the
 * output acts on connected physical wires. Inserted SWAPs appear as
 * Op::SWAP gates (callers lower or fuse them per ISA).
 *
 * @throws std::invalid_argument when the circuit is wider than the
 *         topology, or when the topology is disconnected (a 2Q gate
 *         spanning two components could never be routed)
 */
RouteResult sabreRoute(const circuit::Circuit &logical,
                       const Topology &topo,
                       const RouteOptions &opts = {});

} // namespace reqisc::route

#endif // REQISC_ROUTE_SABRE_HH
