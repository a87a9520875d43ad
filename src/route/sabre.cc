#include "route/sabre.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "circuit/dag.hh"

namespace reqisc::route
{

using circuit::Circuit;
using circuit::Dag;
using circuit::Gate;
using circuit::Op;

namespace
{

/**
 * How far back an absorbed SWAP may reach: the mirrored gate is at
 * most this many gates before the last emitted one. 257 is the reach
 * of the bounded backward scan the per-wire index replaced; a wider
 * window absorbs more SWAPs on long circuits and changes artifacts.
 */
constexpr int kAbsorbReach = 257;

/**
 * Mutable routing state for one pass. Work is proportional to the
 * decisions taken: the ready set, the lookahead scratch and the
 * per-wire absorb index are kept current as gates are emitted, so no
 * step rescans the circuit.
 */
struct Router
{
    const Circuit &logical;
    const Topology &topo;
    const RouteOptions &opts;
    Dag dag;

    std::vector<int> phys;      //!< logical q -> physical wire
    std::vector<int> host;      //!< physical wire -> logical q or -1
    std::vector<int> pending;   //!< unfinished predecessor count
    std::vector<int> ready;     //!< unemitted, pending == 0, ascending
    std::vector<double> decay;
    std::vector<int> last2q;    //!< per wire: last emitted 2Q gate or -1

    // extendedSet scratch: a gate is seen iff seen[gate] == stamp.
    std::vector<std::uint64_t> seen;
    std::uint64_t stamp = 0;
    std::vector<int> queue;

    Circuit out;
    int swapsInserted = 0;
    int swapsAbsorbed = 0;

    Router(const Circuit &l, const Topology &t, const RouteOptions &o,
           const std::vector<int> &init)
        : logical(l), topo(t), opts(o), dag(circuit::buildDag(l)),
          phys(init), host(t.numQubits(), -1), pending(l.size(), 0),
          decay(t.numQubits(), 0.0), last2q(t.numQubits(), -1),
          seen(l.size(), 0), out(t.numQubits())
    {
        for (int q = 0; q < l.numQubits(); ++q)
            host[phys[q]] = q;
        for (size_t i = 0; i < l.size(); ++i) {
            pending[i] = static_cast<int>(dag.nodes[i].preds.size());
            if (pending[i] == 0)
                ready.push_back(static_cast<int>(i));
        }
    }

    bool
    executable(int i) const
    {
        const Gate &g = logical[i];
        if (g.numQubits() == 1)
            return true;
        return topo.connected(phys[g.qubits[0]], phys[g.qubits[1]]);
    }

    void
    emitGate(int i)
    {
        Gate g = logical[i];
        for (int &q : g.qubits)
            q = phys[q];
        if (g.numQubits() > 1)
            for (int q : g.qubits)
                last2q[q] = static_cast<int>(out.size());
        out.add(std::move(g));
        ready.erase(std::lower_bound(ready.begin(), ready.end(), i));
        for (int s : dag.nodes[i].succs)
            if (--pending[s] == 0)
                ready.insert(
                    std::upper_bound(ready.begin(), ready.end(), s), s);
    }

    void
    applySwap(int p1, int p2)
    {
        const int l1 = host[p1], l2 = host[p2];
        if (l1 >= 0)
            phys[l1] = p2;
        if (l2 >= 0)
            phys[l2] = p1;
        std::swap(host[p1], host[p2]);
        decay[p1] += opts.decayIncrement;
        decay[p2] += opts.decayIncrement;
    }

    void
    insertSwap(int p1, int p2)
    {
        last2q[p1] = last2q[p2] = static_cast<int>(out.size());
        out.add(Gate::swap(p1, p2));
        applySwap(p1, p2);
        ++swapsInserted;
    }

    /**
     * The lookahead set: about opts.extendedSize 2Q gates beyond the
     * front, in breadth-first order. Every gate reachable from the
     * front is still unemitted, so only the stamp filters.
     */
    void
    extendedSet(const std::vector<int> &front, std::vector<int> &ext)
    {
        ext.clear();
        ++stamp;
        queue.assign(front.begin(), front.end());
        for (int f : front)
            seen[f] = stamp;
        for (size_t head = 0;
             head < queue.size() &&
             static_cast<int>(ext.size()) < opts.extendedSize;
             ++head) {
            for (int s : dag.nodes[queue[head]].succs) {
                if (seen[s] == stamp)
                    continue;
                seen[s] = stamp;
                queue.push_back(s);
                if (logical[s].numQubits() == 2)
                    ext.push_back(s);
            }
        }
    }

    /** Heuristic cost of the current layout `phys`. */
    double
    mappingCost(const std::vector<int> &front2q,
                const std::vector<int> &ext) const
    {
        double cost = 0.0;
        for (int i : front2q) {
            const Gate &g = logical[i];
            cost += topo.distance(phys[g.qubits[0]], phys[g.qubits[1]]);
        }
        cost /= std::max<size_t>(1, front2q.size());
        if (!ext.empty()) {
            double e = 0.0;
            for (int i : ext) {
                const Gate &g = logical[i];
                e += topo.distance(phys[g.qubits[0]], phys[g.qubits[1]]);
            }
            cost += opts.extendedWeight * e / ext.size();
        }
        return cost;
    }

    /**
     * True iff a SWAP on wires (p1, p2) can be absorbed by mirroring
     * an already-emitted 2Q gate: the last 2Q gate on p1 and on p2
     * must be one and the same, on exactly (p1, p2). Trailing 1Q
     * gates on p1/p2 are allowed: SWAP(p,q) u(p) = u(q) SWAP(p,q), so
     * they commute through the inserted SWAP with relabelled wires.
     * @p idx receives the index of the gate to mirror.
     */
    bool
    absorbable(int p1, int p2, int &idx) const
    {
        const int i = std::max(last2q[p1], last2q[p2]);
        if (i < 0 || static_cast<int>(out.size()) - 1 - i > kAbsorbReach)
            return false;
        idx = i;
        const Gate &g = out[static_cast<size_t>(i)];
        if (!g.is2Q())
            return false;
        if (g.op != Op::U4 && g.op != Op::CAN && g.op != Op::CX &&
            g.op != Op::CZ && g.op != Op::ISWAP && g.op != Op::SQISW &&
            g.op != Op::B)
            return false;
        return (g.qubits[0] == p1 && g.qubits[1] == p2) ||
               (g.qubits[0] == p2 && g.qubits[1] == p1);
    }

    /** Mirror out[idx] and relabel the 1Q tail on wires (p1, p2). */
    void
    absorbSwap(int idx, int p1, int p2)
    {
        Gate &g = out[static_cast<size_t>(idx)];
        const qmath::Matrix swap_m = Gate::swap(0, 1).matrix();
        g = Gate::u4(g.qubits[0], g.qubits[1],
                     swap_m * g.matrix());
        for (size_t j = idx + 1; j < out.size(); ++j)
            for (int &q : out[j].qubits) {
                if (q == p1)
                    q = p2;
                else if (q == p2)
                    q = p1;
            }
        last2q[p1] = last2q[p2] = idx;
    }

    void
    run()
    {
        int stuck_swaps = 0;
        std::vector<int> round, front2q, ext;
        std::vector<std::pair<int, int>> cands;
        while (true) {
            // Execute everything executable. Each round walks a
            // snapshot of the ready set in index order; gates it
            // readies wait for the next round.
            bool progressed = true;
            while (progressed) {
                progressed = false;
                round = ready;
                for (int i : round) {
                    if (executable(i)) {
                        emitGate(i);
                        progressed = true;
                        stuck_swaps = 0;
                        std::fill(decay.begin(), decay.end(), 0.0);
                    }
                }
            }
            if (ready.empty())
                break;
            front2q.clear();
            for (int i : ready)
                if (logical[i].numQubits() == 2)
                    front2q.push_back(i);
            assert(!front2q.empty());
            extendedSet(front2q, ext);

            // Candidate SWAPs: edges touching a front-layer qubit.
            cands.clear();
            for (int i : front2q)
                for (int q : logical[i].qubits)
                    for (int nb : topo.neighbors(phys[q]))
                        cands.push_back(std::minmax(phys[q], nb));
            std::sort(cands.begin(), cands.end());
            cands.erase(std::unique(cands.begin(), cands.end()),
                        cands.end());

            const double h0 = mappingCost(front2q, ext);
            double best_h = 1e18;
            std::pair<int, int> best{-1, -1};
            double best_abs_h = 1e18;
            std::pair<int, int> best_abs{-1, -1};
            int best_abs_idx = -1;
            for (const auto &[p1, p2] : cands) {
                // Score the SWAP in place and undo it; distances are
                // integers, so the cost sums are exact either way.
                const int l1 = host[p1], l2 = host[p2];
                if (l1 >= 0)
                    phys[l1] = p2;
                if (l2 >= 0)
                    phys[l2] = p1;
                const double cost = mappingCost(front2q, ext);
                if (l1 >= 0)
                    phys[l1] = p1;
                if (l2 >= 0)
                    phys[l2] = p2;
                const double h =
                    (1.0 + std::max(decay[p1], decay[p2])) * cost;
                if (h < best_h) {
                    best_h = h;
                    best = {p1, p2};
                }
                int idx = -1;
                if (opts.mirroring && cost < h0 &&
                    absorbable(p1, p2, idx) && h < best_abs_h) {
                    best_abs_h = h;
                    best_abs = {p1, p2};
                    best_abs_idx = idx;
                }
            }
            ++stuck_swaps;
            if (stuck_swaps > 8 * topo.numQubits() + 64) {
                // Escape hatch: walk the first front gate together
                // along a shortest path (the topology is connected,
                // so a closer neighbour always exists).
                const Gate &g = logical[front2q.front()];
                int p1 = phys[g.qubits[0]];
                const int p2 = phys[g.qubits[1]];
                while (topo.distance(p1, p2) > 1) {
                    for (int nb : topo.neighbors(p1)) {
                        if (topo.distance(nb, p2) <
                            topo.distance(p1, p2)) {
                            insertSwap(p1, nb);
                            p1 = nb;
                            break;
                        }
                    }
                }
                continue;
            }
            if (best_abs.first >= 0) {
                // Absorb: mirror the last-layer gate in place.
                absorbSwap(best_abs_idx, best_abs.first,
                           best_abs.second);
                applySwap(best_abs.first, best_abs.second);
                ++swapsAbsorbed;
                continue;
            }
            assert(best.first >= 0);
            insertSwap(best.first, best.second);
        }
    }
};

} // namespace

RouteResult
sabreRoute(const Circuit &logical, const Topology &topo,
           const RouteOptions &opts)
{
    // Not an assert: Release builds would route a wider circuit off
    // the end of the layout arrays.
    if (logical.numQubits() > topo.numQubits())
        throw std::invalid_argument(
            "sabreRoute: circuit has " +
            std::to_string(logical.numQubits()) +
            " qubits but the topology has " +
            std::to_string(topo.numQubits()));
    if (!topo.isConnected())
        throw std::invalid_argument("sabreRoute: topology '" +
                                    topo.name() +
                                    "' is not connected");
#ifndef NDEBUG
    for (const Gate &g : logical)
        assert(g.numQubits() <= 2 && "route expects a 2Q-basis input");
#endif
    std::vector<int> init(logical.numQubits());
    for (int q = 0; q < logical.numQubits(); ++q)
        init[q] = q;

    if (opts.reverseTraversalInit && logical.count2Q() > 0) {
        // SABRE-style: route the reversed circuit once and adopt its
        // final layout as the forward pass's initial layout.
        Circuit rev(logical.numQubits());
        for (auto it = logical.gates().rbegin();
             it != logical.gates().rend(); ++it)
            rev.add(*it);
        RouteOptions ropts = opts;
        ropts.reverseTraversalInit = false;
        ropts.mirroring = false;
        Router pre(rev, topo, ropts, init);
        pre.run();
        for (int q = 0; q < logical.numQubits(); ++q)
            init[q] = pre.phys[q];
    }

    Router router(logical, topo, opts, init);
    router.run();

    RouteResult res;
    res.circuit = std::move(router.out);
    res.initialLayout = init;
    res.finalLayout.assign(logical.numQubits(), 0);
    for (int q = 0; q < logical.numQubits(); ++q)
        res.finalLayout[q] = router.phys[q];
    res.swapsInserted = router.swapsInserted;
    res.swapsAbsorbed = router.swapsAbsorbed;
    return res;
}

} // namespace reqisc::route
