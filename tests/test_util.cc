#include "test_util.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>

#include "circuit/dag.hh"
#include "qmath/kernels.hh"
#include "qmath/svd.hh"

namespace reqisc::test
{

namespace
{

using qmath::Complex;
using qmath::Matrix;
using synth::InstantiateOptions;
using synth::InstantiateResult;
using synth::liftGateInto;
using synth::Slot;
namespace kernels = qmath::kernels;

// ---- The pre-certificate instantiate, kept verbatim as the oracle ------

/**
 * Partial trace of E over all qubits except `qubits`:
 * F[p, q] = sum_rest E[(q,rest), (p,rest)] arranged so the optimal
 * free gate is the polar factor of F^dagger. Destination-passing:
 * `f`'s storage is reused across sweeps.
 */
void
environmentInto(Matrix &f, const Matrix &e,
                const std::vector<int> &qubits, int num_qubits)
{
    const int k = static_cast<int>(qubits.size());
    const int dim = 1 << num_qubits;
    const int sub = 1 << k;
    assert(k <= 4);
    std::array<int, 4> shift{};
    for (int i = 0; i < k; ++i)
        shift[i] = num_qubits - 1 - qubits[i];
    int mask = 0;
    for (int i = 0; i < k; ++i)
        mask |= (1 << shift[i]);
    std::array<int, 16> offs{};
    for (int s = 0; s < sub; ++s) {
        int o = 0;
        for (int i = 0; i < k; ++i)
            if (s & (1 << (k - 1 - i)))
                o |= (1 << shift[i]);
        offs[s] = o;
    }
    f.setZero(sub, sub);
    for (int base = 0; base < dim; ++base) {
        if (base & mask)
            continue;
        for (int p = 0; p < sub; ++p)
            for (int q = 0; q < sub; ++q)
                f(q, p) += e(base | offs[q], base | offs[p]);
    }
}

// ---- The pre-incremental router, kept verbatim as the oracle -----------

using circuit::Circuit;
using circuit::Dag;
using circuit::Gate;
using circuit::Op;
using route::RouteOptions;
using route::RouteResult;
using route::Topology;

/** Mutable routing state for one pass. */
struct Router
{
    const Circuit &logical;
    const Topology &topo;
    const RouteOptions &opts;
    Dag dag;

    std::vector<int> phys;      //!< logical q -> physical wire
    std::vector<int> host;      //!< physical wire -> logical q or -1
    std::vector<int> pending;   //!< unfinished predecessor count
    std::vector<bool> done;
    std::vector<double> decay;
    std::vector<int> lastTouch; //!< per wire: last emitted gate index

    Circuit out;
    int swapsInserted = 0;
    int swapsAbsorbed = 0;

    Router(const Circuit &l, const Topology &t, const RouteOptions &o,
           const std::vector<int> &init)
        : logical(l), topo(t), opts(o), dag(circuit::buildDag(l)),
          phys(init), host(t.numQubits(), -1),
          pending(l.size(), 0), done(l.size(), false),
          decay(t.numQubits(), 0.0), lastTouch(t.numQubits(), -1),
          out(t.numQubits())
    {
        for (int q = 0; q < l.numQubits(); ++q)
            host[phys[q]] = q;
        for (size_t i = 0; i < l.size(); ++i)
            pending[i] = static_cast<int>(dag.nodes[i].preds.size());
    }

    bool
    executable(size_t i) const
    {
        const Gate &g = logical[i];
        if (g.numQubits() == 1)
            return true;
        return topo.connected(phys[g.qubits[0]], phys[g.qubits[1]]);
    }

    void
    emitGate(size_t i)
    {
        Gate g = logical[i];
        for (int &q : g.qubits)
            q = phys[q];
        out.add(g);
        const int idx = static_cast<int>(out.size()) - 1;
        for (int q : out[idx].qubits)
            lastTouch[q] = idx;
        done[i] = true;
        for (int s : dag.nodes[i].succs)
            --pending[s];
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

    /** Ready gates (all DAG predecessors emitted). */
    std::vector<size_t>
    readyGates() const
    {
        std::vector<size_t> r;
        for (size_t i = 0; i < logical.size(); ++i)
            if (!done[i] && pending[i] == 0)
                r.push_back(i);
        return r;
    }

    /** The next `count` 2Q gates beyond the front (lookahead set). */
    std::vector<size_t>
    extendedSet(const std::vector<size_t> &front) const
    {
        std::vector<size_t> ext;
        std::deque<size_t> queue(front.begin(), front.end());
        std::vector<bool> seen(logical.size(), false);
        for (size_t f : front)
            seen[f] = true;
        while (!queue.empty() &&
               static_cast<int>(ext.size()) < opts.extendedSize) {
            size_t i = queue.front();
            queue.pop_front();
            for (int s : dag.nodes[i].succs) {
                if (seen[s] || done[s])
                    continue;
                seen[s] = true;
                queue.push_back(s);
                if (logical[s].numQubits() == 2)
                    ext.push_back(s);
            }
        }
        return ext;
    }

    double
    mappingCost(const std::vector<size_t> &front2q,
                const std::vector<size_t> &ext,
                const std::vector<int> &mapping) const
    {
        double cost = 0.0;
        for (size_t i : front2q) {
            const Gate &g = logical[i];
            cost += topo.distance(mapping[g.qubits[0]],
                                  mapping[g.qubits[1]]);
        }
        cost /= std::max<size_t>(1, front2q.size());
        if (!ext.empty()) {
            double e = 0.0;
            for (size_t i : ext) {
                const Gate &g = logical[i];
                e += topo.distance(mapping[g.qubits[0]],
                                   mapping[g.qubits[1]]);
            }
            cost += opts.extendedWeight * e / ext.size();
        }
        return cost;
    }

    /**
     * True iff a SWAP on wires (p1, p2) can be absorbed by mirroring
     * an already-emitted 2Q gate. Trailing 1Q gates on p1/p2 are
     * allowed: SWAP(p,q) u(p) = u(q) SWAP(p,q), so they commute
     * through the inserted SWAP with relabelled wires. @p idx
     * receives the index of the gate to mirror.
     */
    bool
    absorbable(int p1, int p2, int &idx) const
    {
        // Walk back over trailing 1Q gates on p1 or p2; no other
        // gate may touch these wires after the mirror candidate.
        // Bounded scan keeps the candidate loop linear overall.
        int i = static_cast<int>(out.size()) - 1;
        const int floor_idx = std::max(0, i - 256);
        for (; i >= floor_idx; --i) {
            const Gate &g = out[static_cast<size_t>(i)];
            bool touches = false;
            for (int q : g.qubits)
                if (q == p1 || q == p2)
                    touches = true;
            if (!touches)
                continue;
            if (g.numQubits() == 1)
                continue;   // commutes through with a relabel
            break;
        }
        if (i < 0)
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
        // lastTouch entries for p1/p2 swap with the relabel.
        std::swap(lastTouch[p1], lastTouch[p2]);
        if (lastTouch[p1] < idx)
            lastTouch[p1] = idx;
        if (lastTouch[p2] < idx)
            lastTouch[p2] = idx;
    }

    void
    run()
    {
        int stuck_swaps = 0;
        while (true) {
            // Execute everything executable.
            bool progressed = true;
            while (progressed) {
                progressed = false;
                for (size_t i : readyGates()) {
                    if (executable(i)) {
                        emitGate(i);
                        progressed = true;
                        stuck_swaps = 0;
                        std::fill(decay.begin(), decay.end(), 0.0);
                    }
                }
            }
            std::vector<size_t> ready = readyGates();
            if (ready.empty())
                break;
            std::vector<size_t> front2q;
            for (size_t i : ready)
                if (logical[i].numQubits() == 2)
                    front2q.push_back(i);
            assert(!front2q.empty());
            std::vector<size_t> ext = extendedSet(front2q);

            // Candidate SWAPs: edges touching a front-layer qubit.
            std::vector<std::pair<int, int>> cands;
            for (size_t i : front2q)
                for (int q : logical[i].qubits)
                    for (int nb : topo.neighbors(phys[q]))
                        cands.push_back(std::minmax(phys[q], nb));
            std::sort(cands.begin(), cands.end());
            cands.erase(std::unique(cands.begin(), cands.end()),
                        cands.end());

            const double h0 = mappingCost(front2q, ext, phys);
            double best_h = 1e18;
            std::pair<int, int> best{-1, -1};
            double best_abs_h = 1e18;
            std::pair<int, int> best_abs{-1, -1};
            int best_abs_idx = -1;
            for (const auto &[p1, p2] : cands) {
                std::vector<int> trial = phys;
                const int l1 = host[p1], l2 = host[p2];
                if (l1 >= 0)
                    trial[l1] = p2;
                if (l2 >= 0)
                    trial[l2] = p1;
                const double cost = mappingCost(front2q, ext, trial);
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
                // along a shortest path.
                const Gate &g = logical[front2q.front()];
                int p1 = phys[g.qubits[0]];
                const int p2 = phys[g.qubits[1]];
                while (topo.distance(p1, p2) > 1) {
                    for (int nb : topo.neighbors(p1)) {
                        if (topo.distance(nb, p2) <
                            topo.distance(p1, p2)) {
                            out.add(Gate::swap(p1, nb));
                            for (int q : {p1, nb})
                                lastTouch[q] =
                                    static_cast<int>(out.size()) - 1;
                            applySwap(p1, nb);
                            ++swapsInserted;
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
            out.add(Gate::swap(best.first, best.second));
            for (int q : {best.first, best.second})
                lastTouch[q] = static_cast<int>(out.size()) - 1;
            applySwap(best.first, best.second);
            ++swapsInserted;
        }
    }
};

} // namespace

::testing::AssertionResult
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return ::testing::AssertionFailure()
               << "shape " << a.rows() << "x" << a.cols() << " vs "
               << b.rows() << "x" << b.cols();
    if (std::memcmp(a.data(), b.data(),
                    a.size() * sizeof(Complex)) != 0) {
        for (int i = 0; i < a.rows(); ++i)
            for (int j = 0; j < a.cols(); ++j)
                if (std::memcmp(&a(i, j), &b(i, j),
                                sizeof(Complex)) != 0)
                    return ::testing::AssertionFailure()
                           << "first mismatch at (" << i << "," << j
                           << "): (" << a(i, j).real() << ","
                           << a(i, j).imag() << ") vs ("
                           << b(i, j).real() << "," << b(i, j).imag()
                           << ")";
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
circuitsIdentical(const circuit::Circuit &a, const circuit::Circuit &b)
{
    if (a.numQubits() != b.numQubits())
        return ::testing::AssertionFailure()
               << "qubit count " << a.numQubits() << " vs "
               << b.numQubits();
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "gate count " << a.size() << " vs " << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        const circuit::Gate &g = a[i], &h = b[i];
        if (g.op != h.op || g.qubits != h.qubits ||
            g.params != h.params)
            return ::testing::AssertionFailure()
                   << "gate " << i << ": " << g.toString() << " vs "
                   << h.toString();
        const bool gp = g.payload != nullptr,
                   hp = h.payload != nullptr;
        if (gp != hp)
            return ::testing::AssertionFailure()
                   << "gate " << i << ": payload presence differs";
        if (gp) {
            const Matrix &m = *g.payload, &n = *h.payload;
            if (m.rows() != n.rows() || m.cols() != n.cols())
                return ::testing::AssertionFailure()
                       << "gate " << i << ": payload shape differs";
            for (int r = 0; r < m.rows(); ++r)
                for (int c = 0; c < m.cols(); ++c)
                    if (m(r, c) != n(r, c))
                        return ::testing::AssertionFailure()
                               << "gate " << i << ": payload ("
                               << r << "," << c << ") differs";
        }
    }
    return ::testing::AssertionSuccess();
}

InstantiateResult
legacyInstantiate(const Matrix &target, int num_qubits,
                  const std::vector<Slot> &structure,
                  const InstantiateOptions &opts)
{
    const int dim = 1 << num_qubits;
    assert(target.rows() == dim && target.cols() == dim);
    const size_t m = structure.size();

    InstantiateResult best;
    qmath::Rng rng(opts.seed);

    const Matrix tdag = target.dagger();
    // Sweep scratch, hoisted so the inner loops run allocation-free:
    // every matrix here is recycled via the *Into kernels.
    std::vector<Matrix> lifted(m);
    std::vector<Matrix> after(m + 1);
    Matrix before, tmp, bt, e, f, udag;

    for (int restart = 0; restart < std::max(1, opts.restarts);
         ++restart) {
        std::vector<Slot> slots = structure;
        // Initialize free slots: identity on the first attempt,
        // random on subsequent restarts.
        if (restart > 0) {
            for (auto &s : slots)
                if (s.kind == Slot::Kind::Free)
                    s.value = qmath::randomUnitary(
                        1 << s.qubits.size(), rng);
        }

        double last = 2.0;
        int sweep = 0;
        double infid = 1.0;
        for (; sweep < opts.maxSweeps; ++sweep) {
            // Lift all slot matrices once per sweep.
            for (size_t i = 0; i < m; ++i)
                liftGateInto(lifted[i], slots[i].value,
                             slots[i].qubits, num_qubits);
            // Suffix products: after[i] = G_{m-1} ... G_{i+1}.
            after[m].setIdentity(dim);
            for (int i = static_cast<int>(m) - 1; i >= 0; --i)
                kernels::mulInto(after[i], after[i + 1], lifted[i]);
            // Walk forward keeping before = G_{i-1} ... G_0.
            before.setIdentity(dim);
            for (size_t i = 0; i < m; ++i) {
                if (slots[i].kind == Slot::Kind::Free) {
                    // E = before * tdag * after_{i+1}; optimal gate
                    // maximizes Re Tr(G_lift * E).
                    kernels::mulInto(bt, before, tdag);
                    kernels::mulInto(e, bt, after[i + 1]);
                    environmentInto(f, e, slots[i].qubits,
                                    num_qubits);
                    qmath::SvdResult sv = qmath::svd(f);
                    // G = V U^dagger gives Tr(G F) = sum of singular
                    // values (max over unitaries).
                    kernels::daggerInto(udag, sv.u);
                    kernels::mulInto(slots[i].value, sv.v, udag);
                    liftGateInto(lifted[i], slots[i].value,
                                 slots[i].qubits, num_qubits);
                }
                kernels::mulInto(tmp, lifted[i], before);
                std::swap(before, tmp);
            }
            // Same accumulation order as (tdag * before).trace(),
            // at n^2 instead of n^3 work.
            const Complex tr = kernels::mulTrace(tdag, before);
            infid = 1.0 - std::abs(tr) / dim;
            if (infid < opts.tol)
                break;
            // Stall detection: relative progress per sweep below
            // 1e-3 after a warm-up means this basin will not reach
            // the tolerance; restart instead of burning sweeps.
            if (sweep > 24 && last - infid < 1e-3 * infid)
                break;
            last = infid;
        }
        if (infid < best.infidelity) {
            best.infidelity = infid;
            best.sweeps = sweep;
            best.slots = slots;
            best.converged = infid < opts.tol;
        }
        if (best.converged)
            break;
    }
    return best;
}

RouteResult
legacySabreRoute(const Circuit &logical, const Topology &topo,
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

::testing::AssertionResult
matrixNear(const qmath::Matrix &a, const qmath::Matrix &b, double tol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return ::testing::AssertionFailure()
               << "shape mismatch: " << a.rows() << "x" << a.cols()
               << " vs " << b.rows() << "x" << b.cols();
    }
    if (a.approxEqual(b, tol))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "matrices differ (tol=" << tol << ")\nA=\n"
           << a.toString() << "B=\n" << b.toString()
           << "maxAbs(A-B)=" << (a - b).maxAbs();
}

::testing::AssertionResult
matrixNearUpToPhase(const qmath::Matrix &a, const qmath::Matrix &b,
                    double tol)
{
    if (a.approxEqualUpToPhase(b, tol))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "matrices differ up to phase (tol=" << tol << ")\nA=\n"
           << a.toString() << "B=\n" << b.toString();
}

} // namespace reqisc::test
