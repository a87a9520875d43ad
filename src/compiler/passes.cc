#include "compiler/passes.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "circuit/lower.hh"
#include "synth/instantiate.hh"
#include "synth/synthesis.hh"
#include "uarch/genashn.hh"
#include "weyl/su2.hh"
#include "weyl/weyl.hh"

namespace reqisc::compiler
{

using qmath::Complex;

Circuit
fuse1Q(const Circuit &c)
{
    Circuit out(c.numQubits());
    // Pending accumulated 1Q matrix per qubit.
    std::vector<Matrix> pending(c.numQubits());
    auto flush = [&](int q) {
        if (!pending[q].empty()) {
            if (!weyl::isIdentityUpToPhase(pending[q], 1e-12))
                out.add(circuit::u3FromMatrix(q, pending[q]));
            pending[q] = Matrix();
        }
    };
    for (const Gate &g : c) {
        if (g.numQubits() == 1) {
            int q = g.qubits[0];
            if (pending[q].empty())
                pending[q] = g.matrix();
            else
                pending[q] = g.matrix() * pending[q];
            continue;
        }
        for (int q : g.qubits)
            flush(q);
        out.add(g);
    }
    for (int q = 0; q < c.numQubits(); ++q)
        flush(q);
    return out;
}

Circuit
fuse2QBlocks(const Circuit &c)
{
    struct Block
    {
        int a, b;        // a < b
        Matrix u;        // accumulated 4x4 (a = most significant)
        bool open = true;
    };
    Circuit out(c.numQubits());
    std::vector<Block> blocks;
    // For each qubit: index into blocks of the open block owning it,
    // or -1. Plus pending (not yet blocked) 1Q matrices.
    std::vector<int> owner(c.numQubits(), -1);
    std::vector<Matrix> pending(c.numQubits());

    auto emitBlock = [&](int bi) {
        Block &blk = blocks[bi];
        if (!blk.open)
            return;
        blk.open = false;
        owner[blk.a] = -1;
        owner[blk.b] = -1;
        out.add(Gate::u4(blk.a, blk.b, blk.u));
    };
    auto flushPending = [&](int q) {
        if (!pending[q].empty()) {
            if (!weyl::isIdentityUpToPhase(pending[q], 1e-12))
                out.add(circuit::u3FromMatrix(q, pending[q]));
            pending[q] = Matrix();
        }
    };
    auto lift1Q = [&](const Matrix &m, bool on_a) {
        return on_a ? kron(m, Matrix::identity(2))
                    : kron(Matrix::identity(2), m);
    };

    for (const Gate &g : c) {
        if (g.numQubits() == 1) {
            const int q = g.qubits[0];
            if (owner[q] >= 0) {
                Block &blk = blocks[owner[q]];
                blk.u = lift1Q(g.matrix(), q == blk.a) * blk.u;
            } else {
                pending[q] = pending[q].empty()
                    ? g.matrix() : g.matrix() * pending[q];
            }
            continue;
        }
        if (g.numQubits() >= 3) {
            for (int q : g.qubits) {
                if (owner[q] >= 0)
                    emitBlock(owner[q]);
                flushPending(q);
            }
            out.add(g);
            continue;
        }
        // Two-qubit gate.
        const int a = std::min(g.qubits[0], g.qubits[1]);
        const int b = std::max(g.qubits[0], g.qubits[1]);
        // Gate matrix with `a` as the most significant qubit.
        Matrix gm = g.matrix();
        if (g.qubits[0] != a) {
            // Reorder via conjugation with SWAP.
            Matrix sw = Gate::swap(0, 1).matrix();
            gm = sw * gm * sw;
        }
        if (owner[a] >= 0 && owner[a] == owner[b]) {
            Block &blk = blocks[owner[a]];
            blk.u = gm * blk.u;
            continue;
        }
        if (owner[a] >= 0)
            emitBlock(owner[a]);
        if (owner[b] >= 0)
            emitBlock(owner[b]);
        Block blk;
        blk.a = a;
        blk.b = b;
        blk.u = gm;
        // Fold pending 1Q gates into the fresh block.
        if (!pending[a].empty()) {
            blk.u = blk.u * lift1Q(pending[a], true);
            pending[a] = Matrix();
        }
        if (!pending[b].empty()) {
            blk.u = blk.u * lift1Q(pending[b], false);
            pending[b] = Matrix();
        }
        owner[a] = static_cast<int>(blocks.size());
        owner[b] = owner[a];
        blocks.push_back(std::move(blk));
    }
    for (auto &blk : blocks)
        if (blk.open) {
            out.add(Gate::u4(blk.a, blk.b, blk.u));
            blk.open = false;
        }
    for (int q = 0; q < c.numQubits(); ++q)
        flushPending(q);
    return out;
}

std::vector<Partition3Q>
partition3Q(const Circuit &c)
{
    struct Work
    {
        std::vector<int> qubits;
        std::vector<Gate> gates;
        int count2q = 0;
        bool open = true;
    };
    std::vector<Work> works;
    std::vector<int> owner(c.numQubits(), -1);
    std::vector<int> order;   // emission order of closed works

    auto closeWork = [&](int wi) {
        Work &w = works[wi];
        if (!w.open)
            return;
        w.open = false;
        for (int q : w.qubits)
            if (owner[q] == wi)
                owner[q] = -1;
        order.push_back(wi);
    };

    for (const Gate &g : c) {
        // Find candidate open block: all owned qubits of g map to the
        // same block B, and |B.qubits U g.qubits| <= 3.
        int cand = -2;  // -2 unset, -1 none-owned, >=0 block index
        bool ok = true;
        for (int q : g.qubits) {
            if (owner[q] < 0)
                continue;
            if (cand == -2)
                cand = owner[q];
            else if (cand != owner[q])
                ok = false;
        }
        if (cand >= 0 && ok) {
            Work &w = works[cand];
            std::vector<int> merged = w.qubits;
            for (int q : g.qubits)
                if (std::find(merged.begin(), merged.end(), q) ==
                    merged.end())
                    merged.push_back(q);
            if (merged.size() <= 3) {
                w.qubits = merged;
                for (int q : g.qubits)
                    owner[q] = cand;
                w.gates.push_back(g);
                if (g.numQubits() >= 2)
                    ++w.count2q;
                continue;
            }
        }
        // Close conflicting blocks and open a new one.
        for (int q : g.qubits)
            if (owner[q] >= 0)
                closeWork(owner[q]);
        Work w;
        w.qubits = g.qubits;
        std::sort(w.qubits.begin(), w.qubits.end());
        w.gates.push_back(g);
        w.count2q = g.numQubits() >= 2 ? 1 : 0;
        const int wi = static_cast<int>(works.size());
        for (int q : g.qubits)
            owner[q] = wi;
        works.push_back(std::move(w));
    }
    for (size_t wi = 0; wi < works.size(); ++wi)
        if (works[wi].open)
            closeWork(static_cast<int>(wi));

    std::vector<Partition3Q> out;
    for (int wi : order) {
        Partition3Q p;
        p.qubits = works[wi].qubits;
        std::sort(p.qubits.begin(), p.qubits.end());
        p.gates = std::move(works[wi].gates);
        p.count2Q = works[wi].count2q;
        out.push_back(std::move(p));
    }
    return out;
}

Circuit
blocksToCircuit(const std::vector<Partition3Q> &blocks,
                int num_qubits)
{
    Circuit out(num_qubits);
    for (const auto &b : blocks)
        for (const Gate &g : b.gates)
            out.add(g);
    return out;
}

int
compactnessScore(const Circuit &c)
{
    int score = 0;
    const Gate *prev = nullptr;
    for (const Gate &g : c) {
        if (g.numQubits() < 2)
            continue;
        if (prev) {
            int shared = 0;
            for (int q : g.qubits)
                for (int p : prev->qubits)
                    if (q == p)
                        ++shared;
            score += std::max(0, 2 - shared);
        }
        prev = &g;
    }
    return score;
}

Circuit
dagCompact(const Circuit &input, double tol)
{
    Circuit c = input;
    int score = compactnessScore(c);
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
            // Score the exchange in place; keep going only if it
            // lowers the compactness score.
            std::swap(c[i], c[j]);
            const int trial = compactnessScore(c);
            std::swap(c[i], c[j]);
            if (trial >= score)
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
                synth::instantiate(joint, 3, slots, iopts);
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
            score = trial;
            changed = true;
        }
        if (!changed)
            break;
    }
    return c;
}

Circuit
hierarchicalSynthesis(const Circuit &input, int m_th, double tol,
                      unsigned seed, synth::BlockMemo *memo,
                      synth::BlockPool *pool, bool compacting)
{
    const Circuit staged =
        compacting
            ? dagCompact(fuse2QBlocks(fuse1Q(input)), tol)
            : blocksToCircuit(partition3Q(input), input.numQubits());
    std::vector<Partition3Q> blocks = partition3Q(staged);

    // Collect the resynthesis targets first: each solve is a pure
    // function of (target unitary, options), independent of every
    // other block, so the set can fan out across a shared BlockPool.
    // Results land in index-addressed slots and are stitched back in
    // block order below — the emitted gate stream is bit-identical
    // to the serial path at every worker count.
    struct Target
    {
        std::size_t block;
        Matrix u;
        synth::SynthesisOptions opts;
    };
    std::vector<Target> targets;
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        const auto &b = blocks[bi];
        if (b.count2Q <= m_th || b.qubits.size() < 3)
            continue;
        synth::SynthesisOptions opts;
        opts.tol = tol;
        opts.maxBlocks = std::min(7, b.count2Q - 1);
        opts.descending = true;
        opts.seed = seed;
        opts.memo = memo;
        targets.push_back(
            Target{bi, synth::blockUnitary(b.gates, b.qubits), opts});
    }

    std::vector<synth::SynthesisResult> results(targets.size());
    auto solveOne = [&](std::size_t t) {
        results[t] = synth::synthesizeBlock(
            targets[t].u, blocks[targets[t].block].qubits,
            targets[t].opts);
    };
    if (pool && pool->helperThreads() > 0 && targets.size() > 1) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(targets.size());
        for (std::size_t t = 0; t < targets.size(); ++t)
            tasks.push_back([&solveOne, t] { solveOne(t); });
        pool->run(std::move(tasks));
    } else {
        for (std::size_t t = 0; t < targets.size(); ++t)
            solveOne(t);
    }

    Circuit out(input.numQubits());
    std::size_t next = 0;  // walks targets/results in block order
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        const auto &b = blocks[bi];
        if (next >= targets.size() || targets[next].block != bi) {
            for (const Gate &g : b.gates)
                out.add(g);
            continue;
        }
        const synth::SynthesisResult &r = results[next++];
        if (r.success &&
            static_cast<int>(r.blockCount) < b.count2Q) {
            for (const Gate &g : r.gates)
                out.add(g);
        } else {
            for (const Gate &g : b.gates)
                out.add(g);
        }
    }
    // A final same-pair fusion catches merges across block seams.
    return fuse2QBlocks(fuse1Q(out));
}

Circuit
mirrorNearIdentity(const Circuit &c, std::vector<int> &perm, double r)
{
    perm.assign(c.numQubits(), 0);
    for (int q = 0; q < c.numQubits(); ++q)
        perm[q] = q;
    // wire[q]: current physical wire holding logical qubit q.
    std::vector<int> wire = perm;
    Circuit out(c.numQubits());
    const Matrix swap_m = Gate::swap(0, 1).matrix();
    for (const Gate &g : c) {
        Gate mapped = g;
        for (size_t i = 0; i < mapped.qubits.size(); ++i)
            mapped.qubits[i] = wire[g.qubits[i]];
        if (mapped.is2Q() &&
            (mapped.op == Op::U4 || mapped.op == Op::CAN)) {
            weyl::WeylCoord coord = mapped.weylCoord();
            if (uarch::needsMirror(coord, r)) {
                // Replace with SWAP * U and track the rewiring.
                const Matrix u = swap_m * mapped.matrix();
                out.add(Gate::u4(mapped.qubits[0], mapped.qubits[1],
                                 u));
                std::swap(wire[g.qubits[0]], wire[g.qubits[1]]);
                continue;
            }
        }
        out.add(mapped);
    }
    perm = wire;
    return out;
}

Circuit
groupPauliRotations(const Circuit &c)
{
    // Stable-partition diagonal gates toward same-pair neighbours:
    // within maximal runs of mutually commuting diagonal gates
    // (RZZ / CP / RZ / Z / S / T), sort by qubit pair.
    auto isDiagonal = [](const Gate &g) {
        switch (g.op) {
          case Op::RZZ: case Op::CP: case Op::RZ: case Op::Z:
          case Op::S: case Op::Sdg: case Op::T: case Op::Tdg:
            return true;
          default:
            return false;
        }
    };
    Circuit out(c.numQubits());
    std::vector<Gate> run;
    auto flushRun = [&]() {
        std::stable_sort(run.begin(), run.end(),
                         [](const Gate &a, const Gate &b) {
                             return a.qubits < b.qubits;
                         });
        for (Gate &g : run)
            out.add(std::move(g));
        run.clear();
    };
    for (const Gate &g : c) {
        if (isDiagonal(g)) {
            run.push_back(g);
        } else {
            flushRun();
            out.add(g);
        }
    }
    flushRun();
    return out;
}

Circuit
cancelAdjacentCx(const Circuit &c)
{
    Circuit out(c.numQubits());
    // last[q]: index in out of the last gate touching q.
    std::vector<int> last(c.numQubits(), -1);
    std::vector<bool> dead;
    for (const Gate &g : c) {
        bool cancelled = false;
        if (g.op == Op::CX) {
            const int a = g.qubits[0], b = g.qubits[1];
            if (last[a] >= 0 && last[a] == last[b]) {
                const Gate &prev = out[last[a]];
                if (prev.op == Op::CX && !dead[last[a]] &&
                    prev.qubits == g.qubits) {
                    dead[last[a]] = true;
                    last[a] = -1;
                    last[b] = -1;
                    cancelled = true;
                }
            }
        }
        if (cancelled)
            continue;
        out.add(g);
        dead.push_back(false);
        for (int q : g.qubits)
            last[q] = static_cast<int>(out.size()) - 1;
    }
    Circuit filtered(c.numQubits());
    for (size_t i = 0; i < out.size(); ++i)
        if (!dead[i])
            filtered.add(out[i]);
    return filtered;
}

} // namespace reqisc::compiler
