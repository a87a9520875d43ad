#include "compiler/baselines.hh"

#include <algorithm>

#include "circuit/lower.hh"
#include "compiler/passes.hh"
#include "synth/instantiate.hh"
#include "synth/synthesis.hh"

namespace reqisc::compiler
{

circuit::Circuit
lowerToCnot3(const circuit::Circuit &input)
{
    Circuit mid =
        circuit::lowerThreeQubit(circuit::decomposeMcx(input));
    Circuit out(input.numQubits());
    for (const Gate &g : mid) {
        if (g.numQubits() == 1 || g.op == Op::CX) {
            out.add(g);
            continue;
        }
        for (Gate &e :
             synth::su4ToCnots(g.qubits[0], g.qubits[1], g.matrix()))
            out.add(std::move(e));
    }
    return out;
}

namespace
{

/**
 * Consolidate 2Q runs and re-emit each through the minimal-CX KAK
 * path (Qiskit's Collect2qBlocks + ConsolidateBlocks equivalent).
 */
Circuit
consolidateBlocks(const Circuit &c)
{
    Circuit fused = fuse2QBlocks(fuse1Q(c));
    Circuit out(c.numQubits());
    for (const Gate &g : fused) {
        if (g.op == Op::U4) {
            for (Gate &e : synth::su4ToCnots(g.qubits[0],
                                             g.qubits[1],
                                             g.matrix()))
                out.add(std::move(e));
        } else {
            out.add(g);
        }
    }
    return out;
}

} // namespace

circuit::Circuit
qiskitLike(const circuit::Circuit &input)
{
    Circuit c = lowerToCnot3(input);
    for (int round = 0; round < 2; ++round) {
        c = fuse1Q(c);
        c = cancelAdjacentCx(c);
        c = consolidateBlocks(c);
    }
    return fuse1Q(cancelAdjacentCx(c));
}

circuit::Circuit
tketLike(const circuit::Circuit &input)
{
    Circuit c = circuit::lowerThreeQubit(
        circuit::decomposeMcx(input));
    // PauliSimp-style: group commuting phase gadgets before lowering
    // so same-pair rotations merge.
    c = groupPauliRotations(c);
    c = lowerToCnot3(c);
    for (int round = 0; round < 2; ++round) {
        c = fuse1Q(c);
        c = cancelAdjacentCx(c);
        c = consolidateBlocks(c);
    }
    return fuse1Q(cancelAdjacentCx(c));
}

namespace
{

/** Partition + numeric block re-synthesis over SU(4) blocks. */
Circuit
partitionResynth(const Circuit &input, bool to_cnots)
{
    Circuit c = fuse2QBlocks(fuse1Q(input));
    Circuit out(input.numQubits());
    for (const auto &b : partition3Q(c)) {
        const bool worth = b.qubits.size() == 3 && b.count2Q > 3;
        std::vector<Gate> gates;
        if (worth) {
            synth::SynthesisOptions opts;
            opts.tol = 1e-8;
            opts.maxBlocks = std::min(7, b.count2Q);
            opts.restarts = 2;
            opts.descending = true;
            synth::SynthesisResult r = synth::synthesizeBlock(
                synth::blockUnitary(b.gates, b.qubits), b.qubits,
                opts);
            if (r.success &&
                static_cast<int>(r.blockCount) <= b.count2Q)
                gates = r.gates;
        }
        if (gates.empty())
            gates = b.gates;
        for (const Gate &g : gates)
            out.add(g);
    }
    if (!to_cnots)
        return circuit::expandToCanU3(fuse2QBlocks(fuse1Q(out)));
    Circuit cx(out.numQubits());
    for (const Gate &g : fuse2QBlocks(fuse1Q(out))) {
        if (g.op == Op::U4 || g.op == Op::CAN) {
            for (Gate &e : synth::su4ToCnots(g.qubits[0],
                                             g.qubits[1],
                                             g.matrix()))
                cx.add(std::move(e));
        } else {
            cx.add(g);
        }
    }
    return cx;
}

} // namespace

circuit::Circuit
bqskitLike(const circuit::Circuit &input)
{
    // Partition the raw CX circuit and re-synthesize each 3Q block
    // numerically, keeping whichever variant needs fewer CX gates.
    Circuit c = fuse1Q(lowerToCnot3(input));
    Circuit out(c.numQubits());
    for (const auto &b : partition3Q(c)) {
        std::vector<Gate> emitted;
        if (b.qubits.size() == 3 && b.count2Q > 3) {
            synth::SynthesisOptions opts;
            opts.tol = 1e-8;
            opts.maxBlocks = 6;
            opts.restarts = 2;
            opts.descending = true;
            synth::SynthesisResult r = synth::synthesizeBlock(
                synth::blockUnitary(b.gates, b.qubits), b.qubits,
                opts);
            if (r.success) {
                std::vector<Gate> cand;
                for (const Gate &g : r.gates) {
                    if (g.op == Op::U4) {
                        for (Gate &e : synth::su4ToCnots(
                                 g.qubits[0], g.qubits[1],
                                 g.matrix()))
                            cand.push_back(std::move(e));
                    } else {
                        cand.push_back(g);
                    }
                }
                int cx = 0;
                for (const Gate &g : cand)
                    if (g.op == Op::CX)
                        ++cx;
                if (cx < b.count2Q)
                    emitted = std::move(cand);
            }
        }
        if (emitted.empty())
            emitted = b.gates;
        for (const Gate &g : emitted)
            out.add(std::move(g));
    }
    return fuse1Q(cancelAdjacentCx(out));
}

circuit::Circuit
qiskitSU4(const circuit::Circuit &input)
{
    return circuit::expandToCanU3(
        fuse2QBlocks(fuse1Q(qiskitLike(input))));
}

circuit::Circuit
tketSU4(const circuit::Circuit &input)
{
    return circuit::expandToCanU3(
        fuse2QBlocks(fuse1Q(tketLike(input))));
}

circuit::Circuit
bqskitSU4(const circuit::Circuit &input)
{
    Circuit c = lowerToCnot3(input);
    return partitionResynth(c, /*to_cnots=*/false);
}

} // namespace reqisc::compiler
