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

/** The gates with every U4 re-emitted through the minimal-CX KAK path. */
std::vector<Gate>
u4sToCnots(const std::vector<Gate> &gates)
{
    std::vector<Gate> out;
    for (const Gate &g : gates) {
        if (g.op != Op::U4) {
            out.push_back(g);
            continue;
        }
        for (Gate &e :
             synth::su4ToCnots(g.qubits[0], g.qubits[1], g.matrix()))
            out.push_back(std::move(e));
    }
    return out;
}

/**
 * Consolidate 2Q runs and re-emit each through the minimal-CX KAK
 * path (Qiskit's Collect2qBlocks + ConsolidateBlocks equivalent).
 */
Circuit
consolidateBlocks(const Circuit &c)
{
    Circuit out(c.numQubits());
    for (Gate &g : u4sToCnots(fuse2QBlocks(fuse1Q(c)).gates()))
        out.add(std::move(g));
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

/**
 * Partition + numeric block re-synthesis over SU(4) blocks, emitted
 * in the {Can, U3} normal form.
 */
Circuit
partitionResynth(const Circuit &input)
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
    return circuit::expandToCanU3(fuse2QBlocks(fuse1Q(out)));
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
                std::vector<Gate> cand = u4sToCnots(r.gates);
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
    return partitionResynth(lowerToCnot3(input));
}

} // namespace reqisc::compiler
