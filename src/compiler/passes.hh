/**
 * @file
 * Local circuit-optimization passes shared by the ReQISC pipelines
 * and the baseline compilers.
 *
 * All passes are pure Circuit -> Circuit functions preserving the
 * overall unitary up to global phase (mirrorNearIdentity additionally
 * tracks an output-wire permutation). The load-bearing ones: fuse1Q /
 * fuse2QBlocks (greedy fusion into U4 blocks), cancelAdjacentCx,
 * groupPauliRotations (phase-gadget grouping), partition3Q (DAG-order
 * 3-qubit blocking), dagCompact (commutation-aware compaction,
 * Section 5.2.1) and hierarchicalSynthesis (compacting + partition +
 * approximate re-synthesis, the ReQISC-Full extra pass; compacting
 * off is the Fig-14 ablation).
 */

#ifndef REQISC_COMPILER_PASSES_HH
#define REQISC_COMPILER_PASSES_HH

#include <vector>

#include "circuit/circuit.hh"
#include "synth/pool.hh"
#include "synth/synthesis.hh"
#include "uarch/genashn.hh"

namespace reqisc::compiler
{

using circuit::Circuit;
using circuit::Gate;
using circuit::Op;
using qmath::Matrix;

/** The hierarchical-synthesis threshold m_th (Section 5.1.2). */
inline constexpr int kHierSynthThreshold = 4;

/** The synthesis precision: the accepted trace infidelity. */
inline constexpr double kSynthTol = 1e-9;

/** Merge adjacent one-qubit gates into single U3s, drop identities. */
Circuit fuse1Q(const Circuit &c);

/**
 * Fuse maximal same-pair runs of 2Q gates (with interleaved 1Q gates
 * on the pair) into opaque U4 blocks — the first tier of hierarchical
 * synthesis. Gates on >= 3 qubits act as barriers on their qubits.
 */
Circuit fuse2QBlocks(const Circuit &c);

/** A topological 3-qubit partition block. */
struct Partition3Q
{
    std::vector<int> qubits;       //!< 1..3 distinct qubits
    std::vector<Gate> gates;       //!< block contents, in order
    int count2Q = 0;
};

/**
 * Greedy linear-time partitioning of a {U4/CAN/1Q} circuit into
 * blocks spanning at most three qubits (second tier of hierarchical
 * synthesis). Emitted in a dependency-respecting order.
 */
std::vector<Partition3Q> partition3Q(const Circuit &c);

/** Reassemble partition blocks into a circuit. */
Circuit blocksToCircuit(const std::vector<Partition3Q> &blocks,
                        int num_qubits);

/**
 * Compactness score of a 2Q-gate sequence: the sum over consecutive
 * multi-qubit gates of 0 (same pair), 1 (pairs sharing a qubit) or 2
 * (disjoint pairs). Lower = more fusable / partition-friendly.
 */
int compactnessScore(const Circuit &c);

/**
 * DAG compacting (Section 5.1.3): exchange approximately commuting
 * adjacent SU(4)s when doing so lowers the compactness score, using
 * numeric re-instantiation of the swapped pair (parameters change,
 * Figure 8). A trial is scored by swapping the pair in place, so no
 * trial copies the circuit; most non-exchangeable pairs are then
 * settled by instantiate()'s light-cone certificate without a sweep.
 *
 * @param c circuit over {U4/CAN/1Q}
 * @param tol accepted infidelity for an exchange
 */
Circuit dagCompact(const Circuit &c, double tol = kSynthTol);

/**
 * Approximate synthesis over the 3Q partition: blocks with more than
 * `m_th` 2Q gates are re-synthesized into fewer SU(4)s when possible
 * (Section 5.1.2, kHierSynthThreshold). `tol` is the accepted
 * infidelity of both the dagCompact exchanges that run first and the
 * block resyntheses. `seed` drives the numeric
 * instantiation (deterministic per call); `memo` optionally shares
 * block-synthesis results across calls/circuits (service layer).
 *
 * `pool` optionally fans the independent block solves out across a
 * shared synth::BlockPool. Results are collected into per-block
 * slots and emitted in block order, so the output gate stream is
 * bit-identical to the serial path at every worker count.
 *
 * `compacting = false` is the Fig-14 ablation: instead of fusing and
 * compacting, the input is partitioned as it is and reassembled in
 * block order; the resynthesis that follows is the same.
 */
Circuit hierarchicalSynthesis(const Circuit &c,
                              int m_th = kHierSynthThreshold,
                              double tol = kSynthTol,
                              unsigned seed = synth::SynthesisOptions{}.seed,
                              synth::BlockMemo *memo = nullptr,
                              synth::BlockPool *pool = nullptr,
                              bool compacting = true);

/**
 * Near-identity gate mirroring (Section 4.3). Every 2Q gate that
 * uarch::needsMirror at threshold `r` is composed with SWAP (its
 * mirror) and the rewiring is tracked in the returned permutation:
 * logical qubit q of the input ends on wire perm[q] of the output.
 */
Circuit mirrorNearIdentity(const Circuit &c, std::vector<int> &perm,
                           double r = uarch::kMirrorThreshold);

/**
 * Commutation-aware grouping of two-qubit Pauli rotations (the
 * PHOENIX-style high-level pass for Type-II programs): diagonal
 * rotations (RZZ/CP/RZ) commute freely and are bubbled toward
 * same-pair neighbours so the 2Q fuser can merge them.
 */
Circuit groupPauliRotations(const Circuit &c);

/** Cancel adjacent mutually-inverse CX pairs (baseline peephole). */
Circuit cancelAdjacentCx(const Circuit &c);

} // namespace reqisc::compiler

#endif // REQISC_COMPILER_PASSES_HH
