/**
 * @file
 * Per-edge native gate-set selection: the reconfiguration loop that
 * makes the instruction set fit the chip instead of the other way
 * around (the paper's central claim; cf. the SQiSW gate-set design
 * study, arXiv:2105.06074, which runs the same trade-off for one
 * homogeneous device).
 *
 * For every edge of a Backend the loop
 *  1. solves the genAshN time-optimal duration of each candidate
 *     native 2Q instruction against that edge's own coupling
 *     (uarch::optimalDuration),
 *  2. scores each candidate with the isa fidelity model under that
 *     edge's calibration: per-application fidelity
 *       (1 - p0_e * tau / tau0) * exp(-tau * (r_a + r_b))
 *     (depolarizing at the edge's rate, decoherence of both qubits
 *     while driven, r_q = QubitCalibration::decayRate()), raised to
 *     the workload-expected number of applications a generic SU(4)
 *     needs over that fixed basis,
 *  3. emits the best candidate as the edge's native instruction.
 *
 * The per-target application counts follow the known fixed-basis
 * synthesis results (CX: 2 applications iff z = 0, else 3; SQiSW:
 * 2 applications iff x >= y + |z| — the W' region of
 * arXiv:2105.06074 — else 3; B: always 2; any basis: 1 for its own
 * class, 0 for identity) and are pinned against the numeric
 * decomposition synth::su4ToFixedBasis in tests/test_backend.cc.
 *
 * The result also carries the best *uniform* gate set (one candidate
 * chip-wide, the conventional fixed-ISA baseline); by construction
 * the per-edge table scores at least as well on every edge, and
 * estimateFidelity() inherits that dominance for every routed
 * circuit — bench_backend quantifies the gap.
 */

#ifndef REQISC_BACKEND_RECONFIGURE_HH
#define REQISC_BACKEND_RECONFIGURE_HH

#include <string>
#include <vector>

#include "backend/backend.hh"
#include "circuit/circuit.hh"
#include "uarch/duration.hh"
#include "weyl/weyl.hh"

namespace reqisc::backend
{

/** One candidate native 2Q instruction. */
struct GateSetCandidate
{
    circuit::Op op;         //!< named gate (usable as a fixed basis)
    weyl::WeylCoord coord;  //!< its Weyl class
    const char *name;       //!< mnemonic for tables/JSON
};

/**
 * The candidate set the loop considers: CX, SQiSW and B — the named
 * classes synth::su4ToFixedBasis can use as a fixed basis, covering
 * the three regimes (perfect entangler of the conventional ISA, the
 * half-entangler the SQiSW study advocates, the 2-application
 * optimum).
 */
const std::vector<GateSetCandidate> &gateSetCandidates();

/**
 * Applications of fixed basis `op` (plus free 1Q layers) needed to
 * realize the class `target`: 0 for identity, 1 for the basis' own
 * class, else the analytic 2-vs-3 rules above, each tested to 1e-9 in
 * the Weyl coordinates. Throws std::invalid_argument for an op
 * outside gateSetCandidates().
 */
int applicationsFor(circuit::Op op, const weyl::WeylCoord &target);

/** The selected native instruction of one edge. */
struct EdgeInstruction
{
    int a = 0, b = 1;        //!< edge endpoints (a < b)
    circuit::Op op = circuit::Op::CX;
    std::string name;        //!< candidate mnemonic
    weyl::WeylCoord coord;
    double duration = 0.0;     //!< genAshN tau on this edge, 1/g_ref
    uarch::SubScheme scheme = uarch::SubScheme::ND;
    double appFidelity = 0.0;  //!< per-application fidelity estimate
    double expectedApps = 0.0; //!< workload-expected applications
    double score = 0.0;        //!< appFidelity ^ expectedApps
};

/** Per-edge instruction table plus the uniform baseline. */
struct ReconfigureResult
{
    /** Chosen instruction per edge, aligned with Backend::edges(). */
    std::vector<EdgeInstruction> table;
    /** Best single chip-wide gate set (the fixed-ISA baseline). */
    std::vector<EdgeInstruction> uniformTable;
    circuit::Op uniformOp = circuit::Op::CX;
    std::string uniformName;

    /** Table lookup; throws std::invalid_argument off-edge. */
    const EdgeInstruction &instruction(int a, int b) const;

    /** True when any edge chose a non-uniform instruction. */
    bool differsFromUniform() const;
};

/**
 * Run the gate-set selection loop for every edge of the chip. The
 * scoring workload is fixed: the 2Q class mix of typical compiled
 * programs (CNOT-class dominated, routing SWAPs, a tail of generic
 * and near-identity SU(4)s), and p0 scales at isa::NoiseModel's
 * reference duration tau0.
 */
ReconfigureResult reconfigure(const Backend &backend);

/**
 * Estimated fidelity of a circuit routed onto the chip (every 2Q
 * gate on an edge; throws std::invalid_argument otherwise) executed
 * with the given instruction table: the product of per-2Q-gate
 * scores (each compiled SU(4) modeled as a workload draw over the
 * edge's native instruction), 1Q-gate decoherence factors, and one
 * (1 - readoutError) factor per used qubit. Comparable across tables
 * of the same Backend; the per-edge table dominates the uniform one
 * by construction.
 */
double estimateFidelity(const circuit::Circuit &routed,
                        const Backend &backend,
                        const std::vector<EdgeInstruction> &table);

} // namespace reqisc::backend

#endif // REQISC_BACKEND_RECONFIGURE_HH
