/**
 * @file
 * Numeric circuit instantiation (the QFactor fixed point).
 *
 * Given a fixed circuit structure — a sequence of slots, some holding
 * frozen gates and some holding free unitaries on one or two qubits —
 * alternately replace each free slot with the unitary that maximizes
 * |Tr(target^dagger * circuit)| (the SVD of its environment tensor).
 * This is the workhorse behind approximate synthesis, the 3-CNOT
 * decomposition and the template library; it plays the role BQSKit's
 * instantiation engine plays in the paper's artifact.
 */

#ifndef REQISC_SYNTH_INSTANTIATE_HH
#define REQISC_SYNTH_INSTANTIATE_HH

#include <vector>

#include "circuit/gate.hh"
#include "qmath/matrix.hh"
#include "qmath/random.hh"

namespace reqisc::synth
{

using qmath::Complex;
using qmath::Matrix;

/** One position in the circuit structure being optimized. */
struct Slot
{
    enum class Kind { Free, Fixed };

    Kind kind = Kind::Free;
    std::vector<int> qubits;  //!< one or two qubit indices
    Matrix value;             //!< current (or frozen) unitary

    static Slot free2Q(int a, int b);
    static Slot free1Q(int q);
    static Slot fixed(std::vector<int> qubits, Matrix m);
};

/** Options for the alternating optimization. */
struct InstantiateOptions
{
    double tol = 1e-11;       //!< target infidelity 1 - |Tr|/2^n
    int maxSweeps = 400;
    int restarts = 3;         //!< random re-initializations
    unsigned seed = 12345;
};

/** Outcome of an instantiation run. */
struct InstantiateResult
{
    bool converged = false;
    double infidelity = 1.0;
    int sweeps = 0;
    std::vector<Slot> slots;  //!< with optimized values filled in
};

/**
 * Optimize the free slots to match the target unitary up to global
 * phase. Slot order is circuit order: slots[0] acts first.
 *
 * Before any sweep, a light-cone certificate rules out structures
 * that provably cannot reach `opts.tol`. For each qubit q, the
 * structure's backward light cone C_q (walk the slots from last to
 * first; a slot touching the cone joins it) bounds where any circuit
 * V of this structure can send q's operators: V^dagger O_q V acts as
 * identity outside C_q. A converged fit W = e^{i phi} V has
 * ||T - W||_F^2 = 2 dim infid, so supportDefect(T, q, C_q) <=
 * 2 ||T - W||_F < 2 sqrt(2 dim tol). When some defect d_q exceeds
 * twice that bound, 4 sqrt(2 dim tol) (the factor 2 absorbs
 * rounding), the call returns at once with converged = false,
 * sweeps = 0, slots = the structure as given, and infidelity =
 * d_q^2 / (8 dim), a certified lower bound on the infidelity of
 * every circuit with this structure. Structures whose cones cover
 * every qubit are never ruled out.
 *
 * @param target 2^n x 2^n unitary to match
 * @param num_qubits register width n (<= 4 by design)
 * @param slots circuit structure
 */
InstantiateResult instantiate(const Matrix &target, int num_qubits,
                              const std::vector<Slot> &slots,
                              const InstantiateOptions &opts = {});

/**
 * How far `target` spreads qubit `qubit`'s operators beyond `cone`:
 * max over O in {X, Z} of ||(1 - P_C)(T^dagger O_q T)||_F, where P_C
 * keeps only the part of an operator that acts as identity outside
 * the qubits in `cone`. Zero when T maps q's Paulis into C; the
 * light-cone certificate of instantiate() compares it against the
 * fit tolerance.
 *
 * @param target 2^n x 2^n unitary
 * @param num_qubits register width n
 * @param qubit the qubit whose Paulis are conjugated
 * @param cone qubit indices of C (should contain `qubit`)
 */
double supportDefect(const Matrix &target, int num_qubits, int qubit,
                     const std::vector<int> &cone);

/** Lift a k-qubit gate matrix to the full register dimension. */
Matrix liftGate(const Matrix &g, const std::vector<int> &qubits,
                int num_qubits);

/**
 * Destination-passing liftGate: reuses `out`'s storage, so the sweep
 * loop lifts every slot with zero allocations once warm.
 */
void liftGateInto(Matrix &out, const Matrix &g,
                  const std::vector<int> &qubits, int num_qubits);

/**
 * The unitary of a gate list on a block of n = qubits.size() qubits:
 * the 2^n identity, left-multiplied gate by gate by the gate's
 * matrix lifted onto the positions of its qubits in `qubits` (the
 * first entry is the most significant). Every gate's qubits must
 * appear in `qubits`.
 */
Matrix blockUnitary(const std::vector<circuit::Gate> &gates,
                    const std::vector<int> &qubits);

} // namespace reqisc::synth

#endif // REQISC_SYNTH_INSTANTIATE_HH
