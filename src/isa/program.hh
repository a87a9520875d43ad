/**
 * @file
 * The timed RQISA intermediate representation: an executable program
 * is a list of instructions `{op, qubits, start, duration}` over a
 * fixed qubit register, i.e. per-qubit timelines instead of an
 * ordered gate list. This is the layer where the compiler's output
 * stops being a circuit and becomes something a control stack could
 * run (the eQASM/Quil gap the paper's "attainable on hardware"
 * framing points at).
 *
 * Invariants (checked by validate(), enforced on assembly ingest):
 *  - qubit exclusivity: two instructions sharing a qubit never
 *    overlap in time,
 *  - starts and durations are finite and non-negative,
 *  - every gate passes circuit::gateError (qubit and parameter
 *    counts, operands in range and distinct, finite parameters), and
 *    a measurement's operands are in range and distinct,
 *  - with a topology, every 2Q instruction acts on a connected pair.
 *
 * Times are in 1/g units (isa/duration_model.hh). Instruction order
 * in the container is the program's canonical order (schedulers emit
 * sorted by (start, appearance)); the assembly round-trip preserves
 * it byte-for-byte.
 */

#ifndef REQISC_ISA_PROGRAM_HH
#define REQISC_ISA_PROGRAM_HH

#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "route/topology.hh"

namespace reqisc::isa
{

/**
 * Timed-schedule report of a program (Program::stats), which
 * compiler::Metrics::schedule holds (all-zero with `scheduled ==
 * false` when a job was not scheduled). Times are in 1/g units under
 * the program's isa::DurationModel — unlike `Metrics::duration`, the
 * makespan includes one-qubit gate durations, because the program is
 * what the hardware executes.
 */
struct ScheduleStats
{
    bool scheduled = false;
    double makespan = 0.0;        //!< end of the last instruction
    double serialDuration = 0.0;  //!< sum of instruction durations
    /** serialDuration / makespan: average instructions in flight. */
    double parallelism = 0.0;
    /**
     * Total idle time summed over qubits, counting only gaps between
     * a qubit's first and last instruction (decoherence-relevant
     * windows; qubits parked in |0> before first use don't count).
     */
    double idleTime = 0.0;
    int instructions = 0;
    /** The strategy the schedule pass ran ("serial", "asap", "alap"). */
    std::string strategy;
};

/** One timed instruction. */
struct Instruction
{
    enum class Kind
    {
        Gate,     //!< a unitary gate (the wrapped circuit::Gate)
        Measure,  //!< computational-basis readout of `qubits()`
    };

    Kind kind = Kind::Gate;
    /**
     * Gate payload. For Kind::Measure only `gate.qubits` is
     * meaningful (the measured qubits); op/params are ignored.
     */
    circuit::Gate gate;
    double start = 0.0;     //!< issue time, 1/g units
    double duration = 0.0;  //!< execution time, 1/g units

    double end() const { return start + duration; }
    const std::vector<int> &qubits() const { return gate.qubits; }

    static Instruction timedGate(circuit::Gate g, double start,
                                 double duration);
};

/** An executable timed program on a fixed register. */
class Program
{
  public:
    Program() = default;
    explicit Program(int num_qubits) : numQubits_(num_qubits) {}

    int numQubits() const { return numQubits_; }
    size_t size() const { return instrs_.size(); }
    bool empty() const { return instrs_.empty(); }

    const std::vector<Instruction> &instructions() const
    {
        return instrs_;
    }
    const Instruction &operator[](size_t i) const
    {
        return instrs_[i];
    }

    /** Append an instruction (no ordering requirement). */
    void add(Instruction instr);

    /** Canonical order: stable sort by start time. */
    void sortByStart();

    /** End of the last instruction (0 for an empty program). */
    double makespan() const;

    /** Makespan / parallelism / idle-time report. */
    ScheduleStats stats() const;

    /**
     * Check the program invariants listed in the file header; the
     * returned messages are empty iff the program is valid. A
     * non-null topology additionally checks 2Q connectivity.
     */
    std::vector<std::string>
    validate(const route::Topology *topo = nullptr) const;

    /**
     * Re-ingest: the gate instructions in start order as an untimed
     * circuit (measurements dropped), suitable for feeding back into
     * the compiler or the simulators.
     */
    circuit::Circuit toCircuit() const;

  private:
    int numQubits_ = 0;
    std::vector<Instruction> instrs_;
};

} // namespace reqisc::isa

#endif // REQISC_ISA_PROGRAM_HH
