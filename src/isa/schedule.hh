/**
 * @file
 * List schedulers lowering a compiled circuit into a timed Program.
 *
 * Three strategies over the same per-gate durations
 * (isa/duration_model.hh):
 *  - Serial: one instruction at a time (the pre-isa status quo; the
 *    makespan is the sum of durations — the baseline every other
 *    strategy is measured against),
 *  - Asap: greedy as-soon-as-possible list scheduling — each gate
 *    starts the moment all its qubits are free, which maximizes
 *    2Q-gate parallelism subject to qubit exclusivity for the given
 *    gate order,
 *  - Alap: as-late-as-possible — the time-mirror of Asap (identical
 *    makespan, idle time moved before each qubit's first gate, the
 *    shape preferred when late gates should sit close to measurement).
 *
 * Invariants guaranteed for every strategy: the emitted program
 * passes Program::validate (no qubit overlap; topology respected when
 * one is supplied), preserves the input's per-qubit gate order, and
 * has makespan <= the serial sum of durations. Scheduling is
 * deterministic in (circuit, options).
 */

#ifndef REQISC_ISA_SCHEDULE_HH
#define REQISC_ISA_SCHEDULE_HH

#include <string>

#include "circuit/circuit.hh"
#include "isa/duration_model.hh"
#include "isa/program.hh"
#include "route/topology.hh"

namespace reqisc::isa
{

/** Scheduling strategy. */
enum class Strategy
{
    Serial,
    Asap,
    Alap,
};

const char *strategyName(Strategy s);

/** @return false if `name` is not "serial" / "asap" / "alap". */
bool strategyFromName(const std::string &name, Strategy &out);

/** Scheduling configuration. */
struct ScheduleOptions
{
    Strategy strategy = Strategy::Asap;
    DurationModel durations;
    /**
     * Device connectivity to enforce (the circuit must already be
     * routed); nullptr skips the check (logical programs).
     */
    const route::Topology *topology = nullptr;
};

/**
 * Lower a circuit (gates on <= 2 qubits; lower high-level IR first)
 * into a timed program. Throws std::invalid_argument on gates with
 * three or more qubits or on a topology violation.
 */
Program schedule(const circuit::Circuit &c,
                 const ScheduleOptions &opts = {});

} // namespace reqisc::isa

#endif // REQISC_ISA_SCHEDULE_HH
