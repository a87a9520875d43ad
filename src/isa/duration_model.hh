/**
 * @file
 * The hardware duration model of the RQISA program layer.
 *
 * One struct owns every per-instruction duration the scheduler and
 * the timeline-aware noise model consume: two-qubit gates cost their
 * genAshN time-optimal duration on the target coupling
 * (uarch::durationInfo), one-qubit gates cost the flat
 * kDefaultOneQubitDuration. All durations are in 1/g units
 * (g = canonical coupling strength), the convention of
 * uarch/duration.hh, so the conventional CNOT pulse is
 * pi/sqrt(2) ~ 2.221.
 *
 * The constant is the single source of truth for the one-qubit
 * duration — bench harnesses, tests and examples must use it instead
 * of re-declaring ad hoc copies.
 */

#ifndef REQISC_ISA_DURATION_MODEL_HH
#define REQISC_ISA_DURATION_MODEL_HH

#include <map>
#include <utility>

#include "circuit/gate.hh"
#include "uarch/coupling.hh"

namespace reqisc::isa
{

/**
 * One-qubit gate duration in 1/g units: ~1/9 of the conventional
 * CNOT pulse, matching the typical 25 ns single-qubit vs 200 ns
 * two-qubit ratio on transmon hardware.
 */
inline constexpr double kDefaultOneQubitDuration = 0.25;

/** Per-instruction durations for one target device. */
struct DurationModel
{
    /** Chip-wide fallback coupling (homogeneous devices). */
    uarch::Coupling coupling = uarch::Coupling::xy(1.0);
    /**
     * Per-edge coupling overrides for heterogeneous chips, keyed on
     * the (min, max)-normalized physical pair. Populated by
     * backend::Backend::durationModel(); empty = every pair uses
     * `coupling` (the pre-backend behavior). A 2Q gate on a pair
     * found here is timed against that edge's own coupling.
     */
    std::map<std::pair<int, int>, uarch::Coupling> edgeCoupling;

    /** Coupling used for a pair: the edge override or the fallback. */
    const uarch::Coupling &couplingFor(int a, int b) const;

    /**
     * Duration of a gate: kDefaultOneQubitDuration for 1Q gates, the
     * genAshN optimal duration of its Weyl coordinate on
     * couplingFor(its pair) for 2Q gates. Throws
     * std::invalid_argument for gates on three or more qubits (the
     * scheduler consumes compiled {Can, U3} circuits; lower
     * high-level IR first).
     */
    double gate(const circuit::Gate &g) const;
};

} // namespace reqisc::isa

#endif // REQISC_ISA_DURATION_MODEL_HH
