/**
 * @file
 * Calibration planning (Sections 6.5 / 6.5.1).
 *
 * A compiled program's calibration workload is proportional to its
 * number of *distinct* SU(4) classes: each class is pulse-solved once
 * (model-based parameter generation) and then characterized on
 * hardware. This module takes a circuit's classes
 * (circuit::Circuit::su4Classes at circuit::kSU4ClassTol), solves
 * each once with the genAshN scheme, and reports the total
 * cost under a simple linear model — the quantity Figs 13/14 track.
 */

#ifndef REQISC_UARCH_CALIBRATION_HH
#define REQISC_UARCH_CALIBRATION_HH

#include <vector>

#include "circuit/circuit.hh"
#include "uarch/genashn.hh"

namespace reqisc::uarch
{

/**
 * Memoization hook for pulse solves (implemented by
 * service::PulseCache; only the interface lives at this layer so the
 * dependency direction stays downward). An implementation is bound to
 * one coupling: callers must not share a memo across couplings. A
 * lookup may only return solutions the implementation can re-verify
 * for the requested coordinate (converged, coordinate within
 * tolerance), so a hit is behaviourally identical to re-solving.
 */
class PulseMemo
{
  public:
    virtual ~PulseMemo() = default;

    /** @return true on a verified hit; fills `sol`. */
    virtual bool lookup(const weyl::WeylCoord &coord,
                        PulseSolution &sol) = 0;

    /**
     * Record a freshly computed solution.
     *
     * @param solve_seconds wall time the solve took (per-class
     *        instrumentation)
     */
    virtual void store(const weyl::WeylCoord &coord,
                       const PulseSolution &sol,
                       double solve_seconds) = 0;
};

/** One calibration entry: a distinct SU(4) class and its pulse. */
struct CalibrationEntry
{
    weyl::WeylCoord coord;   //!< class representative
    int uses = 0;            //!< gates in the program using it
    PulseSolution pulse;     //!< model-generated parameters
};

/** A full calibration schedule for one program + coupling. */
struct CalibrationPlan
{
    std::vector<CalibrationEntry> entries;
    int unsolved = 0;        //!< classes the solver could not reach

    int distinctGates() const
    {
        return static_cast<int>(entries.size());
    }

    /**
     * Total calibration cost under the linear model of Section
     * 6.5.1: one unit of fixed characterization plus one experiment
     * per class.
     */
    double cost() const { return 1.0 + entries.size(); }
};

/**
 * Build the calibration plan for a compiled {Can, U3} circuit on the
 * given coupling. The entries are the circuit's su4Classes at
 * `cluster_tol`, in the same order; each class is solved once, in
 * that order. With a `memo`, classes
 * already pulse-solved elsewhere (e.g. by another circuit of a batch
 * going through the same service cache) are reused instead of
 * re-solved — the clustering itself stays per-circuit, so the
 * entry list is deterministic regardless of cache state. With a
 * `pool`, each class's EA multistart fans its Newton starts out
 * across it (see GateScheme); the plan is bit-identical to the
 * serial one.
 */
CalibrationPlan planCalibration(const circuit::Circuit &c,
                                const Coupling &cpl,
                                double cluster_tol =
                                    circuit::kSU4ClassTol,
                                PulseMemo *memo = nullptr,
                                synth::BlockPool *pool = nullptr);

} // namespace reqisc::uarch

#endif // REQISC_UARCH_CALIBRATION_HH
