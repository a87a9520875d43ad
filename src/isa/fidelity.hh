/**
 * @file
 * Timeline-aware fidelity estimation: the schedule, not just the
 * gate list, determines attainable fidelity.
 *
 * Extends the paper's Section-6.7 noise model (qsim::simulateNoisy:
 * depolarizing p = p0 * tau / tau0 after every 2Q gate) with
 * per-qubit idle decoherence: whenever a qubit waits between two of
 * its instructions for time dt, it suffers amplitude damping
 * gamma = 1 - exp(-dt/T1) and phase damping
 * lambda = 1 - exp(-dt/T2). Qubits parked in |0> before their first
 * instruction are unaffected (both channels fix the ground state),
 * so only in-window idle time costs fidelity — exactly the quantity
 * ASAP/ALAP scheduling trades off.
 *
 * NoiseModel also hosts the repo-wide default noise constants
 * (p0 = 1e-3 at tau0 = conventional CNOT pulse) previously duplicated
 * across bench/example helpers; with the default-constructed model
 * (T1 = T2 = infinity) simulateTimed reproduces qsim::simulateNoisy
 * on the same gate order.
 */

#ifndef REQISC_ISA_FIDELITY_HH
#define REQISC_ISA_FIDELITY_HH

#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "uarch/duration.hh"

namespace reqisc::isa
{

/** The timeline noise model (all times in 1/g units). */
struct NoiseModel
{
    /** 2Q depolarizing rate at the reference duration tau0. */
    double p0 = 1e-3;
    /** Reference duration: the conventional CNOT pulse pi/(sqrt 2 g). */
    double tau0 = uarch::conventionalCnotDuration(1.0);
    /** Amplitude-damping (energy-relaxation) time; infinity = off. */
    double t1 = std::numeric_limits<double>::infinity();
    /** Dephasing time; infinity = off. */
    double t2 = std::numeric_limits<double>::infinity();
    /**
     * Per-qubit T1/T2 overrides for heterogeneous chips (populated
     * by backend::Backend::noiseModel()). Qubits beyond the vector
     * length — in particular every qubit when the vectors are empty,
     * the pre-backend default — fall back to the scalar t1/t2.
     */
    std::vector<double> t1PerQubit;
    std::vector<double> t2PerQubit;
    /**
     * Per-edge 2Q depolarizing rate at tau0, keyed on the
     * (min, max)-normalized pair; pairs not present use `p0`.
     */
    std::map<std::pair<int, int>, double> p0PerEdge;

    double t1For(int q) const
    {
        return static_cast<size_t>(q) < t1PerQubit.size()
                   ? t1PerQubit[static_cast<size_t>(q)]
                   : t1;
    }
    double t2For(int q) const
    {
        return static_cast<size_t>(q) < t2PerQubit.size()
                   ? t2PerQubit[static_cast<size_t>(q)]
                   : t2;
    }
    double p0For(int a, int b) const;
};

/**
 * Exact density-matrix evaluation of a timed program under the noise
 * model (practical to ~10 qubits): gates in start order, per-2Q-gate
 * depolarizing scaled by the instruction duration, idle decoherence
 * on every in-window wait. Returns the computational-basis
 * distribution over the program's wires.
 */
std::vector<double>
simulateTimed(const Program &p, const NoiseModel &noise);

/**
 * Closed-form fidelity proxy for schedule comparison at any size:
 * the product of per-instruction success factors
 *   prod_{2Q gates} (1 - p0 * dur / tau0)
 *   * prod_{idle windows} exp(-dt/T1) * exp(-dt/T2).
 * An upper-bound-flavoured estimate (errors are assumed never to
 * cancel); its value is in ranking schedules of the same circuit,
 * where the gate factors are identical and only the idle product
 * differs.
 */
double analyticFidelity(const Program &p, const NoiseModel &noise);

} // namespace reqisc::isa

#endif // REQISC_ISA_FIDELITY_HH
