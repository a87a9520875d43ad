/**
 * @file
 * Concrete-chip hardware description: the "R" in RQISA.
 *
 * A Backend is one calibrated device — a connectivity graph whose
 * edges each carry their *own* canonical coupling (a, b, c) and 2Q
 * error rate, and whose qubits each carry their own T1/T2/readout
 * calibration. It is the single hardware source of truth the whole
 * stack consumes:
 *  - route: `topology()` (the SABRE metric),
 *  - isa: `durationModel()` (per-edge genAshN durations) and
 *    `noiseModel()` (per-qubit decoherence, per-edge 2Q error),
 *  - backend/reconfigure.hh: the per-edge native-gate selection loop,
 *  - service + reqisc-compile: `--backend <chip.json>`.
 *
 * Chip files are JSON (schema in docs/ARCHITECTURE.md, examples under
 * examples/chips/). Units follow the repo convention: couplings are
 * canonical coefficients in the reference strength scale (g_ref = 1),
 * all times (T1/T2, durations) are in 1/g_ref units, and `p0` is the
 * 2Q depolarizing rate at the reference duration
 * uarch::conventionalCnotDuration(). Validation is strict and every
 * rejection names the file, line and field (tests/test_backend.cc).
 */

#ifndef REQISC_BACKEND_BACKEND_HH
#define REQISC_BACKEND_BACKEND_HH

#include <limits>
#include <string>
#include <vector>

#include "isa/duration_model.hh"
#include "isa/fidelity.hh"
#include "route/topology.hh"
#include "uarch/coupling.hh"

namespace reqisc::backend
{

/** Per-qubit calibration data. */
struct QubitCalibration
{
    /** Energy-relaxation time, 1/g_ref units; infinity = ideal. */
    double t1 = std::numeric_limits<double>::infinity();
    /** Dephasing time, 1/g_ref units; infinity = ideal. */
    double t2 = std::numeric_limits<double>::infinity();
    /** Readout (measurement) error probability in [0, 1). */
    double readoutError = 0.0;

    /**
     * Combined decoherence rate 0.5 * (1/T1 + 1/T2): the per-unit-
     * time log-fidelity loss the analytic estimators charge while the
     * qubit is exposed (idling mid-circuit or being driven).
     */
    double decayRate() const;
};

/** Per-edge (qubit-pair) calibration data. */
struct EdgeProperties
{
    int a = 0;  //!< endpoint, a < b after normalization
    int b = 1;  //!< endpoint
    /** This edge's canonical coupling Hamiltonian coefficients. */
    uarch::Coupling coupling = uarch::Coupling::xy(1.0);
    /** 2Q depolarizing rate at the reference duration tau0. */
    double p0 = 1e-3;
};

/** One concrete chip: topology + per-edge / per-qubit calibration. */
class Backend
{
  public:
    Backend() = default;

    /**
     * Homogeneous chip: every edge of `topo` gets `cpl` / `p0`,
     * every qubit gets `qubit`. This is the pre-backend repo default
     * expressed as a Backend (bench/common uses it).
     */
    static Backend uniform(const route::Topology &topo,
                           const uarch::Coupling &cpl =
                               uarch::Coupling::xy(1.0),
                           const QubitCalibration &qubit = {},
                           double p0 = 1e-3);

    /**
     * Parse and validate a chip description. `context` prefixes
     * error messages (pass the file name). Throws JsonError with
     * "<context>:<line>: ..." on malformed JSON or any schema
     * violation: missing/mistyped fields, qubit indices out of
     * range, self-loop or duplicate edges, non-positive T1/T2 or
     * coupling strength, non-canonical coupling, p0/readoutError
     * outside [0, 1), or a disconnected topology.
     */
    static Backend fromJson(const std::string &text,
                            const std::string &context = "<json>");

    /** fromJson on a file's contents; context = path. */
    static Backend fromJsonFile(const std::string &path);

    const std::string &name() const { return name_; }
    int numQubits() const
    {
        return static_cast<int>(qubits_.size());
    }
    const std::vector<QubitCalibration> &qubits() const
    {
        return qubits_;
    }
    const QubitCalibration &qubit(int q) const
    {
        return qubits_[static_cast<size_t>(q)];
    }
    const std::vector<EdgeProperties> &edges() const
    {
        return edges_;
    }

    bool hasEdge(int a, int b) const;
    /** Throws std::invalid_argument when (a, b) is not an edge. */
    const EdgeProperties &edge(int a, int b) const;

    /** Connectivity graph (built once at construction). */
    const route::Topology &topology() const { return topo_; }

    /**
     * True when every edge has the same coupling and p0 and every
     * qubit the same calibration, to 1e-12 (the reconfiguration loop
     * then degenerates to one choice chip-wide).
     */
    bool isHomogeneous() const;

    /**
     * Scheduler duration model: per-edge couplings installed in
     * isa::DurationModel::edgeCoupling, with the strongest edge as
     * the fallback coupling.
     */
    isa::DurationModel durationModel() const;

    /**
     * Timeline noise model: per-qubit T1/T2 vectors and per-edge p0
     * installed over the isa::NoiseModel defaults.
     */
    isa::NoiseModel noiseModel() const;

  private:
    Backend(std::string name, std::vector<QubitCalibration> qubits,
            std::vector<EdgeProperties> edges);

    std::string name_;
    std::vector<QubitCalibration> qubits_;
    std::vector<EdgeProperties> edges_;
    route::Topology topo_ = route::Topology::chain(1);
};

/**
 * The one coupling of the device a job targets (`chip`, or nullptr
 * for no chip): a homogeneous chip's edge coupling, else XY at g = 1
 * (no chip, a heterogeneous chip, or one with no edge). A job's
 * logical circuit is timed and pulse-solved on it, and the service's
 * pulse cache is bound to it; a routed circuit is timed per edge
 * instead (Backend::durationModel).
 */
uarch::Coupling targetCoupling(const Backend *chip);

} // namespace reqisc::backend

#endif // REQISC_BACKEND_BACKEND_HH
