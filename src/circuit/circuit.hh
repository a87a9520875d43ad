/**
 * @file
 * Circuit container and the metrics the paper's evaluation reports.
 *
 * A Circuit is an ordered gate list on a fixed-size qubit register —
 * deliberately flat; structural views (dependency DAG, 3Q partitions)
 * are built on demand by dag.hh and the compiler passes. Member
 * metrics (#2Q, Depth2Q, duration under a pluggable per-gate model,
 * distinct-SU(4) count) are the quantities Tables 1/2 and Figs 12-16
 * track. Durations are in 1/g units; qubit indices are
 * register-global, 0-based.
 */

#ifndef REQISC_CIRCUIT_CIRCUIT_HH
#define REQISC_CIRCUIT_CIRCUIT_HH

#include <functional>
#include <string>
#include <vector>

#include "circuit/gate.hh"

namespace reqisc::circuit
{

/**
 * The SU(4)-class tolerance of Section 6.5 (WeylCoord::approxEqual):
 * the distinct count, the calibration plan and the pulse cache's
 * lookup all cluster at it.
 */
inline constexpr double kSU4ClassTol = 1e-6;

/** One distinct SU(4) class: its first gate's coordinate and uses. */
struct SU4Class
{
    weyl::WeylCoord coord;
    int uses = 0;
};

/** An ordered list of gates on a fixed-size qubit register. */
class Circuit
{
  public:
    Circuit() : numQubits_(0) {}
    explicit Circuit(int num_qubits) : numQubits_(num_qubits) {}

    int numQubits() const { return numQubits_; }
    size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    const Gate &operator[](size_t i) const { return gates_[i]; }
    Gate &operator[](size_t i) { return gates_[i]; }

    const std::vector<Gate> &gates() const { return gates_; }
    std::vector<Gate> &gates() { return gates_; }

    auto begin() const { return gates_.begin(); }
    auto end() const { return gates_.end(); }

    /** Append a gate (checked by gateError in debug builds). */
    void add(Gate g);

    /** Append all gates of another circuit. */
    void append(const Circuit &other);

    /** Number of gates acting on >= 2 qubits. */
    int count2Q() const;

    /** Number of gates matching the given op. */
    int countOp(Op op) const;

    /**
     * Two-qubit depth: longest chain of multi-qubit gates, computed
     * with per-qubit frontiers (one-qubit gates are free).
     */
    int depth2Q() const;

    /**
     * The distinct SU(4) classes of the 2Q gates, in first-seen
     * order: a gate joins the first class whose first gate's Weyl
     * coordinate is within `tol` of its own, or opens a new one.
     */
    std::vector<SU4Class> su4Classes(double tol = kSU4ClassTol) const;

    /** The paper's calibration-overhead metric (Fig 13). */
    int countDistinctSU4() const
    {
        return static_cast<int>(su4Classes().size());
    }

    /** Pretty multi-line dump (one gate per line, QASM-like). */
    std::string toString() const;

  private:
    int numQubits_;
    std::vector<Gate> gates_;
};

/**
 * Critical-path duration of the circuit given a per-gate duration
 * model. One-qubit gates cost 0 (the paper's convention); each
 * multi-qubit gate's cost comes from the callback.
 */
double criticalPathDuration(
    const Circuit &c,
    const std::function<double(const Gate &)> &gate_duration);

} // namespace reqisc::circuit

#endif // REQISC_CIRCUIT_CIRCUIT_HH
