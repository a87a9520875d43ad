/**
 * @file
 * Density-matrix simulator with depolarizing noise.
 *
 * Implements the paper's fidelity-experiment noise model (Section
 * 6.7): a depolarizing channel follows every two-qubit gate with an
 * error rate scaled proportionally to the gate's pulse duration,
 * p = p0 * tau / tau0.
 */

#ifndef REQISC_QSIM_DENSITY_HH
#define REQISC_QSIM_DENSITY_HH

#include <vector>

#include "circuit/circuit.hh"
#include "qmath/matrix.hh"

namespace reqisc::qsim
{

using qmath::Complex;
using qmath::Matrix;

/** Dense density matrix over n qubits (n <= ~11 practically). */
class DensityMatrix
{
  public:
    /** Initialize to |0..0><0..0|. */
    explicit DensityMatrix(int num_qubits);

    int numQubits() const { return numQubits_; }
    size_t dim() const { return static_cast<size_t>(1) << numQubits_; }

    /** rho -> U rho U^dagger with U a k-qubit gate matrix. */
    void applyMatrix(const std::vector<int> &qubits, const Matrix &m);

    void applyGate(const circuit::Gate &g);

    /**
     * Depolarizing channel on a qubit subset:
     * rho -> (1-p) rho + p * (I/2^k  (x)  Tr_subset rho).
     */
    void depolarize(const std::vector<int> &qubits, double p);

    /**
     * General channel rho -> sum_k K_k rho K_k^dagger on a qubit
     * subset. The caller is responsible for trace preservation
     * (sum K^dagger K = I).
     */
    void applyKraus(const std::vector<int> &qubits,
                    const std::vector<Matrix> &kraus);

    /**
     * Amplitude damping (T1-style energy relaxation) on one qubit:
     * |1> decays to |0> with probability gamma.
     */
    void amplitudeDamp(int qubit, double gamma);

    /**
     * Phase damping (T2-style dephasing) on one qubit: off-diagonal
     * coherence is scaled by sqrt(1 - lambda).
     */
    void phaseDamp(int qubit, double lambda);

    /** Diagonal of rho: computational-basis probabilities. */
    std::vector<double> probabilities() const;

    double traceReal() const;

  private:
    int numQubits_;
    /** Row-major 2^n x 2^n storage. */
    std::vector<Complex> rho_;

    size_t index(size_t r, size_t c) const { return r * dim() + c; }
};

/**
 * Simulate a circuit with a depolarizing channel of strength
 * p = p0 * duration(gate) / tau0 after every multi-qubit gate, and
 * return the final computational-basis distribution.
 *
 * @param c circuit to run
 * @param gate_duration per-gate pulse duration model
 * @param p0 base error rate at duration tau0
 * @param tau0 reference duration (conventional CNOT pulse)
 */
std::vector<double> simulateNoisy(
    const circuit::Circuit &c,
    const std::function<double(const circuit::Gate &)> &gate_duration,
    double p0, double tau0);

} // namespace reqisc::qsim

#endif // REQISC_QSIM_DENSITY_HH
