#include "isa/fidelity.hh"

#include <algorithm>
#include <cmath>

#include "qsim/density.hh"

namespace reqisc::isa
{

namespace
{

/** Idle gaps shorter than this are scheduling noise, not waiting. */
constexpr double kIdleEps = 1e-12;

/** Decay probability 1 - exp(-dt/T), with T = infinity -> 0. */
double
decayProbability(double dt, double t)
{
    if (!std::isfinite(t) || t <= 0.0)
        return 0.0;
    return 1.0 - std::exp(-dt / t);
}

/** Instructions in execution (start) order. */
std::vector<const Instruction *>
executionOrder(const Program &p)
{
    std::vector<const Instruction *> order;
    order.reserve(p.size());
    for (const Instruction &i : p.instructions())
        order.push_back(&i);
    std::stable_sort(order.begin(), order.end(),
                     [](const Instruction *a, const Instruction *b) {
                         return a->start < b->start;
                     });
    return order;
}

} // namespace

double
NoiseModel::p0For(int a, int b) const
{
    if (!p0PerEdge.empty()) {
        const auto it = p0PerEdge.find(
            std::pair<int, int>(std::minmax(a, b)));
        if (it != p0PerEdge.end())
            return it->second;
    }
    return p0;
}

std::vector<double>
simulateTimed(const Program &p, const NoiseModel &noise)
{
    qsim::DensityMatrix rho(p.numQubits());
    // -1 marks a qubit not used yet: it sits in |0>, which both idle
    // channels fix, so its wait before the first instruction is free.
    std::vector<double> lastEnd(p.numQubits(), -1.0);
    for (const Instruction *i : executionOrder(p)) {
        for (int q : i->qubits()) {
            if (lastEnd[q] >= 0.0) {
                const double dt = i->start - lastEnd[q];
                if (dt > kIdleEps) {
                    rho.amplitudeDamp(
                        q, decayProbability(dt, noise.t1For(q)));
                    rho.phaseDamp(
                        q, decayProbability(dt, noise.t2For(q)));
                }
            }
            lastEnd[q] = std::max(lastEnd[q], i->end());
        }
        if (i->kind == Instruction::Kind::Gate) {
            rho.applyGate(i->gate);
            if (i->gate.numQubits() >= 2) {
                const double p0 = noise.p0For(i->gate.qubits[0],
                                              i->gate.qubits[1]);
                const double perr = std::min(
                    1.0, p0 * i->duration / noise.tau0);
                rho.depolarize(i->gate.qubits, perr);
            }
        }
        // Measure: ideal readout; it still occupies the qubit (its
        // duration extends lastEnd) and collects idle noise before
        // it starts.
    }
    return rho.probabilities();
}

double
analyticFidelity(const Program &p, const NoiseModel &noise)
{
    double f = 1.0;
    std::vector<double> lastEnd(p.numQubits(), -1.0);
    for (const Instruction *i : executionOrder(p)) {
        for (int q : i->qubits()) {
            if (lastEnd[q] >= 0.0) {
                const double dt = i->start - lastEnd[q];
                if (dt > kIdleEps)
                    f *= (1.0 -
                          decayProbability(dt, noise.t1For(q))) *
                         (1.0 -
                          decayProbability(dt, noise.t2For(q)));
            }
            lastEnd[q] = std::max(lastEnd[q], i->end());
        }
        if (i->kind == Instruction::Kind::Gate &&
            i->gate.numQubits() >= 2)
            f *= 1.0 - std::min(1.0, noise.p0For(i->gate.qubits[0],
                                                 i->gate.qubits[1]) *
                                         i->duration / noise.tau0);
    }
    return f;
}

} // namespace reqisc::isa
