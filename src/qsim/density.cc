#include "qsim/density.hh"

#include <algorithm>
#include <cmath>

namespace reqisc::qsim
{

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits),
      rho_((static_cast<size_t>(1) << num_qubits) *
           (static_cast<size_t>(1) << num_qubits), Complex(0.0, 0.0))
{
    rho_[0] = 1.0;
}

void
DensityMatrix::applyMatrix(const std::vector<int> &qubits,
                           const Matrix &m)
{
    const int k = static_cast<int>(qubits.size());
    const int sub = 1 << k;
    const size_t d = dim();
    std::vector<int> shift(k);
    for (int i = 0; i < k; ++i)
        shift[i] = numQubits_ - 1 - qubits[i];
    size_t mask = 0;
    for (int i = 0; i < k; ++i)
        mask |= (static_cast<size_t>(1) << shift[i]);
    std::vector<size_t> offs(sub);
    for (int s = 0; s < sub; ++s) {
        size_t o = 0;
        for (int i = 0; i < k; ++i)
            if (s & (1 << (k - 1 - i)))
                o |= (static_cast<size_t>(1) << shift[i]);
        offs[s] = o;
    }
    std::vector<Complex> buf(sub);
    // Left multiply: rows.
    for (size_t base = 0; base < d; ++base) {
        if (base & mask)
            continue;
        for (size_t col = 0; col < d; ++col) {
            for (int s = 0; s < sub; ++s)
                buf[s] = rho_[index(base | offs[s], col)];
            for (int r = 0; r < sub; ++r) {
                Complex acc(0.0, 0.0);
                for (int s = 0; s < sub; ++s)
                    acc += m(r, s) * buf[s];
                rho_[index(base | offs[r], col)] = acc;
            }
        }
    }
    // Right multiply by m^dagger: columns.
    for (size_t base = 0; base < d; ++base) {
        if (base & mask)
            continue;
        for (size_t row = 0; row < d; ++row) {
            for (int s = 0; s < sub; ++s)
                buf[s] = rho_[index(row, base | offs[s])];
            for (int r = 0; r < sub; ++r) {
                Complex acc(0.0, 0.0);
                for (int s = 0; s < sub; ++s)
                    acc += buf[s] * std::conj(m(r, s));
                rho_[index(row, base | offs[r])] = acc;
            }
        }
    }
}

void
DensityMatrix::applyGate(const circuit::Gate &g)
{
    applyMatrix(g.qubits, g.matrix());
}

void
DensityMatrix::depolarize(const std::vector<int> &qubits, double p)
{
    if (p <= 0.0)
        return;
    const int k = static_cast<int>(qubits.size());
    const int sub = 1 << k;
    const size_t d = dim();
    std::vector<int> shift(k);
    for (int i = 0; i < k; ++i)
        shift[i] = numQubits_ - 1 - qubits[i];
    size_t mask = 0;
    for (int i = 0; i < k; ++i)
        mask |= (static_cast<size_t>(1) << shift[i]);
    std::vector<size_t> offs(sub);
    for (int s = 0; s < sub; ++s) {
        size_t o = 0;
        for (int i = 0; i < k; ++i)
            if (s & (1 << (k - 1 - i)))
                o |= (static_cast<size_t>(1) << shift[i]);
        offs[s] = o;
    }
    // rho -> (1-p) rho + p * I/sub (x) Tr_sub(rho).
    for (size_t rbase = 0; rbase < d; ++rbase) {
        if (rbase & mask)
            continue;
        for (size_t cbase = 0; cbase < d; ++cbase) {
            if (cbase & mask)
                continue;
            // Partial trace element over the subset.
            Complex tr(0.0, 0.0);
            for (int s = 0; s < sub; ++s)
                tr += rho_[index(rbase | offs[s], cbase | offs[s])];
            for (int r = 0; r < sub; ++r)
                for (int s = 0; s < sub; ++s) {
                    Complex &e =
                        rho_[index(rbase | offs[r], cbase | offs[s])];
                    e *= (1.0 - p);
                    if (r == s)
                        e += p * tr / static_cast<double>(sub);
                }
        }
    }
}

void
DensityMatrix::applyKraus(const std::vector<int> &qubits,
                          const std::vector<Matrix> &kraus)
{
    const std::vector<Complex> original = rho_;
    std::vector<Complex> acc(rho_.size(), Complex(0.0, 0.0));
    for (const Matrix &k : kraus) {
        rho_ = original;
        applyMatrix(qubits, k);  // linear, so valid for non-unitary k
        for (size_t i = 0; i < rho_.size(); ++i)
            acc[i] += rho_[i];
    }
    rho_ = std::move(acc);
}

void
DensityMatrix::amplitudeDamp(int qubit, double gamma)
{
    if (gamma <= 0.0)
        return;
    Matrix k0(2, 2), k1(2, 2);
    k0(0, 0) = 1.0;
    k0(1, 1) = std::sqrt(1.0 - gamma);
    k1(0, 1) = std::sqrt(gamma);
    applyKraus({qubit}, {k0, k1});
}

void
DensityMatrix::phaseDamp(int qubit, double lambda)
{
    if (lambda <= 0.0)
        return;
    Matrix k0(2, 2), k1(2, 2);
    k0(0, 0) = 1.0;
    k0(1, 1) = std::sqrt(1.0 - lambda);
    k1(1, 1) = std::sqrt(lambda);
    applyKraus({qubit}, {k0, k1});
}

std::vector<double>
DensityMatrix::probabilities() const
{
    const size_t d = dim();
    std::vector<double> p(d);
    for (size_t i = 0; i < d; ++i)
        p[i] = rho_[index(i, i)].real();
    return p;
}

double
DensityMatrix::traceReal() const
{
    const size_t d = dim();
    double t = 0.0;
    for (size_t i = 0; i < d; ++i)
        t += rho_[index(i, i)].real();
    return t;
}

std::vector<double>
simulateNoisy(
    const circuit::Circuit &c,
    const std::function<double(const circuit::Gate &)> &gate_duration,
    double p0, double tau0)
{
    DensityMatrix rho(c.numQubits());
    for (const auto &g : c) {
        rho.applyGate(g);
        if (g.numQubits() >= 2) {
            const double p =
                std::min(1.0, p0 * gate_duration(g) / tau0);
            rho.depolarize(g.qubits, p);
        }
    }
    return rho.probabilities();
}

} // namespace reqisc::qsim
