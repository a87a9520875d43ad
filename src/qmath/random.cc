#include "qmath/random.hh"

#include <cmath>

namespace reqisc::qmath
{

Matrix
randomGinibre(int n, Rng &rng)
{
    std::normal_distribution<double> g(0.0, 1.0);
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            // Imaginary part first: the order every pinned artifact
            // was drawn in, kept explicit so no compiler can pick
            // another (tools/check_rng_draws.py).
            const double im = g(rng);
            const double re = g(rng);
            m(i, j) = Complex(re, im);
        }
    }
    return m;
}

Matrix
randomUnitary(int n, Rng &rng)
{
    Matrix a = randomGinibre(n, rng);
    // Modified Gram-Schmidt QR; repeated once for orthogonality at
    // machine precision.
    Matrix q(n, n);
    for (int pass = 0; pass < 1; ++pass) {
        for (int j = 0; j < n; ++j) {
            // Copy column j.
            for (int i = 0; i < n; ++i)
                q(i, j) = a(i, j);
            for (int rep = 0; rep < 2; ++rep) {
                for (int k = 0; k < j; ++k) {
                    Complex proj(0.0, 0.0);
                    for (int i = 0; i < n; ++i)
                        proj += std::conj(q(i, k)) * q(i, j);
                    for (int i = 0; i < n; ++i)
                        q(i, j) -= proj * q(i, k);
                }
            }
            double nrm = 0.0;
            for (int i = 0; i < n; ++i)
                nrm += std::norm(q(i, j));
            nrm = std::sqrt(nrm);
            // Haar phase fix: divide by the phase of the R diagonal,
            // i.e. the inner product of q_j with a_j.
            Complex rjj(0.0, 0.0);
            for (int i = 0; i < n; ++i)
                rjj += std::conj(q(i, j)) * a(i, j);
            Complex phase = (std::abs(rjj) > 1e-300)
                ? rjj / std::abs(rjj) : Complex(1.0, 0.0);
            for (int i = 0; i < n; ++i)
                q(i, j) = q(i, j) / nrm * phase;
        }
    }
    return q;
}

Matrix
randomHermitian(int n, Rng &rng)
{
    Matrix g = randomGinibre(n, rng);
    return (g + g.dagger()) * Complex(0.5, 0.0);
}

Matrix
randomSU2(Rng &rng)
{
    Matrix u = randomUnitary(2, rng);
    // Normalize determinant to +1.
    Complex det = u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0);
    Complex fix = std::exp(Complex(0.0, -0.5 * std::arg(det)));
    return u * fix;
}

} // namespace reqisc::qmath
