#include "weyl/weyl.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <sstream>

#include "obs/metrics.hh"
#include "qmath/eig.hh"

namespace reqisc::weyl
{

const MagicSigns &
magicSigns()
{
    static const MagicSigns signs = [] {
        MagicSigns s;
        const Matrix &m = magicBasis();
        const Matrix dx = m.dagger() * qmath::pauliXX() * m;
        const Matrix dy = m.dagger() * qmath::pauliYY() * m;
        const Matrix dz = m.dagger() * qmath::pauliZZ() * m;
        for (int i = 0; i < 4; ++i) {
            s.xx[i] = dx(i, i).real();
            s.yy[i] = dy(i, i).real();
            s.zz[i] = dz(i, i).real();
        }
        return s;
    }();
    return signs;
}

const Matrix &
vGate()
{
    static const Matrix v = [] {
        const double r = 1.0 / std::sqrt(2.0);
        return Matrix{{Complex(r, 0), Complex(0, -r)},
                      {Complex(0, -r), Complex(r, 0)}};
    }();
    return v;
}

namespace
{

constexpr double kPi = std::numbers::pi;
constexpr double kPi2 = kPi / 2.0;
constexpr double kPi4 = kPi / 4.0;

using qmath::kI;

const Matrix &
sGate()
{
    static const Matrix s{{1.0, 0.0}, {0.0, kI}};
    return s;
}

const Matrix &
hGate()
{
    static const Matrix h = [] {
        const double r = 1.0 / std::sqrt(2.0);
        return Matrix{{r, r}, {r, -r}};
    }();
    return h;
}

/**
 * In-place canonicalization moves. Each move rewrites
 *   phase * (a1 (x) a2) * Can(c) * (b1 (x) b2)
 * into an equal product with transformed coordinates.
 */
struct Factors
{
    Complex phase;
    Matrix a1, a2, b1, b2;
    WeylCoord c;
};

double &
axisRef(WeylCoord &c, int axis)
{
    return axis == 0 ? c.x : (axis == 1 ? c.y : c.z);
}

/** Shift coordinate 'axis' by -k*pi/2 (translation move). */
void
moveTranslate(Factors &f, int axis, int k)
{
    if (k == 0)
        return;
    axisRef(f.c, axis) -= k * kPi2;
    // Can(c) = Can(c') * (-i P)^k with P = XX/YY/ZZ; fold the Pauli
    // into the right factors and the phase globally.
    const Matrix &p = axis == 0 ? qmath::pauliX()
                    : axis == 1 ? qmath::pauliY() : qmath::pauliZ();
    int km = ((k % 4) + 4) % 4;
    static const Complex iPow[4] = {Complex(1, 0), Complex(0, -1),
                                    Complex(-1, 0), Complex(0, 1)};
    f.phase *= iPow[km];
    if (km % 2 == 1) {
        f.b1 = p * f.b1;
        f.b2 = p * f.b2;
    }
}

/** Flip the signs of two coordinates (axis pair identified by the
 *  remaining fixed axis). */
void
moveFlip(Factors &f, int fixed_axis)
{
    // Conjugating by (P (x) I) with P the Pauli of the fixed axis
    // flips the signs of the other two coordinates.
    const Matrix &p = fixed_axis == 0 ? qmath::pauliX()
                    : fixed_axis == 1 ? qmath::pauliY()
                    : qmath::pauliZ();
    for (int axis = 0; axis < 3; ++axis)
        if (axis != fixed_axis)
            axisRef(f.c, axis) = -axisRef(f.c, axis);
    f.a1 = f.a1 * p;
    f.b1 = p * f.b1;
}

/** Swap two coordinates via a symmetric local Clifford. */
void
moveSwap(Factors &f, int axis_a, int axis_b)
{
    if (axis_a > axis_b)
        std::swap(axis_a, axis_b);
    const Matrix *k = nullptr;
    if (axis_a == 0 && axis_b == 1)
        k = &sGate();          // swaps x <-> y
    else if (axis_a == 1 && axis_b == 2)
        k = &vGate();          // swaps y <-> z
    else
        k = &hGate();          // swaps x <-> z
    std::swap(axisRef(f.c, axis_a), axisRef(f.c, axis_b));
    // Can(c) = K^dagger Can(c') K with K = k (x) k.
    f.a1 = f.a1 * k->dagger();
    f.a2 = f.a2 * k->dagger();
    f.b1 = (*k) * f.b1;
    f.b2 = (*k) * f.b2;
}

/**
 * Normalize a 2x2 factor to determinant one.
 * @return the removed scalar r such that input = r * output.
 */
Complex
fixDeterminant(Matrix &m)
{
    const Complex det = m(0, 0) * m(1, 1) - m(0, 1) * m(1, 0);
    const Complex root = std::exp(Complex(0.0, 0.5 * std::arg(det))) *
                         std::sqrt(std::abs(det));
    if (std::abs(root) < 1e-300)
        return {1.0, 0.0};
    m *= Complex(1.0, 0.0) / root;
    return root;
}

/** Canonicalize the coordinates of f into the Weyl chamber. */
void
canonicalize(Factors &f)
{
    const double tol = 1e-12;
    // 1. Centered reduction of every coordinate into [-pi/4, pi/4].
    for (int axis = 0; axis < 3; ++axis) {
        const double v = axisRef(f.c, axis);
        const int k = static_cast<int>(std::lround(v / kPi2));
        moveTranslate(f, axis, k);
    }
    // 2. At most one negative coordinate (pairwise sign flips).
    auto negatives = [&]() {
        int count = 0;
        for (int axis = 0; axis < 3; ++axis)
            if (axisRef(f.c, axis) < -tol)
                ++count;
        return count;
    };
    while (negatives() >= 2) {
        int first = -1, second = -1;
        for (int axis = 0; axis < 3; ++axis) {
            if (axisRef(f.c, axis) < -tol) {
                if (first < 0)
                    first = axis;
                else if (second < 0)
                    second = axis;
            }
        }
        // The move flips the two non-fixed axes.
        moveFlip(f, 3 - first - second);
    }
    // 3. Sort by magnitude descending (bubble with swap moves).
    for (int pass = 0; pass < 3; ++pass)
        for (int axis = 0; axis < 2; ++axis)
            if (std::abs(axisRef(f.c, axis)) + tol <
                std::abs(axisRef(f.c, axis + 1)))
                moveSwap(f, axis, axis + 1);
    // 4. Push the (single) negative sign into z.
    if (f.c.x < -tol)
        moveFlip(f, 2);    // flips x and y
    if (f.c.y < -tol)
        moveFlip(f, 0);    // flips y and z
    // A boundary |z| == y case may reintroduce y < 0; prefer z < 0.
    if (f.c.y < -tol)
        moveFlip(f, 0);
    // 5. The x = pi/4 face identifies (pi/4, y, z) ~ (pi/4, y, -z):
    //    enforce z >= 0 there via flip(x,z) + translate.
    if (std::abs(f.c.x - kPi4) < 1e-9 && f.c.z < -tol) {
        moveFlip(f, 1);            // (x,z) -> (-x,-z)
        moveTranslate(f, 0, -1);   // -x -> -x + pi/2 = pi/2 - x
        // x unchanged (= pi/4), z now positive; re-sort y vs z if the
        // flip broke the ordering (cannot happen: |z| <= y).
    }
    // 6. Snap tiny numerical dust so boundary checks are stable.
    for (int axis = 0; axis < 3; ++axis) {
        double &v = axisRef(f.c, axis);
        if (std::abs(v) < 1e-14)
            v = 0.0;
    }
}

} // namespace

bool
WeylCoord::inChamber(double tol) const
{
    if (!(x <= kPi4 + tol && x >= y - tol && y >= std::abs(z) - tol &&
          y >= -tol))
        return false;
    if (std::abs(x - kPi4) < tol && z < -tol)
        return false;
    return true;
}

double
WeylCoord::distance(const WeylCoord &o) const
{
    const double dx = x - o.x, dy = y - o.y, dz = z - o.z;
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

bool
WeylCoord::approxEqual(const WeylCoord &o, double tol) const
{
    return distance(o) <= tol;
}

std::string
WeylCoord::toString() const
{
    std::ostringstream os;
    os.precision(6);
    os << "(" << x << ", " << y << ", " << z << ")";
    return os.str();
}

WeylCoord WeylCoord::cnot() { return {kPi4, 0.0, 0.0}; }
WeylCoord WeylCoord::iswap() { return {kPi4, kPi4, 0.0}; }
WeylCoord WeylCoord::swap() { return {kPi4, kPi4, kPi4}; }
WeylCoord WeylCoord::sqisw() { return {kPi / 8.0, kPi / 8.0, 0.0}; }
WeylCoord WeylCoord::bgate() { return {kPi4, kPi / 8.0, 0.0}; }
WeylCoord WeylCoord::cv() { return {kPi / 8.0, 0.0, 0.0}; }

Matrix
canonicalGate(const WeylCoord &c)
{
    // Closed form in the computational basis: the generator splits
    // into the {|00>,|11>} block (x - y) and the {|01>,|10>} block
    // (x + y), with ZZ contributing the phases exp(-+ i z).
    Matrix u(4, 4);
    const Complex em = std::exp(Complex(0.0, -c.z));
    const Complex ep = std::exp(Complex(0.0, c.z));
    const double m = c.x - c.y;
    const double p = c.x + c.y;
    u(0, 0) = em * std::cos(m);
    u(0, 3) = em * Complex(0.0, -1.0) * std::sin(m);
    u(3, 0) = u(0, 3);
    u(3, 3) = u(0, 0);
    u(1, 1) = ep * std::cos(p);
    u(1, 2) = ep * Complex(0.0, -1.0) * std::sin(p);
    u(2, 1) = u(1, 2);
    u(2, 2) = u(1, 1);
    return u;
}

const Matrix &
magicBasis()
{
    static const Matrix m = [] {
        const double r = 1.0 / std::sqrt(2.0);
        Matrix mm(4, 4);
        mm(0, 0) = r;       mm(0, 3) = r * kI;
        mm(1, 1) = r * kI;  mm(1, 2) = r;
        mm(2, 1) = r * kI;  mm(2, 2) = -r;
        mm(3, 0) = r;       mm(3, 3) = -r * kI;
        return mm;
    }();
    return m;
}

Matrix
KakDecomposition::reconstruct() const
{
    return kron(a1, a2) * canonicalGate(coord) * kron(b1, b2) * phase;
}

KakDecomposition
kakDecompose(const Matrix &u)
{
    assert(u.rows() == 4 && u.cols() == 4);
    // Optimizer objectives decompose thousands of times per solve,
    // so the count stays out of the flight recorder's rings.
    static obs::Counter *const calls = obs::Registry::global().counter(
        "reqisc_kak_decompositions_total", "KAK decompositions",
        obs::FlightEvents::Skip);
    calls->inc();

    // Normalize into SU(4), remembering the removed phase.
    const Complex det = qmath::determinant(u);
    const Complex phase0 =
        std::exp(Complex(0.0, std::arg(det) / 4.0)) *
        std::pow(std::abs(det), 0.25);
    Matrix su = u * (Complex(1.0, 0.0) / phase0);

    const Matrix &m = magicBasis();
    const Matrix up = m.dagger() * su * m;
    const Matrix m2 = up.transpose() * up;

    // Split into commuting real symmetric parts and diagonalize.
    Matrix re(4, 4), im(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            re(i, j) = Complex(m2(i, j).real(), 0.0);
            im(i, j) = Complex(m2(i, j).imag(), 0.0);
        }
    const Matrix q = qmath::simultaneousDiagonalize(re, im);

    // Eigenphases theta_k with Delta^2 = D = q^T m2 q.
    const Matrix d = q.transpose() * m2 * q;
    std::array<double, 4> theta;
    for (int i = 0; i < 4; ++i)
        theta[i] = 0.5 * std::arg(d(i, i));

    // Make det(Delta) real positive so O1 lands in SO(4).
    Matrix delta_inv(4, 4);
    auto buildDeltaInv = [&]() {
        for (int i = 0; i < 4; ++i)
            delta_inv(i, i) = std::exp(Complex(0.0, -theta[i]));
    };
    buildDeltaInv();
    Matrix o1 = up * q * delta_inv;
    if (qmath::determinant(o1).real() < 0.0) {
        theta[0] -= kPi;
        buildDeltaInv();
        o1 = up * q * delta_inv;
    }

    // Raw coordinates from the eigenphases via the magic-basis signs.
    const MagicSigns &sg = magicSigns();
    WeylCoord raw;
    for (int i = 0; i < 4; ++i) {
        raw.x += -0.25 * theta[i] * sg.xx[i];
        raw.y += -0.25 * theta[i] * sg.yy[i];
        raw.z += -0.25 * theta[i] * sg.zz[i];
    }
    // Residual uniform component of theta is a global phase.
    double uniform = 0.0;
    for (int i = 0; i < 4; ++i)
        uniform += 0.25 * (theta[i] +
                           raw.x * sg.xx[i] + raw.y * sg.yy[i] +
                           raw.z * sg.zz[i]);

    // Back to the computational basis.
    const Matrix left = m * o1 * m.dagger();
    const Matrix right = m * q.transpose() * m.dagger();

    Factors f;
    f.c = raw;
    f.phase = phase0 * std::exp(Complex(0.0, uniform));

    Matrix a1, a2, b1, b2;
    double res_a = qmath::kronFactor2x2(left, a1, a2);
    double res_b = qmath::kronFactor2x2(right, b1, b2);
    (void)res_a;
    (void)res_b;
    // Normalize factors into SU(2) and fold phases out.
    const Complex pa = fixDeterminant(a1) * fixDeterminant(a2);
    const Complex pb = fixDeterminant(b1) * fixDeterminant(b2);
    // pa/pb track determinant magnitudes; recover the exact residual
    // phases by direct comparison (robust against factor scaling).
    (void)pa;
    (void)pb;
    auto residualPhase = [](const Matrix &prod, const Matrix &target) {
        // target = phase * prod with prod, target unitary.
        Complex acc(0.0, 0.0);
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                acc += std::conj(prod(i, j)) * target(i, j);
        return acc / std::abs(acc);
    };
    f.phase *= residualPhase(kron(a1, a2), left);
    f.phase *= residualPhase(kron(b1, b2), right);
    f.a1 = a1;
    f.a2 = a2;
    f.b1 = b1;
    f.b2 = b2;

    canonicalize(f);

    // Re-normalize the factors into SU(2) after the moves (Pauli and
    // Clifford multiplications can change determinants by phases).
    auto renorm = [&](Matrix &first, Matrix &second) {
        const Complex d1 = qmath::determinant(first);
        const Complex d2 = qmath::determinant(second);
        const Complex r1 = std::exp(Complex(0.0, 0.5 * std::arg(d1)));
        const Complex r2 = std::exp(Complex(0.0, 0.5 * std::arg(d2)));
        first *= Complex(1.0, 0.0) / r1;
        second *= Complex(1.0, 0.0) / r2;
        f.phase *= r1 * r2;
    };
    renorm(f.a1, f.a2);
    renorm(f.b1, f.b2);

    KakDecomposition out;
    out.phase = f.phase;
    out.a1 = f.a1;
    out.a2 = f.a2;
    out.b1 = f.b1;
    out.b2 = f.b2;
    out.coord = f.c;
    return out;
}

WeylCoord
weylCoordinate(const Matrix &u)
{
    return kakDecompose(u).coord;
}

bool
locallyEquivalent(const Matrix &u, const Matrix &v, double tol)
{
    return weylCoordinate(u).approxEqual(weylCoordinate(v), tol);
}

WeylCoord
mirrorCoord(const WeylCoord &c)
{
    WeylCoord m;
    if (c.z >= 0.0)
        m = {kPi4 - c.z, kPi4 - c.y, c.x - kPi4};
    else
        m = {kPi4 + c.z, kPi4 - c.y, kPi4 - c.x};
    // On the x = pi/4 face, (pi/4, y, z) ~ (pi/4, y, -z); keep the
    // canonical z >= 0 representative.
    if (std::abs(m.x - kPi4) < 1e-12 && m.z < 0.0)
        m.z = -m.z;
    return m;
}

WeylCoord
randomWeylCoord(qmath::Rng &rng)
{
    return weylCoordinate(qmath::randomUnitary(4, rng));
}

} // namespace reqisc::weyl
