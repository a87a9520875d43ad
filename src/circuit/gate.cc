#include "circuit/gate.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "qmath/expm.hh"

namespace reqisc::circuit
{

using qmath::kI;

const char *
opName(Op op)
{
    switch (op) {
      case Op::I: return "id";
      case Op::X: return "x";
      case Op::Y: return "y";
      case Op::Z: return "z";
      case Op::H: return "h";
      case Op::S: return "s";
      case Op::Sdg: return "sdg";
      case Op::T: return "t";
      case Op::Tdg: return "tdg";
      case Op::SX: return "sx";
      case Op::RX: return "rx";
      case Op::RY: return "ry";
      case Op::RZ: return "rz";
      case Op::U3: return "u3";
      case Op::CX: return "cx";
      case Op::CY: return "cy";
      case Op::CZ: return "cz";
      case Op::SWAP: return "swap";
      case Op::ISWAP: return "iswap";
      case Op::SQISW: return "sqisw";
      case Op::B: return "b";
      case Op::CP: return "cp";
      case Op::RZZ: return "rzz";
      case Op::RXX: return "rxx";
      case Op::RYY: return "ryy";
      case Op::CAN: return "can";
      case Op::U4: return "u4";
      case Op::CCX: return "ccx";
      case Op::CCZ: return "ccz";
      case Op::CSWAP: return "cswap";
      case Op::PERES: return "peres";
      case Op::MCX: return "mcx";
    }
    return "?";
}

bool
opFromName(const std::string &name, Op &out)
{
    static const std::map<std::string, Op> table = [] {
        std::map<std::string, Op> t;
        for (int i = 0; i <= static_cast<int>(Op::MCX); ++i) {
            const Op op = static_cast<Op>(i);
            if (op != Op::U4)
                t.emplace(opName(op), op);
        }
        return t;
    }();
    const auto it = table.find(name);
    if (it == table.end())
        return false;
    out = it->second;
    return true;
}

int
opParamCount(Op op)
{
    switch (op) {
      case Op::RX: case Op::RY: case Op::RZ:
      case Op::CP: case Op::RZZ: case Op::RXX: case Op::RYY:
        return 1;
      case Op::U3: case Op::CAN:
        return 3;
      default:
        return 0;
    }
}

namespace
{

Matrix
oneQubitMatrix(Op op, const std::vector<double> &p)
{
    using qmath::pauliX;
    using qmath::pauliY;
    using qmath::pauliZ;
    const double r = 1.0 / std::sqrt(2.0);
    switch (op) {
      case Op::I: return Matrix::identity(2);
      case Op::X: return pauliX();
      case Op::Y: return pauliY();
      case Op::Z: return pauliZ();
      case Op::H: return {{r, r}, {r, -r}};
      case Op::S: return {{1.0, 0.0}, {0.0, kI}};
      case Op::Sdg: return {{1.0, 0.0}, {0.0, -kI}};
      case Op::T:
        return {{1.0, 0.0}, {0.0, std::exp(kI * (M_PI / 4.0))}};
      case Op::Tdg:
        return {{1.0, 0.0}, {0.0, std::exp(-kI * (M_PI / 4.0))}};
      case Op::SX:
        return {{Complex(0.5, 0.5), Complex(0.5, -0.5)},
                {Complex(0.5, -0.5), Complex(0.5, 0.5)}};
      case Op::RX: return qmath::expim(pauliX(), p[0] / 2.0);
      case Op::RY: return qmath::expim(pauliY(), p[0] / 2.0);
      case Op::RZ: return qmath::expim(pauliZ(), p[0] / 2.0);
      case Op::U3: {
        const double c = std::cos(p[0] / 2.0);
        const double s = std::sin(p[0] / 2.0);
        Matrix m(2, 2);
        m(0, 0) = c;
        m(0, 1) = -std::exp(kI * p[2]) * s;
        m(1, 0) = std::exp(kI * p[1]) * s;
        m(1, 1) = std::exp(kI * (p[1] + p[2])) * c;
        return m;
      }
      default:
        assert(false && "not a one-qubit op");
        return Matrix::identity(2);
    }
}

/** Embed a single-qubit unitary as controlled-u on two qubits. */
Matrix
controlled(const Matrix &u)
{
    Matrix m = Matrix::identity(4);
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            m(2 + i, 2 + j) = u(i, j);
    return m;
}

Matrix
twoQubitMatrix(const Gate &g)
{
    switch (g.op) {
      case Op::CX: return controlled(qmath::pauliX());
      case Op::CY: return controlled(qmath::pauliY());
      case Op::CZ: return controlled(qmath::pauliZ());
      case Op::SWAP: {
        Matrix m(4, 4);
        m(0, 0) = 1.0; m(1, 2) = 1.0; m(2, 1) = 1.0; m(3, 3) = 1.0;
        return m;
      }
      case Op::ISWAP: {
        Matrix m(4, 4);
        m(0, 0) = 1.0; m(1, 2) = kI; m(2, 1) = kI; m(3, 3) = 1.0;
        return m;
      }
      case Op::SQISW: {
        const double r = 1.0 / std::sqrt(2.0);
        Matrix m(4, 4);
        m(0, 0) = 1.0; m(3, 3) = 1.0;
        m(1, 1) = r; m(2, 2) = r;
        m(1, 2) = r * kI; m(2, 1) = r * kI;
        return m;
      }
      case Op::B:
        return weyl::canonicalGate(weyl::WeylCoord::bgate());
      case Op::CP: {
        Matrix m = Matrix::identity(4);
        m(3, 3) = std::exp(kI * g.params[0]);
        return m;
      }
      case Op::RZZ:
        return qmath::expim(qmath::pauliZZ(), g.params[0] / 2.0);
      case Op::RXX:
        return qmath::expim(qmath::pauliXX(), g.params[0] / 2.0);
      case Op::RYY:
        return qmath::expim(qmath::pauliYY(), g.params[0] / 2.0);
      case Op::CAN:
        return weyl::canonicalGate(
            {g.params[0], g.params[1], g.params[2]});
      case Op::U4:
        assert(g.payload);
        return g.payload->matrix();
      default:
        assert(false && "not a two-qubit op");
        return Matrix::identity(4);
    }
}

Matrix
threeQubitMatrix(const Gate &g)
{
    Matrix m = Matrix::identity(8);
    switch (g.op) {
      case Op::CCX:
        m(6, 6) = 0.0; m(7, 7) = 0.0;
        m(6, 7) = 1.0; m(7, 6) = 1.0;
        return m;
      case Op::CCZ:
        m(7, 7) = -1.0;
        return m;
      case Op::CSWAP:
        m(5, 5) = 0.0; m(6, 6) = 0.0;
        m(5, 6) = 1.0; m(6, 5) = 1.0;
        return m;
      case Op::PERES: {
        // Peres(a,b,c): CCX(a,b,c) then CX(a,b).
        Matrix ccx = Matrix::identity(8);
        ccx(6, 6) = 0.0; ccx(7, 7) = 0.0;
        ccx(6, 7) = 1.0; ccx(7, 6) = 1.0;
        Matrix cxab = kron(controlled(qmath::pauliX()),
                           Matrix::identity(2));
        return cxab * ccx;
      }
      default:
        assert(false && "not a three-qubit op");
        return m;
    }
}

} // namespace

Matrix
Gate::matrix() const
{
    if (op == Op::MCX) {
        const int n = numQubits();
        const int dim = 1 << n;
        Matrix m = Matrix::identity(dim);
        // All controls set <=> top (dim-2, dim-1) block is X.
        m(dim - 2, dim - 2) = 0.0;
        m(dim - 1, dim - 1) = 0.0;
        m(dim - 2, dim - 1) = 1.0;
        m(dim - 1, dim - 2) = 1.0;
        return m;
    }
    switch (numQubits()) {
      case 1: return oneQubitMatrix(op, params);
      case 2: return twoQubitMatrix(*this);
      case 3: return threeQubitMatrix(*this);
      default:
        assert(false && "unsupported gate arity");
        return Matrix::identity(1 << numQubits());
    }
}

namespace
{

/** A dim x dim Matrix holding the row-major entries e. */
template <std::size_t N>
Matrix
squareMatrix(const std::array<Complex, N> &e, int dim)
{
    assert(static_cast<std::size_t>(dim * dim) == N);
    Matrix m(dim, dim);
    std::copy(e.begin(), e.end(), m.data());
    return m;
}

} // namespace

// The payload replaced a shared Matrix (its inline 8x8 buffer alone
// is 1 KiB); growing past one would undo the memory win.
static_assert(sizeof(U4Payload) < sizeof(Matrix));

U4Payload::U4Payload(const Matrix &u)
{
    assert(u.rows() == 4 && u.cols() == 4);
    std::copy_n(u.data(), entries_.size(), entries_.begin());
}

Matrix
U4Payload::matrix() const
{
    return squareMatrix(entries_, 4);
}

const U4Payload::Factors &
U4Payload::factors() const
{
    std::call_once(once_, [this] {
        const weyl::KakDecomposition k = weyl::kakDecompose(matrix());
        auto store = [](const Matrix &m, std::array<Complex, 4> &e) {
            assert(m.rows() == 2 && m.cols() == 2);
            std::copy_n(m.data(), e.size(), e.begin());
        };
        kak_.phase = k.phase;
        store(k.a1, kak_.a1);
        store(k.a2, kak_.a2);
        store(k.b1, kak_.b1);
        store(k.b2, kak_.b2);
        kak_.coord = k.coord;
    });
    return kak_;
}

weyl::KakDecomposition
U4Payload::kak() const
{
    const Factors &f = factors();
    weyl::KakDecomposition k;
    k.phase = f.phase;
    k.a1 = squareMatrix(f.a1, 2);
    k.a2 = squareMatrix(f.a2, 2);
    k.b1 = squareMatrix(f.b1, 2);
    k.b2 = squareMatrix(f.b2, 2);
    k.coord = f.coord;
    return k;
}

weyl::WeylCoord
Gate::weylCoord() const
{
    if (!is2Q())
        throw std::invalid_argument(
            "Gate::weylCoord: " + toString() +
            " does not act on exactly two qubits");
    switch (op) {
      case Op::CAN:
        return {params[0], params[1], params[2]};
      case Op::U4:
        return payload->weylCoord();
      default:
        return weyl::weylCoordinate(matrix());
    }
}

std::string
Gate::toString() const
{
    std::ostringstream os;
    os << opName(op);
    if (!params.empty()) {
        os << "(";
        for (size_t i = 0; i < params.size(); ++i)
            os << (i ? "," : "") << params[i];
        os << ")";
    }
    for (int q : qubits)
        os << " q" << q;
    return os.str();
}

Gate
Gate::simple(Op op, int q)
{
    Gate g;
    g.op = op;
    g.qubits = {q};
    return g;
}

Gate
Gate::rx(int q, double a)
{
    Gate g = simple(Op::RX, q);
    g.params = {a};
    return g;
}

Gate
Gate::ry(int q, double a)
{
    Gate g = simple(Op::RY, q);
    g.params = {a};
    return g;
}

Gate
Gate::rz(int q, double a)
{
    Gate g = simple(Op::RZ, q);
    g.params = {a};
    return g;
}

Gate
Gate::u3(int q, double theta, double phi, double lambda)
{
    Gate g = simple(Op::U3, q);
    g.params = {theta, phi, lambda};
    return g;
}

Gate
Gate::cx(int c, int t)
{
    Gate g;
    g.op = Op::CX;
    g.qubits = {c, t};
    return g;
}

Gate
Gate::cy(int c, int t)
{
    Gate g;
    g.op = Op::CY;
    g.qubits = {c, t};
    return g;
}

Gate
Gate::cz(int c, int t)
{
    Gate g;
    g.op = Op::CZ;
    g.qubits = {c, t};
    return g;
}

Gate
Gate::swap(int a, int b)
{
    Gate g;
    g.op = Op::SWAP;
    g.qubits = {a, b};
    return g;
}

Gate
Gate::iswap(int a, int b)
{
    Gate g;
    g.op = Op::ISWAP;
    g.qubits = {a, b};
    return g;
}

Gate
Gate::sqisw(int a, int b)
{
    Gate g;
    g.op = Op::SQISW;
    g.qubits = {a, b};
    return g;
}

Gate
Gate::bgate(int a, int b)
{
    Gate g;
    g.op = Op::B;
    g.qubits = {a, b};
    return g;
}

Gate
Gate::cp(int c, int t, double a)
{
    Gate g;
    g.op = Op::CP;
    g.qubits = {c, t};
    g.params = {a};
    return g;
}

Gate
Gate::rzz(int a, int b, double t)
{
    Gate g;
    g.op = Op::RZZ;
    g.qubits = {a, b};
    g.params = {t};
    return g;
}

Gate
Gate::rxx(int a, int b, double t)
{
    Gate g;
    g.op = Op::RXX;
    g.qubits = {a, b};
    g.params = {t};
    return g;
}

Gate
Gate::ryy(int a, int b, double t)
{
    Gate g;
    g.op = Op::RYY;
    g.qubits = {a, b};
    g.params = {t};
    return g;
}

Gate
Gate::can(int a, int b, const weyl::WeylCoord &c)
{
    Gate g;
    g.op = Op::CAN;
    g.qubits = {a, b};
    g.params = {c.x, c.y, c.z};
    return g;
}

Gate
Gate::u4(int a, int b, const Matrix &m)
{
    assert(m.rows() == 4 && m.cols() == 4);
    Gate g;
    g.op = Op::U4;
    g.qubits = {a, b};
    g.payload = std::make_shared<const U4Payload>(m);
    return g;
}

Gate
Gate::ccx(int c1, int c2, int t)
{
    Gate g;
    g.op = Op::CCX;
    g.qubits = {c1, c2, t};
    return g;
}

Gate
Gate::ccz(int c1, int c2, int t)
{
    Gate g;
    g.op = Op::CCZ;
    g.qubits = {c1, c2, t};
    return g;
}

Gate
Gate::cswap(int c, int a, int b)
{
    Gate g;
    g.op = Op::CSWAP;
    g.qubits = {c, a, b};
    return g;
}

Gate
Gate::peres(int c1, int c2, int t)
{
    Gate g;
    g.op = Op::PERES;
    g.qubits = {c1, c2, t};
    return g;
}

Gate
Gate::mcx(const std::vector<int> &controls, int target)
{
    assert(!controls.empty());
    Gate g;
    g.op = Op::MCX;
    g.qubits = controls;
    g.qubits.push_back(target);
    return g;
}

} // namespace reqisc::circuit
