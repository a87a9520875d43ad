#include "circuit/gate.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "circuit/qasm.hh"
#include "qmath/expm.hh"

namespace reqisc::circuit
{

using qmath::kI;

namespace
{

/** The op table, one row per Op in declaration order. */
constexpr OpInfo kOps[] = {
    {Op::I, "id", 1, 0},        {Op::X, "x", 1, 0},
    {Op::Y, "y", 1, 0},         {Op::Z, "z", 1, 0},
    {Op::H, "h", 1, 0},         {Op::S, "s", 1, 0},
    {Op::Sdg, "sdg", 1, 0},     {Op::T, "t", 1, 0},
    {Op::Tdg, "tdg", 1, 0},     {Op::SX, "sx", 1, 0},
    {Op::RX, "rx", 1, 1},       {Op::RY, "ry", 1, 1},
    {Op::RZ, "rz", 1, 1},       {Op::U3, "u3", 1, 3},
    {Op::CX, "cx", 2, 0},       {Op::CY, "cy", 2, 0},
    {Op::CZ, "cz", 2, 0},       {Op::SWAP, "swap", 2, 0},
    {Op::ISWAP, "iswap", 2, 0}, {Op::SQISW, "sqisw", 2, 0},
    {Op::B, "b", 2, 0},         {Op::CP, "cp", 2, 1},
    {Op::RZZ, "rzz", 2, 1},     {Op::RXX, "rxx", 2, 1},
    {Op::RYY, "ryy", 2, 1},     {Op::CAN, "can", 2, 3},
    {Op::U4, "u4", 2, 0},       {Op::CCX, "ccx", 3, 0},
    {Op::CCZ, "ccz", 3, 0},     {Op::CSWAP, "cswap", 3, 0},
    {Op::PERES, "peres", 3, 0}, {Op::MCX, "mcx", 2, 0},
};

constexpr bool
rowsInOpOrder()
{
    for (std::size_t i = 0; i < std::size(kOps); ++i)
        if (static_cast<std::size_t>(kOps[i].op) != i)
            return false;
    return std::size(kOps) == static_cast<std::size_t>(Op::MCX) + 1;
}
static_assert(rowsInOpOrder(), "kOps must list every Op in order");

} // namespace

const OpInfo &
opInfo(Op op)
{
    return kOps[static_cast<std::size_t>(op)];
}

bool
opFromName(std::string_view name, Op &out)
{
    for (const OpInfo &row : kOps)
        if (row.op != Op::U4 && name == row.name) {
            out = row.op;
            return true;
        }
    return false;
}

std::string
operandError(const std::vector<int> &qubits, int numQubits)
{
    if (qubits.empty())
        return "no qubit operands";
    for (std::size_t a = 0; a < qubits.size(); ++a) {
        if (qubits[a] < 0 || qubits[a] >= numQubits)
            return "qubit index q[" + std::to_string(qubits[a]) +
                   "] out of range for a register of " +
                   std::to_string(numQubits);
        for (std::size_t b = 0; b < a; ++b)
            if (qubits[a] == qubits[b])
                return "duplicate qubit operand q[" +
                       std::to_string(qubits[a]) + "]";
    }
    return {};
}

std::string
gateError(const Gate &g, int numQubits)
{
    const OpInfo &row = opInfo(g.op);
    const std::string name = std::string("'") + row.name + "'";
    const auto wrong = [&name](const char *what, std::size_t given,
                               const std::string &expected) {
        return std::string("wrong ") + what + " count for " + name +
               ": " + std::to_string(given) + " given, " + expected +
               " expected";
    };
    if (g.op == Op::MCX ? g.numQubits() < row.qubits
                        : g.numQubits() != row.qubits)
        return wrong("qubit", g.qubits.size(),
                     (g.op == Op::MCX ? "at least " : "") +
                         std::to_string(row.qubits));
    if (std::string bad = operandError(g.qubits, numQubits);
        !bad.empty())
        return bad;
    if (static_cast<int>(g.params.size()) != row.params)
        return wrong("parameter", g.params.size(),
                     std::to_string(row.params));
    for (double p : g.params)
        if (!std::isfinite(p))
            return "non-finite parameter for " + name;
    if ((g.op == Op::U4) != (g.payload != nullptr))
        return name + (g.payload ? " carries a matrix payload"
                                 : " lacks its matrix payload");
    return {};
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
    writeGate(os, opName(op), params, qubits);
    return os.str();
}

Gate
Gate::make(Op op, std::vector<int> qubits, std::vector<double> params)
{
    Gate g;
    g.op = op;
    g.qubits = std::move(qubits);
    g.params = std::move(params);
    return g;
}

Gate
Gate::u4(int a, int b, const Matrix &m)
{
    assert(m.rows() == 4 && m.cols() == 4);
    Gate g = make(Op::U4, {a, b});
    g.payload = std::make_shared<const U4Payload>(m);
    return g;
}

Gate
Gate::mcx(const std::vector<int> &controls, int target)
{
    assert(!controls.empty());
    Gate g = make(Op::MCX, controls);
    g.qubits.push_back(target);
    return g;
}

} // namespace reqisc::circuit
