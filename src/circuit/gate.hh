/**
 * @file
 * Gate-level IR: the operations the ReQISC stack manipulates.
 *
 * Three layers of abstraction share this type:
 *  - high-level program IR (CCX / MCX / CSWAP and friends),
 *  - the conventional CNOT ISA ({CX, 1Q gates}),
 *  - the SU(4) ISA ({Can(x,y,z), U3} plus opaque fused U4 blocks).
 *
 * Qubit-ordering convention: the first qubit listed in a gate is the
 * most significant index of its matrix (matching kron(A, B) with A on
 * the first qubit). For controlled gates the control(s) come first.
 * All gate parameters (params) are angles in radians; Can(x, y, z)
 * parameters are Weyl-chamber coordinates (weyl/weyl.hh).
 */

#ifndef REQISC_CIRCUIT_GATE_HH
#define REQISC_CIRCUIT_GATE_HH

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "qmath/matrix.hh"
#include "weyl/weyl.hh"

namespace reqisc::circuit
{

using qmath::Complex;
using qmath::Matrix;

/** Operation codes. */
enum class Op
{
    // One-qubit gates.
    I, X, Y, Z, H, S, Sdg, T, Tdg, SX, RX, RY, RZ, U3,
    // Two-qubit gates.
    CX, CY, CZ, SWAP, ISWAP, SQISW, B, CP, RZZ, RXX, RYY,
    CAN,   //!< canonical gate Can(x, y, z)
    U4,    //!< opaque two-qubit unitary (fused block), carries a matrix
    // Three-or-more-qubit gates (high-level IR).
    CCX, CCZ, CSWAP, PERES, MCX,
};

/** One row of the op table. */
struct OpInfo
{
    Op op;
    const char *name;  //!< lowercase mnemonic ("cx", "can", ...)
    int qubits;        //!< qubit operands; MCX takes this many or more
    int params;        //!< angle parameters
};

/** The op table's row for `op`. */
const OpInfo &opInfo(Op op);

/** @return a short lowercase mnemonic ("cx", "can", ...). */
inline const char *opName(Op op) { return opInfo(op).name; }

/**
 * Reverse of opName for the textual formats (QASM, RQISA assembly):
 * fills `out` and returns true for every named op except the opaque
 * U4 (which carries a matrix payload and has no textual form).
 */
bool opFromName(std::string_view name, Op &out);

/**
 * The matrix of an opaque U4 gate together with its KAK
 * decomposition. The 16 entries are stored inline (row-major), not
 * as a Matrix, whose inline 8x8 buffer would quadruple the size. The
 * decomposition is computed on the first kak() or weylCoord() call,
 * once for every copy of the gate that shares the payload, and kept
 * in compact 2x2 form. It is bit for bit what weyl::kakDecompose
 * returns for matrix().
 */
class U4Payload
{
  public:
    /** @param u a 4x4 unitary */
    explicit U4Payload(const Matrix &u);

    int rows() const { return 4; }
    int cols() const { return 4; }
    /** Row-major storage of the 16 entries. */
    const Complex *data() const { return entries_.data(); }

    Matrix matrix() const;

    /** weyl::kakDecompose(matrix()), decomposed once per payload. */
    weyl::KakDecomposition kak() const;

    /** kak().coord without rebuilding the factors. */
    const weyl::WeylCoord &weylCoord() const { return factors().coord; }

  private:
    /** The decomposition with its 2x2 factors stored row-major. */
    struct Factors
    {
        Complex phase;
        std::array<Complex, 4> a1, a2, b1, b2;
        weyl::WeylCoord coord;
    };

    const Factors &factors() const;

    std::array<Complex, 16> entries_;
    mutable std::once_flag once_;
    mutable Factors kak_;
};

/** A single gate instance. */
struct Gate
{
    Op op = Op::I;
    std::vector<int> qubits;
    std::vector<double> params;
    /** Matrix payload for Op::U4 (shared, immutable). */
    std::shared_ptr<const U4Payload> payload;

    int numQubits() const { return static_cast<int>(qubits.size()); }
    bool is1Q() const { return qubits.size() == 1; }
    bool is2Q() const { return qubits.size() == 2; }

    /**
     * The unitary of this gate on its own qubits (dimension 2^k with
     * the first listed qubit most significant).
     */
    Matrix matrix() const;

    /**
     * Weyl coordinate of a two-qubit gate: a CAN reads its params, a
     * U4 its payload, and the other ops decompose their matrix.
     * Throws std::invalid_argument on a gate that does not act on
     * exactly two qubits.
     */
    weyl::WeylCoord weylCoord() const;

    /** `name(p,…) q[i],q[j]`, the gate syntax of circuit/qasm.hh. */
    std::string toString() const;

    // ----- Factories ---------------------------------------------------
    static Gate x(int q) { return make(Op::X, {q}); }
    static Gate y(int q) { return make(Op::Y, {q}); }
    static Gate z(int q) { return make(Op::Z, {q}); }
    static Gate h(int q) { return make(Op::H, {q}); }
    static Gate s(int q) { return make(Op::S, {q}); }
    static Gate sdg(int q) { return make(Op::Sdg, {q}); }
    static Gate t(int q) { return make(Op::T, {q}); }
    static Gate tdg(int q) { return make(Op::Tdg, {q}); }
    static Gate sx(int q) { return make(Op::SX, {q}); }
    static Gate rx(int q, double a) { return make(Op::RX, {q}, {a}); }
    static Gate ry(int q, double a) { return make(Op::RY, {q}, {a}); }
    static Gate rz(int q, double a) { return make(Op::RZ, {q}, {a}); }
    static Gate u3(int q, double theta, double phi, double lambda)
    {
        return make(Op::U3, {q}, {theta, phi, lambda});
    }
    static Gate cx(int c, int t) { return make(Op::CX, {c, t}); }
    static Gate cy(int c, int t) { return make(Op::CY, {c, t}); }
    static Gate cz(int c, int t) { return make(Op::CZ, {c, t}); }
    static Gate swap(int a, int b) { return make(Op::SWAP, {a, b}); }
    static Gate iswap(int a, int b) { return make(Op::ISWAP, {a, b}); }
    static Gate sqisw(int a, int b) { return make(Op::SQISW, {a, b}); }
    static Gate bgate(int a, int b) { return make(Op::B, {a, b}); }
    static Gate cp(int c, int t, double a) { return make(Op::CP, {c, t}, {a}); }
    static Gate rzz(int a, int b, double t)
    {
        return make(Op::RZZ, {a, b}, {t});
    }
    static Gate rxx(int a, int b, double t)
    {
        return make(Op::RXX, {a, b}, {t});
    }
    static Gate ryy(int a, int b, double t)
    {
        return make(Op::RYY, {a, b}, {t});
    }
    static Gate can(int a, int b, const weyl::WeylCoord &c)
    {
        return make(Op::CAN, {a, b}, {c.x, c.y, c.z});
    }
    static Gate u4(int a, int b, const Matrix &m);
    static Gate ccx(int c1, int c2, int t)
    {
        return make(Op::CCX, {c1, c2, t});
    }
    static Gate ccz(int c1, int c2, int t)
    {
        return make(Op::CCZ, {c1, c2, t});
    }
    static Gate cswap(int c, int a, int b)
    {
        return make(Op::CSWAP, {c, a, b});
    }
    static Gate peres(int c1, int c2, int t)
    {
        return make(Op::PERES, {c1, c2, t});
    }
    static Gate mcx(const std::vector<int> &controls, int target);

  private:
    static Gate make(Op op, std::vector<int> qubits,
                     std::vector<double> params = {});
};

/**
 * The one rule for a well-formed gate on a register of `numQubits`:
 * the op's qubit count (two or more for MCX), operands in range and
 * distinct, the op's parameter count, finite parameters, and a matrix
 * payload on a U4 and on no other op. Every reader of gates from text
 * or disk applies it. @return "" if `g` is well formed, else why not.
 */
std::string gateError(const Gate &g, int numQubits);

/**
 * The operand part of gateError, which also serves measurements: at
 * least one operand, each in [0, numQubits) and none repeated.
 */
std::string operandError(const std::vector<int> &qubits, int numQubits);

} // namespace reqisc::circuit

#endif // REQISC_CIRCUIT_GATE_HH
