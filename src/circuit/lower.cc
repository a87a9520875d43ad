#include "circuit/lower.hh"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "circuit/dag.hh"
#include "weyl/su2.hh"

namespace reqisc::circuit
{

namespace
{

constexpr double kPi = std::numbers::pi;

/** Emit the textbook 6-CX Toffoli on (c1, c2, t). */
void
emitCcx(Circuit &out, int c1, int c2, int t)
{
    out.add(Gate::h(t));
    out.add(Gate::cx(c2, t));
    out.add(Gate::tdg(t));
    out.add(Gate::cx(c1, t));
    out.add(Gate::t(t));
    out.add(Gate::cx(c2, t));
    out.add(Gate::tdg(t));
    out.add(Gate::cx(c1, t));
    out.add(Gate::t(c2));
    out.add(Gate::t(t));
    out.add(Gate::h(t));
    out.add(Gate::cx(c1, c2));
    out.add(Gate::t(c1));
    out.add(Gate::tdg(c2));
    out.add(Gate::cx(c1, c2));
}

} // namespace

Gate
u3FromMatrix(int q, const Matrix &m)
{
    weyl::U3Angles a = weyl::u3Angles(m);
    return Gate::u3(q, a.theta, a.phi, a.lambda);
}

bool
conjugateOnto(const Matrix &u, const Matrix &v, Matrix &l1, Matrix &l2,
              Matrix &r1, Matrix &r2)
{
    weyl::KakDecomposition ku = weyl::kakDecompose(u);
    weyl::KakDecomposition kv = weyl::kakDecompose(v);
    if (!ku.coord.approxEqual(kv.coord, 1e-8))
        return false;
    // u = pu (Au1 x Au2) Can (Bu1 x Bu2), v likewise; substitute Can.
    const qmath::Complex scale = ku.phase / kv.phase;
    l1 = ku.a1 * kv.a1.dagger() * scale;
    l2 = ku.a2 * kv.a2.dagger();
    r1 = kv.b1.dagger() * ku.b1;
    r2 = kv.b2.dagger() * ku.b2;
    return true;
}

std::vector<Gate>
gateToCnotsAnalytic(int a, int b, const Matrix &u)
{
    std::vector<Gate> out;
    weyl::KakDecomposition k = weyl::kakDecompose(u);
    const weyl::WeylCoord c = k.coord;
    const double tol = 1e-9;

    auto emitLocalPair = [&](const Matrix &m1, const Matrix &m2) {
        if (!weyl::isIdentityUpToPhase(m1, 1e-11))
            out.push_back(u3FromMatrix(a, m1));
        if (!weyl::isIdentityUpToPhase(m2, 1e-11))
            out.push_back(u3FromMatrix(b, m2));
    };

    if (c.norm1() < tol) {
        // Purely local.
        emitLocalPair(k.a1 * k.b1, k.a2 * k.b2);
        return out;
    }

    // Build a structural core circuit with the same Weyl coordinates,
    // then wrap it with the conjugating locals.
    std::vector<Gate> core;
    Matrix core_matrix;
    if (c.approxEqual(weyl::WeylCoord::cnot(), tol)) {
        core.push_back(Gate::cx(a, b));
        core_matrix = core[0].matrix();
    } else if (std::abs(c.z) < tol) {
        // Two-CX class: (V x V)^dagger exp(-i(x XX + y ZZ)) (V x V)
        // realized as CX (Rx(2x) x Rz(2y)) CX.
        const Matrix &v = weyl::vGate();
        core.push_back(u3FromMatrix(a, v));
        core.push_back(u3FromMatrix(b, v));
        core.push_back(Gate::cx(a, b));
        core.push_back(Gate::rx(a, 2.0 * c.x));
        core.push_back(Gate::rz(b, 2.0 * c.y));
        core.push_back(Gate::cx(a, b));
        core.push_back(u3FromMatrix(a, v.dagger()));
        core.push_back(u3FromMatrix(b, v.dagger()));
        const Matrix cxm = Gate::cx(a, b).matrix();
        const Matrix mid =
            kron(Gate::rx(a, 2.0 * c.x).matrix(),
                 Gate::rz(b, 2.0 * c.y).matrix());
        const Matrix vv = kron(v, v);
        core_matrix = vv.dagger() * cxm * mid * cxm * vv;
    } else {
        // Exact 4-CX fallback:
        //   Can(x,y,z) = Can(x,y,0) * Can(0,0,z),
        //   Can(0,0,z) = CX (I x Rz(2z)) CX.
        const Matrix &v = weyl::vGate();
        core.push_back(Gate::cx(a, b));
        core.push_back(Gate::rz(b, 2.0 * c.z));
        core.push_back(Gate::cx(a, b));
        core.push_back(u3FromMatrix(a, v));
        core.push_back(u3FromMatrix(b, v));
        core.push_back(Gate::cx(a, b));
        core.push_back(Gate::rx(a, 2.0 * c.x));
        core.push_back(Gate::rz(b, 2.0 * c.y));
        core.push_back(Gate::cx(a, b));
        core.push_back(u3FromMatrix(a, v.dagger()));
        core.push_back(u3FromMatrix(b, v.dagger()));
        const Matrix cxm = Gate::cx(a, b).matrix();
        const Matrix vv = kron(v, v);
        const Matrix zpart =
            cxm * kron(Matrix::identity(2),
                       Gate::rz(b, 2.0 * c.z).matrix()) * cxm;
        const Matrix mid =
            kron(Gate::rx(a, 2.0 * c.x).matrix(),
                 Gate::rz(b, 2.0 * c.y).matrix());
        const Matrix xypart = vv.dagger() * cxm * mid * cxm * vv;
        core_matrix = xypart * zpart;
    }

    Matrix l1, l2, r1, r2;
    const bool ok = conjugateOnto(u, core_matrix, l1, l2, r1, r2);
    assert(ok && "core circuit must share Weyl coordinates");
    if (!ok)
        return {};
    emitLocalPair(r1, r2);
    for (const Gate &g : core)
        out.push_back(g);
    emitLocalPair(l1, l2);
    return out;
}

Circuit
decomposeMcx(const Circuit &c)
{
    Circuit out(c.numQubits());
    for (const Gate &g : c) {
        if (g.op != Op::MCX) {
            out.add(g);
            continue;
        }
        const int k = g.numQubits() - 1;
        const int target = g.qubits.back();
        if (k == 1) {
            out.add(Gate::cx(g.qubits[0], target));
            continue;
        }
        if (k == 2) {
            out.add(Gate::ccx(g.qubits[0], g.qubits[1], target));
            continue;
        }
        // Clean-ancilla V-chain: requires k - 2 idle qubits.
        std::vector<bool> used(c.numQubits(), false);
        for (int q : g.qubits)
            used[q] = true;
        std::vector<int> anc;
        for (int q = 0; q < c.numQubits() &&
                        static_cast<int>(anc.size()) < k - 2; ++q)
            if (!used[q])
                anc.push_back(q);
        if (static_cast<int>(anc.size()) < k - 2)
            throw std::invalid_argument(
                "'" + g.toString() + "' lacks spare wires for its " +
                "V-chain: it needs " + std::to_string(k - 2) + ", the " +
                std::to_string(c.numQubits()) + "-qubit register has " +
                std::to_string(anc.size()));
        std::vector<Gate> compute;
        compute.push_back(
            Gate::ccx(g.qubits[0], g.qubits[1], anc[0]));
        for (int i = 2; i < k - 1; ++i)
            compute.push_back(
                Gate::ccx(g.qubits[i], anc[i - 2], anc[i - 1]));
        for (const Gate &cg : compute)
            out.add(cg);
        out.add(Gate::ccx(g.qubits[k - 1], anc[k - 3], target));
        for (auto it = compute.rbegin(); it != compute.rend(); ++it)
            out.add(*it);
    }
    return out;
}

Circuit
lowerThreeQubit(const Circuit &c)
{
    Circuit out(c.numQubits());
    for (const Gate &g : c) {
        switch (g.op) {
          case Op::CCX:
            emitCcx(out, g.qubits[0], g.qubits[1], g.qubits[2]);
            break;
          case Op::CCZ:
            out.add(Gate::h(g.qubits[2]));
            emitCcx(out, g.qubits[0], g.qubits[1], g.qubits[2]);
            out.add(Gate::h(g.qubits[2]));
            break;
          case Op::CSWAP:
            out.add(Gate::cx(g.qubits[2], g.qubits[1]));
            emitCcx(out, g.qubits[0], g.qubits[1], g.qubits[2]);
            out.add(Gate::cx(g.qubits[2], g.qubits[1]));
            break;
          case Op::PERES:
            emitCcx(out, g.qubits[0], g.qubits[1], g.qubits[2]);
            out.add(Gate::cx(g.qubits[0], g.qubits[1]));
            break;
          default:
            out.add(g);
        }
    }
    return out;
}

Circuit
lowerToCnot(const Circuit &c)
{
    Circuit mid = lowerThreeQubit(decomposeMcx(c));
    Circuit out(c.numQubits());
    for (const Gate &g : mid) {
        if (g.numQubits() == 1 || g.op == Op::CX) {
            out.add(g);
            continue;
        }
        assert(g.is2Q());
        for (Gate &e :
             gateToCnotsAnalytic(g.qubits[0], g.qubits[1], g.matrix()))
            out.add(std::move(e));
    }
    return out;
}

Circuit
expandToCanU3(const Circuit &c)
{
    Circuit out(c.numQubits());
    for (const Gate &g : c) {
        if (g.numQubits() == 1) {
            if (g.op == Op::U3) {
                out.add(g);
            } else {
                out.add(u3FromMatrix(g.qubits[0], g.matrix()));
            }
            continue;
        }
        if (g.op == Op::CAN || !g.is2Q()) {
            out.add(g);
            continue;
        }
        const weyl::KakDecomposition k =
            g.op == Op::U4 ? g.payload->kak()
                           : weyl::kakDecompose(g.matrix());
        const int a = g.qubits[0], b = g.qubits[1];
        if (!weyl::isIdentityUpToPhase(k.b1, 1e-11))
            out.add(u3FromMatrix(a, k.b1));
        if (!weyl::isIdentityUpToPhase(k.b2, 1e-11))
            out.add(u3FromMatrix(b, k.b2));
        if (k.coord.norm1() > 1e-11)
            out.add(Gate::can(a, b, k.coord));
        if (!weyl::isIdentityUpToPhase(k.a1, 1e-11))
            out.add(u3FromMatrix(a, k.a1));
        if (!weyl::isIdentityUpToPhase(k.a2, 1e-11))
            out.add(u3FromMatrix(b, k.a2));
    }
    return out;
}

} // namespace reqisc::circuit
