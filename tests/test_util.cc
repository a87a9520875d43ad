#include "test_util.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

#include "qmath/kernels.hh"
#include "qmath/svd.hh"

namespace reqisc::test
{

namespace
{

using qmath::Complex;
using qmath::Matrix;
using synth::InstantiateOptions;
using synth::InstantiateResult;
using synth::liftGateInto;
using synth::Slot;
namespace kernels = qmath::kernels;

// ---- The pre-certificate instantiate, kept verbatim as the oracle ------

/**
 * Partial trace of E over all qubits except `qubits`:
 * F[p, q] = sum_rest E[(q,rest), (p,rest)] arranged so the optimal
 * free gate is the polar factor of F^dagger. Destination-passing:
 * `f`'s storage is reused across sweeps.
 */
void
environmentInto(Matrix &f, const Matrix &e,
                const std::vector<int> &qubits, int num_qubits)
{
    const int k = static_cast<int>(qubits.size());
    const int dim = 1 << num_qubits;
    const int sub = 1 << k;
    assert(k <= 4);
    std::array<int, 4> shift{};
    for (int i = 0; i < k; ++i)
        shift[i] = num_qubits - 1 - qubits[i];
    int mask = 0;
    for (int i = 0; i < k; ++i)
        mask |= (1 << shift[i]);
    std::array<int, 16> offs{};
    for (int s = 0; s < sub; ++s) {
        int o = 0;
        for (int i = 0; i < k; ++i)
            if (s & (1 << (k - 1 - i)))
                o |= (1 << shift[i]);
        offs[s] = o;
    }
    f.setZero(sub, sub);
    for (int base = 0; base < dim; ++base) {
        if (base & mask)
            continue;
        for (int p = 0; p < sub; ++p)
            for (int q = 0; q < sub; ++q)
                f(q, p) += e(base | offs[q], base | offs[p]);
    }
}

} // namespace

::testing::AssertionResult
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return ::testing::AssertionFailure()
               << "shape " << a.rows() << "x" << a.cols() << " vs "
               << b.rows() << "x" << b.cols();
    if (std::memcmp(a.data(), b.data(),
                    a.size() * sizeof(Complex)) != 0) {
        for (int i = 0; i < a.rows(); ++i)
            for (int j = 0; j < a.cols(); ++j)
                if (std::memcmp(&a(i, j), &b(i, j),
                                sizeof(Complex)) != 0)
                    return ::testing::AssertionFailure()
                           << "first mismatch at (" << i << "," << j
                           << "): (" << a(i, j).real() << ","
                           << a(i, j).imag() << ") vs ("
                           << b(i, j).real() << "," << b(i, j).imag()
                           << ")";
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
circuitsIdentical(const circuit::Circuit &a, const circuit::Circuit &b)
{
    if (a.numQubits() != b.numQubits())
        return ::testing::AssertionFailure()
               << "qubit count " << a.numQubits() << " vs "
               << b.numQubits();
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "gate count " << a.size() << " vs " << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        const circuit::Gate &g = a[i], &h = b[i];
        if (g.op != h.op || g.qubits != h.qubits ||
            g.params != h.params)
            return ::testing::AssertionFailure()
                   << "gate " << i << ": " << g.toString() << " vs "
                   << h.toString();
        const bool gp = g.payload != nullptr,
                   hp = h.payload != nullptr;
        if (gp != hp)
            return ::testing::AssertionFailure()
                   << "gate " << i << ": payload presence differs";
        if (gp) {
            const Matrix &m = *g.payload, &n = *h.payload;
            if (m.rows() != n.rows() || m.cols() != n.cols())
                return ::testing::AssertionFailure()
                       << "gate " << i << ": payload shape differs";
            for (int r = 0; r < m.rows(); ++r)
                for (int c = 0; c < m.cols(); ++c)
                    if (m(r, c) != n(r, c))
                        return ::testing::AssertionFailure()
                               << "gate " << i << ": payload ("
                               << r << "," << c << ") differs";
        }
    }
    return ::testing::AssertionSuccess();
}

InstantiateResult
legacyInstantiate(const Matrix &target, int num_qubits,
                  const std::vector<Slot> &structure,
                  const InstantiateOptions &opts)
{
    const int dim = 1 << num_qubits;
    assert(target.rows() == dim && target.cols() == dim);
    const size_t m = structure.size();

    InstantiateResult best;
    qmath::Rng rng(opts.seed);

    const Matrix tdag = target.dagger();
    // Sweep scratch, hoisted so the inner loops run allocation-free:
    // every matrix here is recycled via the *Into kernels.
    std::vector<Matrix> lifted(m);
    std::vector<Matrix> after(m + 1);
    Matrix before, tmp, bt, e, f, udag;

    for (int restart = 0; restart < std::max(1, opts.restarts);
         ++restart) {
        std::vector<Slot> slots = structure;
        // Initialize free slots: identity on the first attempt,
        // random on subsequent restarts.
        if (restart > 0) {
            for (auto &s : slots)
                if (s.kind == Slot::Kind::Free)
                    s.value = qmath::randomUnitary(
                        1 << s.qubits.size(), rng);
        }

        double last = 2.0;
        int sweep = 0;
        double infid = 1.0;
        for (; sweep < opts.maxSweeps; ++sweep) {
            // Lift all slot matrices once per sweep.
            for (size_t i = 0; i < m; ++i)
                liftGateInto(lifted[i], slots[i].value,
                             slots[i].qubits, num_qubits);
            // Suffix products: after[i] = G_{m-1} ... G_{i+1}.
            after[m].setIdentity(dim);
            for (int i = static_cast<int>(m) - 1; i >= 0; --i)
                kernels::mulInto(after[i], after[i + 1], lifted[i]);
            // Walk forward keeping before = G_{i-1} ... G_0.
            before.setIdentity(dim);
            for (size_t i = 0; i < m; ++i) {
                if (slots[i].kind == Slot::Kind::Free) {
                    // E = before * tdag * after_{i+1}; optimal gate
                    // maximizes Re Tr(G_lift * E).
                    kernels::mulInto(bt, before, tdag);
                    kernels::mulInto(e, bt, after[i + 1]);
                    environmentInto(f, e, slots[i].qubits,
                                    num_qubits);
                    qmath::SvdResult sv = qmath::svd(f);
                    // G = V U^dagger gives Tr(G F) = sum of singular
                    // values (max over unitaries).
                    kernels::daggerInto(udag, sv.u);
                    kernels::mulInto(slots[i].value, sv.v, udag);
                    liftGateInto(lifted[i], slots[i].value,
                                 slots[i].qubits, num_qubits);
                }
                kernels::mulInto(tmp, lifted[i], before);
                std::swap(before, tmp);
            }
            // Same accumulation order as (tdag * before).trace(),
            // at n^2 instead of n^3 work.
            const Complex tr = kernels::mulTrace(tdag, before);
            infid = 1.0 - std::abs(tr) / dim;
            if (infid < opts.tol)
                break;
            // Stall detection: relative progress per sweep below
            // 1e-3 after a warm-up means this basin will not reach
            // the tolerance; restart instead of burning sweeps.
            if (sweep > 24 && last - infid < 1e-3 * infid)
                break;
            last = infid;
        }
        if (infid < best.infidelity) {
            best.infidelity = infid;
            best.sweeps = sweep;
            best.slots = slots;
            best.converged = infid < opts.tol;
        }
        if (best.converged)
            break;
    }
    return best;
}

::testing::AssertionResult
matrixNear(const qmath::Matrix &a, const qmath::Matrix &b, double tol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return ::testing::AssertionFailure()
               << "shape mismatch: " << a.rows() << "x" << a.cols()
               << " vs " << b.rows() << "x" << b.cols();
    }
    if (a.approxEqual(b, tol))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "matrices differ (tol=" << tol << ")\nA=\n"
           << a.toString() << "B=\n" << b.toString()
           << "maxAbs(A-B)=" << (a - b).maxAbs();
}

::testing::AssertionResult
matrixNearUpToPhase(const qmath::Matrix &a, const qmath::Matrix &b,
                    double tol)
{
    if (a.approxEqualUpToPhase(b, tol))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "matrices differ up to phase (tol=" << tol << ")\nA=\n"
           << a.toString() << "B=\n" << b.toString();
}

} // namespace reqisc::test
