#include "synth/instantiate.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "obs/metrics.hh"
#include "qmath/kernels.hh"
#include "qmath/svd.hh"

namespace reqisc::synth
{

namespace kernels = qmath::kernels;

Slot
Slot::free2Q(int a, int b)
{
    Slot s;
    s.kind = Kind::Free;
    s.qubits = {a, b};
    s.value = Matrix::identity(4);
    return s;
}

Slot
Slot::free1Q(int q)
{
    Slot s;
    s.kind = Kind::Free;
    s.qubits = {q};
    s.value = Matrix::identity(2);
    return s;
}

Slot
Slot::fixed(std::vector<int> qubits, Matrix m)
{
    Slot s;
    s.kind = Kind::Fixed;
    s.qubits = std::move(qubits);
    s.value = std::move(m);
    return s;
}

void
liftGateInto(Matrix &out, const Matrix &g,
             const std::vector<int> &qubits, int num_qubits)
{
    const int k = static_cast<int>(qubits.size());
    const int dim = 1 << num_qubits;
    const int sub = 1 << k;
    assert(g.rows() == sub);
    assert(k <= 4);
    std::array<int, 4> shift{};
    for (int i = 0; i < k; ++i)
        shift[i] = num_qubits - 1 - qubits[i];
    out.setZero(dim, dim);
    for (int r = 0; r < dim; ++r) {
        // Decompose the row index into pair bits + rest.
        int rp = 0;
        for (int i = 0; i < k; ++i)
            rp = (rp << 1) | ((r >> shift[i]) & 1);
        int rest = r;
        for (int i = 0; i < k; ++i)
            rest &= ~(1 << shift[i]);
        for (int cp = 0; cp < sub; ++cp) {
            int c = rest;
            for (int i = 0; i < k; ++i)
                if (cp & (1 << (k - 1 - i)))
                    c |= (1 << shift[i]);
            out(r, c) = g(rp, cp);
        }
    }
}

Matrix
liftGate(const Matrix &g, const std::vector<int> &qubits,
         int num_qubits)
{
    Matrix out;
    liftGateInto(out, g, qubits, num_qubits);
    return out;
}

Matrix
blockUnitary(const std::vector<circuit::Gate> &gates,
             const std::vector<int> &qubits)
{
    const int n = static_cast<int>(qubits.size());
    Matrix u = Matrix::identity(1 << n);
    std::vector<int> local;
    for (const circuit::Gate &g : gates) {
        local.clear();
        for (int q : g.qubits)
            local.push_back(static_cast<int>(
                std::find(qubits.begin(), qubits.end(), q) -
                qubits.begin()));
        u = liftGate(g.matrix(), local, n) * u;
    }
    return u;
}

namespace
{

struct InstantiateMetrics
{
    obs::Counter *calls;
    obs::Counter *ruledOut;
};

InstantiateMetrics &instantiateMetrics()
{
    // Bumped once per call, thousands of times in a cold job, so
    // neither count reaches the flight recorder's rings.
    static InstantiateMetrics m = [] {
        auto &r = obs::Registry::global();
        return InstantiateMetrics{
            r.counter("reqisc_instantiate_calls_total",
                      "Numeric instantiation calls",
                      obs::FlightEvents::Skip),
            r.counter("reqisc_instantiate_ruled_out_total",
                      "Instantiation calls the light-cone "
                      "certificate answered without sweeping",
                      obs::FlightEvents::Skip),
        };
    }();
    return m;
}

/** Bit of qubit q in a row/column index (liftGate's convention). */
int
indexBit(int q, int num_qubits)
{
    return 1 << (num_qubits - 1 - q);
}

/**
 * Backward light cone of `qubit` through the structure, as a mask
 * of row-index bits: walking from the last slot to the first, every
 * slot touching the cone joins it.
 */
int
lightCone(const std::vector<Slot> &structure, int qubit,
          int num_qubits)
{
    int cone = indexBit(qubit, num_qubits);
    for (auto it = structure.rbegin(); it != structure.rend(); ++it) {
        int touched = 0;
        for (int q : it->qubits)
            touched |= indexBit(q, num_qubits);
        if (touched & cone)
            cone |= touched;
    }
    return cone;
}

/**
 * ||(1 - P_C) a||_F, with C a mask of row-index bits. P_C(a)(r, c) is
 * zero unless r and c agree outside C; there it is the mean of
 * a(r_C | s, c_C | s) over the outside bit patterns s.
 */
double
offConeNorm(const Matrix &a, int dim, int cone)
{
    const int rest = (dim - 1) & ~cone;
    const double share =
        1.0 / (1 << std::popcount(static_cast<unsigned>(rest)));
    Matrix mean;
    mean.setZero(dim, dim);
    for (int r = 0; r < dim; ++r)
        for (int c = 0; c < dim; ++c)
            if ((r & rest) == (c & rest))
                mean(r & cone, c & cone) += share * a(r, c);
    double sum = 0.0;
    for (int r = 0; r < dim; ++r)
        for (int c = 0; c < dim; ++c)
            sum += std::norm((r & rest) == (c & rest)
                                 ? a(r, c) - mean(r & cone, c & cone)
                                 : a(r, c));
    return std::sqrt(sum);
}

/** supportDefect with C given as a mask of row-index bits. */
double
supportDefectMask(const Matrix &target, int num_qubits, int qubit,
                  int cone)
{
    const int dim = 1 << num_qubits;
    const int bit = indexBit(qubit, num_qubits);
    Matrix tdag, ot, a;
    kernels::daggerInto(tdag, target);
    ot.setZero(dim, dim);
    double defect = 0.0;
    for (const bool flip : {true, false}) {
        // O_q T: X_q swaps the rows differing in q's bit, Z_q negates
        // the rows with q's bit set.
        for (int r = 0; r < dim; ++r)
            for (int c = 0; c < dim; ++c)
                ot(r, c) = flip ? target(r ^ bit, c)
                                : (r & bit ? -1.0 : 1.0) * target(r, c);
        kernels::mulInto(a, tdag, ot);
        defect = std::max(defect, offConeNorm(a, dim, cone));
    }
    return defect;
}

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

double
supportDefect(const Matrix &target, int num_qubits, int qubit,
              const std::vector<int> &cone)
{
    int mask = 0;
    for (int q : cone)
        mask |= indexBit(q, num_qubits);
    return supportDefectMask(target, num_qubits, qubit, mask);
}

InstantiateResult
instantiate(const Matrix &target, int num_qubits,
            const std::vector<Slot> &structure,
            const InstantiateOptions &opts)
{
    const int dim = 1 << num_qubits;
    assert(target.rows() == dim && target.cols() == dim);
    const size_t m = structure.size();
    InstantiateMetrics &metrics = instantiateMetrics();
    metrics.calls->inc();

    InstantiateResult best;
    // Light-cone certificate (see the header for the proof).
    const double bound = 4.0 * std::sqrt(2.0 * dim * opts.tol);
    for (int q = 0; q < num_qubits; ++q) {
        const int cone = lightCone(structure, q, num_qubits);
        if (cone == dim - 1)
            continue;
        const double d = supportDefectMask(target, num_qubits, q, cone);
        if (d > bound) {
            metrics.ruledOut->inc();
            best.infidelity = d * d / (8.0 * dim);
            best.slots = structure;
            return best;
        }
    }

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
            // Suffix products: after[i] = G_{m-1} ... G_i. The walk
            // below reads after[1..m] only, so after[0] is skipped.
            after[m].setIdentity(dim);
            for (int i = static_cast<int>(m) - 1; i >= 1; --i)
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

} // namespace reqisc::synth
