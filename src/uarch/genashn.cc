#include "uarch/genashn.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <numbers>
#include <optional>
#include <vector>

#include "obs/metrics.hh"
#include "qmath/expm.hh"
#include "qmath/kernels.hh"
#include "qmath/optimize.hh"
#include "synth/pool.hh"

namespace reqisc::uarch
{

namespace
{

constexpr double kPi = std::numbers::pi;

using qmath::Complex;
using qmath::Matrix;

/**
 * Trace of V = U (YY) for a gate with Weyl coordinate (x, y, z):
 * the analytically known target spectrum sum (Appendix A.5).
 */
Complex
targetTrace(const weyl::WeylCoord &c)
{
    const weyl::MagicSigns &sg = weyl::magicSigns();
    Complex t(0.0, 0.0);
    for (int k = 0; k < 4; ++k) {
        const double phase =
            c.x * sg.xx[k] + c.y * sg.yy[k] + c.z * sg.zz[k];
        t += sg.yy[k] * std::exp(Complex(0.0, -phase));
    }
    return t;
}

/** Smallest root of (coef) sin(S tau) - t S = 0 with S >= lo. */
bool
smallestSincRoot(double coef, double tau, double t, double lo,
                 double &root)
{
    auto f = [&](double s) { return coef * std::sin(s * tau) - t * s; };
    if (coef < 1e-13) {
        // Degenerate coupling direction: feasible only for t ~ 0.
        if (std::abs(t) < 1e-9) {
            root = std::max(lo, 0.0);
            return true;
        }
        return false;
    }
    const double f_lo = f(lo);
    if (std::abs(f_lo) < 1e-13 * std::max(1.0, coef)) {
        root = lo;
        return true;
    }
    // March in small steps to bracket the first sign change.
    const double span = 6.0 * kPi / std::max(tau, 1e-9);
    const double step = span / 4000.0;
    double prev = lo, fprev = f_lo;
    for (double s = lo + step; s <= lo + span; s += step) {
        const double fs = f(s);
        if (fprev == 0.0) {
            root = prev;
            return true;
        }
        if (fprev * fs <= 0.0) {
            root = qmath::bisect(f, prev, s, 1e-15);
            return true;
        }
        prev = s;
        fprev = fs;
    }
    return false;
}

/** Lazily registered EA-multistart counters. */
struct GenAshNMetrics
{
    obs::Counter *starts;
    obs::Counter *discarded;
};

GenAshNMetrics &
genAshNMetrics()
{
    static GenAshNMetrics m = [] {
        auto &r = obs::Registry::global();
        return GenAshNMetrics{
            r.counter("reqisc_genashn_starts_total",
                      "Newton starts the genAshN EA multistart "
                      "evaluated"),
            r.counter("reqisc_genashn_starts_discarded_total",
                      "EA multistart starts evaluated past the "
                      "fold's stop point (speculation waste)"),
        };
    }();
    return m;
}

/** What one Newton start of the EA multistart produced. */
struct EaStart
{
    bool verified = false;  //!< converged and passed verification
    double omega = 0.0;     //!< the driven Omega (O2 for EA+, O1 for EA-)
    double delta = 0.0;
    double penalty = 0.0;   //!< PulseSolution::amplitudePenalty()
};

/**
 * The multistart's selection rule, fed one start at a time in grid
 * order: keep the verified root with the smallest amplitude penalty;
 * stop at a penalty <= 1e-9, or at a verified root above 3x the best
 * + 1e-9 (the grid is ordered by magnitude, so the first couple of
 * verified roots are near-minimal).
 */
struct EaFold
{
    bool found = false;
    EaStart best;

    /** @return false when the multistart stops after `s`. */
    bool take(const EaStart &s)
    {
        if (!s.verified)
            return true;
        if (!found || s.penalty < best.penalty) {
            best = s;
            found = true;
        }
        if (best.penalty <= 1e-9)
            return false;
        if (s.penalty > best.penalty * 3.0 + 1e-9)
            return false;
        return true;
    }
};

/**
 * One EA solve's fixed data, shared read-only by its Newton starts;
 * each start brings its own Hamiltonian scratch, so starts can run
 * on any thread.
 */
struct EaProblem
{
    Matrix hc;       //!< coupling Hamiltonian
    Matrix xdrive;   //!< XI - IX (EA+) or XI + IX (EA-)
    Matrix zzDrive;  //!< ZI + IZ
    Matrix yy;
    Complex target;  //!< targetTrace(eff)
    weyl::WeylCoord effcan;
    double tau;
    bool plus;

    /** H(omega, delta), assembled in place in `h` (axpy). */
    const Matrix &ham(Matrix &h, double omega, double delta) const
    {
        h = hc;
        qmath::kernels::axpyInPlace(h, Complex(omega, 0.0), xdrive);
        qmath::kernels::axpyInPlace(h, Complex(delta, 0.0), zzDrive);
        return h;
    }

    /** Newton-solve the trace equation from (w0, d0), then verify. */
    EaStart start(double w0, double d0) const
    {
        // The trace is taken without forming expim(h) * yy, so each
        // residual evaluation allocates nothing new.
        Matrix h;
        auto residual = [&](const std::vector<double> &p) {
            const Complex d =
                qmath::kernels::mulTrace(
                    qmath::expim(ham(h, p[0], p[1]), tau), yy) -
                target;
            return std::vector<double>{d.real(), d.imag()};
        };
        const qmath::RootResult r =
            qmath::newtonSolve(residual, {w0, d0}, 1e-12, 60);
        if (!r.converged)
            return {};
        // Verify: the produced evolution must have the effective
        // coordinates (trace aliasing can admit spurious roots).
        // Near chamber corners the coordinate map has square-root
        // sensitivity, so accept a looser bound here; the chosen
        // root is polished afterwards.
        const Matrix ev = qmath::expim(ham(h, r.x[0], r.x[1]), tau);
        if (weyl::weylCoordinate(ev).distance(effcan) > 3e-5)
            return {};
        PulseSolution cand;
        cand.omega1 = plus ? 0.0 : r.x[0];
        cand.omega2 = plus ? r.x[0] : 0.0;
        cand.delta = r.x[1];
        return {true, r.x[0], r.x[1], cand.amplitudePenalty()};
    }
};

} // namespace

double
PulseSolution::amplitudePenalty() const
{
    return std::abs(ampA1()) + std::abs(ampA2()) +
           2.0 * std::abs(delta);
}

GateScheme::GateScheme(const Coupling &cpl, synth::BlockPool *pool)
    : cpl_(cpl), pool_(pool)
{
    assert(cpl.isCanonical(1e-9));
}

Matrix
GateScheme::totalHamiltonian(const PulseSolution &s) const
{
    Matrix h = cpl_.hamiltonian();
    const Matrix &id = qmath::pauliI();
    h += kron(qmath::pauliX(), id) *
         Complex(s.omega1 + s.omega2, 0.0);
    h += kron(id, qmath::pauliX()) *
         Complex(s.omega1 - s.omega2, 0.0);
    h += (kron(qmath::pauliZ(), id) + kron(id, qmath::pauliZ())) *
         Complex(s.delta, 0.0);
    return h;
}

Matrix
GateScheme::evolution(const PulseSolution &s) const
{
    return qmath::expim(totalHamiltonian(s), s.tau);
}

bool
GateScheme::solveNd(double tau, const weyl::WeylCoord &eff,
                    PulseSolution &sol) const
{
    const double b = cpl_.b, c = cpl_.c;
    double s1 = 0.0, s2 = 0.0;
    if (!smallestSincRoot(b - c, tau, std::sin(eff.y - eff.z),
                          std::max(0.0, b - c), s1))
        return false;
    if (!smallestSincRoot(b + c, tau, std::sin(eff.y + eff.z),
                          std::max(0.0, b + c), s2))
        return false;
    const double w1sq = 0.25 * (s1 * s1 - (b - c) * (b - c));
    const double w2sq = 0.25 * (s2 * s2 - (b + c) * (b + c));
    if (w1sq < -1e-9 || w2sq < -1e-9)
        return false;
    sol.omega1 = std::sqrt(std::max(0.0, w1sq));
    sol.omega2 = std::sqrt(std::max(0.0, w2sq));
    sol.delta = 0.0;
    sol.tau = tau;
    return true;
}

bool
GateScheme::solveEa(double tau, const weyl::WeylCoord &eff,
                    const weyl::WeylCoord &effcan, bool plus,
                    PulseSolution &sol) const
{
    const Matrix &id = qmath::pauliI();
    const Matrix xi = kron(qmath::pauliX(), id);
    const Matrix ix = kron(id, qmath::pauliX());
    const EaProblem problem{
        cpl_.hamiltonian(),
        plus ? (xi - ix) : (xi + ix),
        kron(qmath::pauliZ(), id) + kron(id, qmath::pauliZ()),
        qmath::pauliYY(),
        targetTrace(eff),
        effcan,
        tau,
        plus,
    };

    const double g = std::max(cpl_.strength(), 1e-12);
    // Grid of starts, ordered by increasing drive magnitude so the
    // first verified solution is also the physically cheapest.
    std::vector<std::pair<double, double>> starts;
    for (double w : {0.0, 0.3, 0.7, 1.2, 2.0, 3.2, 5.0})
        for (double d : {0.0, 0.3, -0.3, 0.8, -0.8, 1.6, -1.6, 3.0,
                         -3.0})
            starts.push_back({w * g, d * g});
    std::stable_sort(starts.begin(), starts.end(),
                     [](const auto &p, const auto &q) {
                         return std::abs(p.first) + std::abs(p.second) <
                                std::abs(q.first) + std::abs(q.second);
                     });

    // Speculative multistart: each worker claims the next start,
    // solves it unlocked and stores it in its slot; the fold then
    // consumes the finished prefix of slots in grid order, so it sees
    // exactly the serial loop's sequence. Once the fold stops, no
    // further start is claimed. Run inline, one worker is the serial
    // loop itself.
    EaFold fold;
    std::mutex mu;  // guards claimed, done, next, stop and fold
    std::vector<std::optional<EaStart>> done(starts.size());
    std::size_t claimed = 0;           // starts handed to workers
    std::size_t next = 0;              // first start the fold lacks
    std::size_t stop = starts.size();  // later starts are unneeded
    auto worker = [&] {
        std::unique_lock<std::mutex> lock(mu);
        while (claimed < stop) {
            const std::size_t i = claimed++;
            lock.unlock();
            const EaStart s =
                problem.start(starts[i].first, starts[i].second);
            lock.lock();
            done[i] = s;
            for (; next < stop && done[next]; ++next)
                if (!fold.take(*done[next]))
                    stop = next + 1;
        }
    };
    if (pool_)
        pool_->run(std::vector<std::function<void()>>(
            static_cast<std::size_t>(pool_->workers()), worker));
    else
        worker();
    // Every claimed start was evaluated; the fold consumed exactly
    // the first `stop` of them.
    GenAshNMetrics &m = genAshNMetrics();
    m.starts->add(static_cast<std::int64_t>(claimed));
    if (claimed > stop)
        m.discarded->add(static_cast<std::int64_t>(claimed - stop));
    if (!fold.found)
        return false;

    // Pattern-search polish on the coordinate distance: robust to
    // the non-smooth chamber folds that defeat Newton at corners.
    {
        Matrix h;
        auto coordDist = [&](double w, double d) {
            const Matrix ev = qmath::expim(problem.ham(h, w, d), tau);
            return weyl::weylCoordinate(ev).distance(effcan);
        };
        double w = fold.best.omega;
        double d = fold.best.delta;
        double step = 1e-5;
        double cur = coordDist(w, d);
        for (int it = 0; it < 120 && step > 1e-14; ++it) {
            double bw = w, bd = d, bc = cur;
            for (int dir = 0; dir < 4; ++dir) {
                const double cw =
                    w + (dir == 0 ? step : dir == 1 ? -step : 0.0);
                const double cd =
                    d + (dir == 2 ? step : dir == 3 ? -step : 0.0);
                const double v = coordDist(cw, cd);
                if (v < bc) {
                    bc = v;
                    bw = cw;
                    bd = cd;
                }
            }
            if (bc < cur) {
                w = bw;
                d = bd;
                cur = bc;
            } else {
                step *= 0.5;
            }
            if (cur < 1e-10)
                break;
        }
        sol.omega1 = plus ? 0.0 : w;
        sol.omega2 = plus ? w : 0.0;
        sol.delta = d;
    }
    sol.tau = tau;
    return true;
}

PulseSolution
GateScheme::solveCoord(const weyl::WeylCoord &target) const
{
    PulseSolution sol;
    sol.target = target;
    DurationInfo info = durationInfo(cpl_, target);
    sol.scheme = info.scheme;
    sol.tau = info.tau;
    sol.effective = info.effective;

    if (info.tau < 1e-12) {
        // Identity-class gate: nothing to do.
        sol.converged = true;
        sol.coordError = 0.0;
        return sol;
    }

    // Solutions are verified against the canonicalized effective
    // coordinate: the effective one may sit outside the chamber (the
    // tau2 branch mirrors it back).
    const weyl::WeylCoord effcan =
        weyl::weylCoordinate(weyl::canonicalGate(info.effective));
    // The predicted subscheme first, then the other two in ND, EA+,
    // EA- order: numerical ties between constraints can put the
    // point on a subscheme boundary. A failed attempt's writes to
    // `sol` stay for the next one to overwrite.
    std::array<SubScheme, 3> order{info.scheme};
    std::size_t next = 1;
    for (SubScheme s :
         {SubScheme::ND, SubScheme::EAPlus, SubScheme::EAMinus})
        if (s != info.scheme)
            order[next++] = s;
    bool ok = false;
    for (SubScheme s : order) {
        switch (s) {
          case SubScheme::ND:
            ok = solveNd(info.tau, info.effective, sol);
            break;
          case SubScheme::EAPlus:
            ok = solveEa(info.tau, info.effective, effcan, true, sol);
            break;
          case SubScheme::EAMinus:
            ok = solveEa(info.tau, info.effective, effcan, false, sol);
            break;
        }
        if (ok) {
            sol.scheme = s;
            break;
        }
    }
    if (!ok)
        return sol;

    // Final verification against the canonicalized effective coords.
    const Matrix ev = evolution(sol);
    sol.coordError = weyl::weylCoordinate(ev).distance(effcan);
    sol.converged = sol.coordError < 1e-6;
    return sol;
}

PulseSolution
GateScheme::solve(const Matrix &u) const
{
    weyl::KakDecomposition k = weyl::kakDecompose(u);
    PulseSolution sol = solveCoord(k.coord);
    if (!sol.converged)
        return sol;
    const Matrix ev = evolution(sol);
    // u = phase (a1 x a2) ev (b1 x b2): conjugate the decompositions.
    weyl::KakDecomposition ke = weyl::kakDecompose(ev);
    assert(ke.coord.approxEqual(k.coord, 1e-6));
    const Complex scale = k.phase / ke.phase;
    sol.a1 = k.a1 * ke.a1.dagger() * scale;
    sol.a2 = k.a2 * ke.a2.dagger();
    sol.b1 = ke.b1.dagger() * k.b1;
    sol.b2 = ke.b2.dagger() * k.b2;
    sol.hasCorrections = true;
    return sol;
}

bool
needsMirror(const weyl::WeylCoord &c, double r)
{
    return c.norm1() <= r;
}

ArbitrarySolution
solveArbitrary(const Matrix &h, const Matrix &u)
{
    ArbitrarySolution out;
    out.frame = normalForm(h);
    GateScheme scheme(out.frame.coupling);

    // Solve in the canonical frame for the target's coordinates.
    out.canonical = scheme.solve(u);
    if (!out.canonical.converged)
        return out;

    // Physical drives: H_i = U_i H''_i U_i^dagger - H'_i.
    const Matrix &x = qmath::pauliX();
    const Matrix &z = qmath::pauliZ();
    const Matrix h1pp =
        x * Complex(out.canonical.omega1 + out.canonical.omega2, 0.0) +
        z * Complex(out.canonical.delta, 0.0);
    const Matrix h2pp =
        x * Complex(out.canonical.omega1 - out.canonical.omega2, 0.0) +
        z * Complex(out.canonical.delta, 0.0);
    out.h1 = out.frame.u1 * h1pp * out.frame.u1.dagger() -
             out.frame.h1local;
    out.h2 = out.frame.u2 * h2pp * out.frame.u2.dagger() -
             out.frame.h2local;

    // Physical evolution and corrections.
    Matrix htot = h + kron(out.h1, Matrix::identity(2)) +
                  kron(Matrix::identity(2), out.h2);
    const Matrix ev = qmath::expim(htot, out.canonical.tau);
    weyl::KakDecomposition ku = weyl::kakDecompose(u);
    weyl::KakDecomposition ke = weyl::kakDecompose(ev);
    if (!ku.coord.approxEqual(ke.coord, 1e-6))
        return out;
    const Complex scale = ku.phase / ke.phase;
    out.a1 = ku.a1 * ke.a1.dagger() * scale;
    out.a2 = ku.a2 * ke.a2.dagger();
    out.b1 = ke.b1.dagger() * ku.b1;
    out.b2 = ke.b2.dagger() * ku.b2;
    out.converged = true;
    return out;
}

} // namespace reqisc::uarch
