/**
 * @file
 * The genAshN gate scheme: ReQISC's microarchitecture (Algorithm 1).
 *
 * Given a canonical coupling (a, b, c) and a target U in SU(4), the
 * solver emits simple pulse parameters (Omega1, Omega2, delta, tau)
 * such that
 *   exp(-i tau (H + (O1+O2) XI + (O1-O2) IX + delta (ZI + IZ)))
 * is locally equivalent to U with tau equal to the theoretical
 * minimum, plus the one-qubit corrections of Eq. (5). One of the
 * three micro-op subschemes (ND / EA+ / EA-) applies depending on
 * which duration constraint binds.
 *
 * The EA transcendental equations are solved by matching the trace of
 * V = exp(-i tau H_tot) (YY) against the analytically known target
 * spectrum (Appendix A.5), with a grid-multistart damped-Newton
 * solver, and every solution is verified by re-extracting the Weyl
 * coordinates of the produced evolution. The multistart's Newton
 * starts can run speculatively on a shared synth::BlockPool; their
 * results are folded in grid order, so a solution is bit-identical
 * at every worker count.
 */

#ifndef REQISC_UARCH_GENASHN_HH
#define REQISC_UARCH_GENASHN_HH

#include "uarch/coupling.hh"
#include "uarch/duration.hh"
#include "weyl/weyl.hh"

namespace reqisc::synth
{
class BlockPool;
}

namespace reqisc::uarch
{

/** Complete pulse-level solution for one two-qubit gate. */
struct PulseSolution
{
    bool converged = false;
    SubScheme scheme = SubScheme::ND;
    double tau = 0.0;       //!< gate time (units of 1/g with g the
                            //!< coupling strength scale)
    double omega1 = 0.0;    //!< drive parameter Omega1
    double omega2 = 0.0;    //!< drive parameter Omega2
    double delta = 0.0;     //!< shared detuning
    weyl::WeylCoord target;     //!< requested coordinate
    weyl::WeylCoord effective;  //!< steered coordinate (tau2 branch
                                //!< realizes the mirror-equivalent)
    double coordError = 1.0;    //!< |realized - effective| coordinate
                                //!< distance after verification

    /** Raw drive amplitudes A1 = -2(O1+O2), A2 = -2(O1-O2). */
    double ampA1() const { return -2.0 * (omega1 + omega2); }
    double ampA2() const { return -2.0 * (omega1 - omega2); }

    /** Physical-implementation penalty |A1| + |A2| + |2 delta|. */
    double amplitudePenalty() const;

    /** One-qubit corrections: (a1 x a2) E (b1 x b2) = U exactly. */
    Matrix a1, a2, b1, b2;
    bool hasCorrections = false;
};

/** genAshN solver bound to one canonical coupling. */
class GateScheme
{
  public:
    /**
     * @param pool optional shared task pool (not owned; must outlive
     *        the scheme). The EA solve runs one worker task per pool
     *        executor; the workers claim grid starts in order and
     *        fold their results in grid order, so every solution is
     *        bit-identical to the serial one; nullptr solves inline.
     */
    explicit GateScheme(const Coupling &cpl,
                        synth::BlockPool *pool = nullptr);

    const Coupling &coupling() const { return cpl_; }

    /**
     * Solve for the pulse parameters steering to a Weyl coordinate
     * (no one-qubit corrections).
     */
    PulseSolution solveCoord(const weyl::WeylCoord &target) const;

    /**
     * Solve for a concrete unitary including the one-qubit
     * corrections of Eq. (5).
     */
    PulseSolution solve(const Matrix &u) const;

    /** Evolution generated by a solution (canonical frame). */
    Matrix evolution(const PulseSolution &s) const;

    /** Total Hamiltonian with the solution's drives. */
    Matrix totalHamiltonian(const PulseSolution &s) const;

  private:
    Coupling cpl_;
    synth::BlockPool *pool_;

    bool solveNd(double tau, const weyl::WeylCoord &eff,
                 PulseSolution &sol) const;
    /** @param effcan weylCoordinate(canonicalGate(eff)) */
    bool solveEa(double tau, const weyl::WeylCoord &eff,
                 const weyl::WeylCoord &effcan, bool plus,
                 PulseSolution &sol) const;
};

/**
 * The near-identity threshold r of Section 4.3: the L1 norm of a Weyl
 * coordinate at or below which a gate is mirrored.
 */
inline constexpr double kMirrorThreshold = 0.1;

/**
 * Near-identity test of Section 4.3: gates with L1-norm coordinate
 * at or below the hardware threshold r are mirrored at compile time.
 */
bool needsMirror(const weyl::WeylCoord &c, double r = kMirrorThreshold);

/** Solution for an arbitrary (non-canonical) device Hamiltonian. */
struct ArbitrarySolution
{
    bool converged = false;
    HamiltonianNormalForm frame;
    PulseSolution canonical;   //!< solution in the canonical frame
    Matrix h1, h2;             //!< physical local drive Hamiltonians
    Matrix a1, a2, b1, b2;     //!< one-qubit corrections
};

/**
 * Full Algorithm 1 for any Hermitian 4x4 device Hamiltonian: normal
 * form, canonical-frame solve, drive mapping H_i = U_i H''_i U_i^+ -
 * H'_i, and one-qubit corrections so that
 * (a1 x a2) exp(-i tau (H + H1 + H2)) (b1 x b2) = U.
 */
ArbitrarySolution solveArbitrary(const Matrix &h, const Matrix &u);

} // namespace reqisc::uarch

#endif // REQISC_UARCH_GENASHN_HH
