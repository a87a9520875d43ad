/**
 * @file
 * Makhlin local invariants of two-qubit gates.
 *
 * (G1, G2) with G1 complex and G2 real are invariant under one-qubit
 * gates and determine the local-equivalence class — a cheaper test
 * than a full KAK decomposition. No other src/ file uses them: the
 * test suite does, as an oracle independent of KAK. Distinct SU(4)
 * classes are clustered by Weyl coordinate (Circuit::su4Classes).
 *
 * Convention (Makhlin 2002): with M = MB^dagger U MB the magic-basis
 * transform, G1 = tr(M^T M)^2 / (16 det U) and
 * G2 = (tr(M^T M)^2 - tr((M^T M)^2)) / (4 det U), which makes both
 * invariants insensitive to global phase.
 */

#ifndef REQISC_WEYL_INVARIANTS_HH
#define REQISC_WEYL_INVARIANTS_HH

#include "weyl/weyl.hh"

namespace reqisc::weyl
{

/** The Makhlin invariant pair of a two-qubit gate. */
struct MakhlinInvariants
{
    Complex g1{0.0, 0.0};
    double g2 = 0.0;

    bool approxEqual(const MakhlinInvariants &o,
                     double tol = 1e-9) const
    {
        return std::abs(g1 - o.g1) <= tol && std::abs(g2 - o.g2) <=
               tol;
    }
};

/** Compute the invariants of a 4x4 unitary. */
MakhlinInvariants makhlinInvariants(const Matrix &u);

/** Invariants evaluated directly from a Weyl coordinate. */
MakhlinInvariants makhlinFromCoord(const WeylCoord &c);

/**
 * Local-equivalence test via invariants (no KAK); tolerance applies
 * to the invariant distance.
 */
bool locallyEquivalentFast(const Matrix &u, const Matrix &v,
                           double tol = 1e-8);

} // namespace reqisc::weyl

#endif // REQISC_WEYL_INVARIANTS_HH
