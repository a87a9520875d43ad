/**
 * @file
 * Weyl chamber geometry and the KAK (canonical) decomposition.
 *
 * Conventions follow the paper body: the canonical gate is
 *   Can(x, y, z) := exp(-i (x XX + y YY + z ZZ))
 * and the Weyl chamber is
 *   W := { pi/4 >= x >= y >= |z|, z >= 0 if x = pi/4 }.
 * Any U in U(4) factors as
 *   U = phase * (A1 (x) A2) * Can(x, y, z) * (B1 (x) B2)
 * with A_i, B_i in SU(2); this module computes that factorization and
 * canonicalizes the coordinates into W with explicit, individually
 * verifiable local-correction moves.
 */

#ifndef REQISC_WEYL_WEYL_HH
#define REQISC_WEYL_WEYL_HH

#include <array>
#include <cmath>
#include <string>

#include "qmath/matrix.hh"
#include "qmath/random.hh"

namespace reqisc::weyl
{

using qmath::Complex;
using qmath::Matrix;

/** A point (x, y, z) in (or near) the Weyl chamber. */
struct WeylCoord
{
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    /** Chamber membership test (with tolerance on the boundary). */
    bool inChamber(double tol = 1e-9) const;

    /** L1 norm |x|+|y|+|z|, the near-identity metric of Section 4.3. */
    double norm1() const { return std::abs(x) + std::abs(y) +
                                  std::abs(z); }

    /** Euclidean distance to another coordinate. */
    double distance(const WeylCoord &o) const;

    bool approxEqual(const WeylCoord &o, double tol = 1e-9) const;

    std::string toString() const;

    // Coordinates of the named gate classes used throughout the paper.
    static WeylCoord identity() { return {0.0, 0.0, 0.0}; }
    static WeylCoord cnot();    //!< (pi/4, 0, 0), also CZ
    static WeylCoord iswap();   //!< (pi/4, pi/4, 0)
    static WeylCoord swap();    //!< (pi/4, pi/4, pi/4)
    static WeylCoord sqisw();   //!< (pi/8, pi/8, 0)
    static WeylCoord bgate();   //!< (pi/4, pi/8, 0)
    static WeylCoord cv();      //!< (pi/8, 0, 0), controlled-sqrt(X)
};

/** The canonical gate Can(x,y,z) = exp(-i(x XX + y YY + z ZZ)). */
Matrix canonicalGate(const WeylCoord &c);

/** The magic (Bell) basis change matrix M of Appendix A. */
const Matrix &magicBasis();

/**
 * Diagonals of M^dagger P M for the two-qubit Paulis P = XX, YY, ZZ
 * (M = magicBasis()); each P is diagonal in the magic basis with
 * entries +-1, so Can(x, y, z) there has eigenphases
 * -(x xx[k] + y yy[k] + z zz[k]).
 */
struct MagicSigns
{
    std::array<double, 4> xx, yy, zz;
};

const MagicSigns &magicSigns();

/**
 * The sqrt(X) rotation exp(-i pi/4 X). Conjugating Can by V (x) V
 * swaps its y and z coordinates.
 */
const Matrix &vGate();

/**
 * Full KAK decomposition
 * u = phase * (a1 (x) a2) * Can(coord) * (b1 (x) b2).
 */
struct KakDecomposition
{
    Complex phase{1.0, 0.0};
    Matrix a1, a2;     //!< left (applied after Can) SU(2) factors
    Matrix b1, b2;     //!< right (applied before Can) SU(2) factors
    WeylCoord coord;

    /** Rebuild the 4x4 unitary from the factors. */
    Matrix reconstruct() const;
};

/**
 * Decompose a 4x4 unitary. The returned coordinates are always inside
 * the Weyl chamber and reconstruct() equals u to ~1e-12.
 *
 * @param u (approximately) unitary 4x4 input
 */
KakDecomposition kakDecompose(const Matrix &u);

/** Weyl coordinates only (cheaper interface, same algorithm). */
WeylCoord weylCoordinate(const Matrix &u);

/** True iff u and v differ only by one-qubit gates (same coordinate). */
bool locallyEquivalent(const Matrix &u, const Matrix &v,
                       double tol = 1e-8);

/**
 * Coordinates of the mirror gate SWAP * Can(x,y,z) (Section 4.3).
 * Mirroring maps near-identity gates to the far side of the chamber.
 */
WeylCoord mirrorCoord(const WeylCoord &c);

/**
 * Haar-random expectation sample of Weyl coordinates: the coordinate
 * of a Haar-random SU(4) drawn with the given engine.
 */
WeylCoord randomWeylCoord(qmath::Rng &rng);

} // namespace reqisc::weyl

#endif // REQISC_WEYL_WEYL_HH
