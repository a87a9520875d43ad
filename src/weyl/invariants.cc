#include "weyl/invariants.hh"

#include <cmath>

namespace reqisc::weyl
{

MakhlinInvariants
makhlinInvariants(const Matrix &u)
{
    assert(u.rows() == 4 && u.cols() == 4);
    const Matrix &mb = magicBasis();
    const Matrix m = mb.dagger() * u * mb;
    const Matrix mtm = m.transpose() * m;
    const Complex tr = mtm.trace();
    const Complex tr2 = (mtm * mtm).trace();
    const Complex det = qmath::determinant(u);
    MakhlinInvariants inv;
    inv.g1 = tr * tr / (16.0 * det);
    inv.g2 = ((tr * tr - tr2) / (4.0 * det)).real();
    return inv;
}

MakhlinInvariants
makhlinFromCoord(const WeylCoord &c)
{
    return makhlinInvariants(canonicalGate(c));
}

bool
locallyEquivalentFast(const Matrix &u, const Matrix &v, double tol)
{
    return makhlinInvariants(u).approxEqual(makhlinInvariants(v),
                                            tol);
}

} // namespace reqisc::weyl
