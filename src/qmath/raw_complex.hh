/**
 * @file
 * The element type of the fixed-size Jacobi solvers (svd.cc, eig.cc):
 * one complex value as two raw doubles, with operators that round
 * exactly as std::complex<double> does on finite operands. Not part
 * of the qmath API.
 *
 * The fixed-size paths must return the same bits as the runtime-n
 * reference paths (svdGeneric / eighGeneric), so each operator below
 * is the one GCC/libstdc++ lowers the std::complex expression to:
 *
 *   a * b (complex)   (ar*br - ai*bi, ar*bi + ai*br); std::complex
 *                     only differs when both parts come out NaN (the
 *                     Annex G infinity recovery), i.e. never for the
 *                     finite inputs the contract covers.
 *   s * a (real)      componentwise, as is a / d (real divisor).
 *   norm(a)           ar*ar + ai*ai, as std::norm.
 *   abs(a)            std::abs(Complex) itself (cabs/hypot): a
 *                     hand-written sqrt(norm) rounds differently.
 *
 * Both TUs that use it build with -ffp-contract=off, so neither path
 * fuses a mul/add pair into an FMA under any -march.
 */

#ifndef REQISC_QMATH_RAW_COMPLEX_HH
#define REQISC_QMATH_RAW_COMPLEX_HH

#include <complex>

namespace reqisc::qmath::detail
{

struct Cx
{
    double re;
    double im;
};

inline Cx
operator*(Cx a, Cx b)
{
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

inline Cx
operator*(double s, Cx a)
{
    return {s * a.re, s * a.im};
}

inline Cx
operator/(Cx a, double d)
{
    return {a.re / d, a.im / d};
}

inline Cx
operator+(Cx a, Cx b)
{
    return {a.re + b.re, a.im + b.im};
}

inline Cx
operator-(Cx a)
{
    return {-a.re, -a.im};
}

inline Cx &
operator+=(Cx &a, Cx b)
{
    a.re += b.re;
    a.im += b.im;
    return a;
}

inline Cx &
operator-=(Cx &a, Cx b)
{
    a.re -= b.re;
    a.im -= b.im;
    return a;
}

inline Cx
conj(Cx a)
{
    return {a.re, -a.im};
}

inline double
norm(Cx a)
{
    return a.re * a.re + a.im * a.im;
}

inline double
abs(Cx a)
{
    return std::abs(std::complex<double>(a.re, a.im));
}

} // namespace reqisc::qmath::detail

#endif // REQISC_QMATH_RAW_COMPLEX_HH
