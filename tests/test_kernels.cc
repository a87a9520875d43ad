/**
 * @file
 * The qmath kernel layer's three contracts, pinned:
 *
 *  1. Bit-identity: the SIMD backend produces exactly the same
 *     doubles as the scalar backend for every kernel at every
 *     supported size — oracled over randomized unitaries in one
 *     binary via setSimdEnabled(), and end to end by compiling every
 *     checked-in example circuit with SIMD on vs off and comparing
 *     the artifacts byte for byte.
 *
 *  2. The generic-matmul skip branch: small (<= 8x8) dense operands
 *     run every accumulation (non-finite values propagate), larger
 *     ones keep the structured-zero skip (a zero row contributes
 *     exactly nothing). Deliberate, observable behavior — pinned so
 *     it only changes on purpose.
 *
 *  3. Allocation-freedom: the 4x4/8x8 hot expressions (the synthesis
 *     inner loops) perform zero heap allocations once their
 *     destinations exist, counted by a global operator new hook.
 *
 *  4. Fixed-size solvers: svd() and eigh() at n = 2 and 4 return
 *     exactly the bits of their runtime-n references svdGeneric() /
 *     eighGeneric(), oracled with memcmp over 10k+ seeded inputs per
 *     size per solver across the degenerate families synthesis and
 *     pulse solving feed them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "circuit/qasm.hh"
#include "qmath/eig.hh"
#include "qmath/kernels.hh"
#include "qmath/random.hh"
#include "qmath/svd.hh"
#include "service/service.hh"
#include "test_util.hh"

// ---- Global allocation counter (contract 3) ------------------------
// Counts every path into the heap, including the aligned forms
// std::vector<Matrix> uses now that Matrix carries a 32-byte-aligned
// inline buffer.

namespace
{
std::atomic<long> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::size_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(al, (n + al - 1) & ~(al - 1)))
        return p;
    throw std::bad_alloc();
}
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }

void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(al));
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(al));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace reqisc;
using qmath::Complex;
using qmath::Matrix;
using test::bitIdentical;
using test::SimdGuard;
namespace kernels = qmath::kernels;

// ---- Contract 1: scalar-vs-SIMD oracle -----------------------------

TEST(KernelsBitIdentity, MulAtEverySpecializedSize)
{
    SimdGuard guard;
    if (!kernels::setSimdEnabled(true))
        GTEST_SKIP() << "SIMD backend unavailable in this build";
    qmath::Rng rng(7);
    for (int n : {2, 4, 8}) {
        for (int trial = 0; trial < 32; ++trial) {
            const Matrix a = qmath::randomUnitary(n, rng);
            const Matrix b = qmath::randomUnitary(n, rng);
            Matrix rs, rv;
            kernels::setSimdEnabled(false);
            kernels::mulInto(rs, a, b);
            const Complex ts = kernels::mulTrace(a, b);
            kernels::setSimdEnabled(true);
            kernels::mulInto(rv, a, b);
            const Complex tv = kernels::mulTrace(a, b);
            ASSERT_TRUE(bitIdentical(rs, rv)) << "mul n=" << n;
            // mulTrace is scalar on every backend, and must equal
            // the full product's trace bit for bit (same chains).
            ASSERT_EQ(std::memcmp(&ts, &tv, sizeof ts), 0);
            const Complex tp = kernels::trace(rv);
            ASSERT_EQ(std::memcmp(&ts, &tp, sizeof ts), 0)
                << "mulTrace != trace(mul) at n=" << n;
        }
    }
}

TEST(KernelsBitIdentity, KronDaggerAxpyScale)
{
    SimdGuard guard;
    if (!kernels::setSimdEnabled(true))
        GTEST_SKIP() << "SIMD backend unavailable in this build";
    qmath::Rng rng(11);
    const std::vector<std::pair<int, int>> kronDims = {
        {2, 2}, {2, 4}, {4, 2}, {2, 3}, {3, 2}};
    for (int trial = 0; trial < 32; ++trial) {
        for (auto [an, bn] : kronDims) {
            const Matrix a = qmath::randomUnitary(an, rng);
            const Matrix b = qmath::randomUnitary(bn, rng);
            Matrix ks, kv;
            kernels::setSimdEnabled(false);
            kernels::kronInto(ks, a, b);
            kernels::setSimdEnabled(true);
            kernels::kronInto(kv, a, b);
            ASSERT_TRUE(bitIdentical(ks, kv))
                << "kron " << an << "x" << bn;
        }
        for (int n : {2, 4, 8}) {
            const Matrix a = qmath::randomUnitary(n, rng);
            const Matrix x = qmath::randomUnitary(n, rng);
            std::uniform_real_distribution<double> u(-2.0, 2.0);
            // Imaginary part first (tools/check_rng_draws.py).
            const double im = u(rng);
            const double re = u(rng);
            const Complex s(re, im);
            Matrix ds, dv, ys, yv, ss, sv;
            kernels::setSimdEnabled(false);
            kernels::daggerInto(ds, a);
            ys = a;
            kernels::axpyInPlace(ys, s, x);
            ss = a;
            kernels::scaleInPlace(ss, s);
            kernels::setSimdEnabled(true);
            kernels::daggerInto(dv, a);
            yv = a;
            kernels::axpyInPlace(yv, s, x);
            sv = a;
            kernels::scaleInPlace(sv, s);
            ASSERT_TRUE(bitIdentical(ds, dv)) << "dagger n=" << n;
            ASSERT_TRUE(bitIdentical(ys, yv)) << "axpy n=" << n;
            ASSERT_TRUE(bitIdentical(ss, sv)) << "scale n=" << n;
        }
    }
}

TEST(KernelsBitIdentity, DispatchReportsItsState)
{
    SimdGuard guard;
    EXPECT_STREQ(kernels::backendName(),
                 kernels::simdActive() ? "avx2" : "scalar");
    kernels::setSimdEnabled(false);
    EXPECT_FALSE(kernels::simdActive());
    EXPECT_STREQ(kernels::backendName(), "scalar");
    if (kernels::simdCompiledIn() && kernels::setSimdEnabled(true)) {
        EXPECT_STREQ(kernels::backendName(), "avx2");
    }
}

// ---- Contract 2: the skip-branch boundary --------------------------

TEST(KernelsSkipBranch, SmallDenseOperandsPropagateNonFinites)
{
    // A zero entry meeting an infinity accumulates 0 * inf = NaN in
    // the dense (<= 8x8) path — every chain really runs.
    for (int n : {2, 4, 8}) {
        Matrix a(n, n), b(n, n);
        // a's first row is entirely zero; b(0,0) is infinite.
        for (int i = 1; i < n; ++i)
            a(i, i) = Complex(1.0, 0.0);
        b(0, 0) = Complex(INFINITY, 0.0);
        const Matrix r = a * b;  // dispatched kernel
        EXPECT_TRUE(std::isnan(r(0, 0).real()))
            << "n=" << n << ": dense path must run the 0 * inf chain";
        Matrix g;
        kernels::mulGenericInto(g, a, b);
        EXPECT_TRUE(std::isnan(g(0, 0).real()))
            << "n=" << n << ": generic dense loop must match";
    }
}

TEST(KernelsSkipBranch, LargeOperandsStillSkipZeroRows)
{
    // Above the inline size the structured-zero skip is kept: a zero
    // a(i,k) contributes exactly nothing, so the same 0-row-meets-inf
    // construction yields an exact 0.0, not NaN.
    const int n = 9;
    Matrix a(n, n), b(n, n);
    for (int i = 1; i < n; ++i)
        a(i, i) = Complex(1.0, 0.0);
    b(0, 0) = Complex(INFINITY, 0.0);
    const Matrix r = a * b;
    EXPECT_EQ(r(0, 0), Complex(0.0, 0.0))
        << "skip path must not touch the zero row";
    EXPECT_TRUE(std::isinf(r(1, 0).real()) || r(1, 0) == Complex(0.0, 0.0))
        << "nonzero rows still multiply through";
}

// ---- Contract 3: allocation-free hot expressions -------------------

TEST(KernelsAllocation, SmallMatrixHotExpressionsAreHeapFree)
{
    qmath::Rng rng(13);
    for (int n : {4, 8}) {
        const Matrix a = qmath::randomUnitary(n, rng);
        const Matrix b = qmath::randomUnitary(n, rng);
        const Matrix b2 = qmath::randomUnitary(2, rng);
        const Complex s(0.25, -0.5);
        Matrix dst, k, d;
        // Warm the destinations, then demand zero allocations from
        // the full set of hot expressions — including the
        // value-returning operators, whose results live in the
        // inline buffer.
        kernels::mulInto(dst, a, b);
        const long before = g_allocs.load(std::memory_order_relaxed);
        for (int rep = 0; rep < 16; ++rep) {
            kernels::mulInto(dst, a, b);
            if (n <= 4)
                kernels::kronInto(k, a, b2);
            kernels::daggerInto(d, dst);
            kernels::axpyInPlace(dst, s, a);
            kernels::scaleInPlace(dst, s);
            const Complex t = kernels::mulTrace(a, b);
            (void)t;
            const Matrix prod = a * b;
            const Matrix dd = prod.dagger();
            Matrix moved = std::move(d);
            d = std::move(moved);
            dst = prod + dd;
        }
        const long after = g_allocs.load(std::memory_order_relaxed);
        EXPECT_EQ(after, before)
            << "n=" << n << ": " << (after - before)
            << " heap allocation(s) in the hot loop";
    }
}

TEST(KernelsAllocation, LargeMatricesStillSpillToTheHeap)
{
    // Sanity check on the counter itself and the SBO boundary: a
    // 16x16 product must allocate.
    qmath::Rng rng(17);
    const Matrix a = qmath::randomUnitary(16, rng);
    const Matrix b = qmath::randomUnitary(16, rng);
    const long before = g_allocs.load(std::memory_order_relaxed);
    Matrix dst;
    kernels::mulInto(dst, a, b);
    EXPECT_GT(g_allocs.load(std::memory_order_relaxed), before);
}

// ---- Contract 4: fixed-size solvers vs their runtime-n references --

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** 2 * (U + 1e-9 G): a scaled unitary under tiny noise. */
Matrix
nearUnitary(int n, qmath::Rng &rng)
{
    Matrix a = qmath::randomUnitary(n, rng);
    kernels::axpyInPlace(a, Complex(1e-9, 0.0),
                         qmath::randomGinibre(n, rng));
    kernels::scaleInPlace(a, Complex(2.0, 0.0));
    return a;
}

/** Ginibre with its last columns exact copies (x2) of earlier ones. */
Matrix
rankDeficient(int n, qmath::Rng &rng)
{
    Matrix a = qmath::randomGinibre(n, rng);
    const int rank = 1 + static_cast<int>(rng() % (n - 1));
    for (int j = rank; j < n; ++j)
        for (int i = 0; i < n; ++i)
            a(i, j) = a(i, j % rank) * 2.0;
    return a;
}

/** U diag(w) U^dagger, w drawn from `distinct` values (repeats). */
Matrix
conjugatedSpectrum(int n, int distinct, qmath::Rng &rng)
{
    std::normal_distribution<double> g(0.0, 1.0);
    std::vector<double> vals(distinct);
    for (double &x : vals)
        x = g(rng);
    Matrix d(n, n);
    for (int i = 0; i < n; ++i)
        d(i, i) = vals[i % distinct];
    const Matrix u = qmath::randomUnitary(n, rng);
    return u * d * u.dagger();
}

/** Real diagonal plus Hermitian off-diagonal entries of size 1e-9. */
Matrix
nearDiagonal(int n, qmath::Rng &rng)
{
    Matrix h = qmath::randomHermitian(n, rng);
    std::normal_distribution<double> g(0.0, 1.0);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            h(i, j) = i == j ? Complex(g(rng), 0.0) : h(i, j) * 1e-9;
    return h;
}

/** The fixed inputs every oracle also runs: identity, zero, repeats. */
std::vector<Matrix>
fixedInputs(int n)
{
    std::vector<Matrix> out = {Matrix::identity(n), Matrix(n, n),
                               Matrix::identity(n) * Complex(2.0, 0.0)};
    Matrix rep(n, n);
    for (int i = 0; i < n; ++i)
        rep(i, i) = i < n / 2 ? 1.0 : -2.0;
    out.push_back(rep);
    return out;
}

constexpr int kOracleInputs = 10000;

TEST(FixedSolversBitIdentity, SvdMatchesGenericAtTwoAndFour)
{
    for (int n : {2, 4}) {
        qmath::Rng rng(1000 + n);
        std::vector<Matrix> inputs = fixedInputs(n);
        for (int k = 0; k < kOracleInputs; ++k) {
            switch (k % 4) {
              case 0: inputs.push_back(qmath::randomGinibre(n, rng)); break;
              case 1: inputs.push_back(qmath::randomUnitary(n, rng)); break;
              case 2: inputs.push_back(rankDeficient(n, rng)); break;
              default: inputs.push_back(nearUnitary(n, rng)); break;
            }
        }
        int mismatches = 0;
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            const qmath::SvdResult fast = qmath::svd(inputs[k]);
            const qmath::SvdResult ref = qmath::svdGeneric(inputs[k]);
            const bool same = bitIdentical(fast.u, ref.u) &&
                              bitIdentical(fast.v, ref.v) &&
                              sameBits(fast.s, ref.s);
            if (!same && ++mismatches <= 3)
                ADD_FAILURE() << "n=" << n << " input " << k << ":\n"
                              << inputs[k].toString(17);
        }
        EXPECT_EQ(mismatches, 0) << "n=" << n << " of " << inputs.size();
    }
}

TEST(FixedSolversBitIdentity, EighMatchesGenericAtTwoAndFour)
{
    for (int n : {2, 4}) {
        qmath::Rng rng(2000 + n);
        std::vector<Matrix> inputs = fixedInputs(n);
        for (int k = 0; k < kOracleInputs; ++k) {
            switch (k % 5) {
              case 0: inputs.push_back(qmath::randomHermitian(n, rng)); break;
              case 1: inputs.push_back(conjugatedSpectrum(n, n, rng)); break;
              case 2: {
                  // Real symmetric (the KAK eighReal inputs).
                  Matrix h = qmath::randomHermitian(n, rng);
                  for (int i = 0; i < n; ++i)
                      for (int j = 0; j < n; ++j)
                          h(i, j) = Complex(h(i, j).real(), 0.0);
                  inputs.push_back(h);
                  break;
              }
              case 3: inputs.push_back(nearDiagonal(n, rng)); break;
              default:
                  // Exactly repeated eigenvalues.
                  inputs.push_back(conjugatedSpectrum(n, n / 2, rng));
                  break;
            }
        }
        int mismatches = 0;
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            const qmath::EigResult fast = qmath::eigh(inputs[k]);
            const qmath::EigResult ref = qmath::eighGeneric(inputs[k]);
            const bool same = bitIdentical(fast.vectors, ref.vectors) &&
                              sameBits(fast.values, ref.values);
            if (!same && ++mismatches <= 3)
                ADD_FAILURE() << "n=" << n << " input " << k << ":\n"
                              << inputs[k].toString(17);
        }
        EXPECT_EQ(mismatches, 0) << "n=" << n << " of " << inputs.size();
    }
}

// ---- Contract 1, end to end: artifacts with SIMD on vs off ---------

struct Artifact
{
    std::string qasm;
    std::vector<int> permutation;
};

Artifact
compileExample(const std::string &source)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);
    service::CompileRequest req;
    req.name = "identity-check";
    req.qasm = source;
    req.pipelineSpec = "full";
    svc.submit(std::move(req));
    const service::JobResult r = svc.waitAll().front();
    EXPECT_TRUE(r.ok) << r.errorInfo.message;
    return {circuit::toQasm(r.compiled.circuit),
            r.compiled.finalPermutation};
}

TEST(KernelsBitIdentity, CompiledArtifactsMatchSimdOnVsOff)
{
    SimdGuard guard;
    if (!kernels::setSimdEnabled(true))
        GTEST_SKIP() << "SIMD backend unavailable in this build";
    const std::vector<std::string> examples = {
        "/examples/qasm/ghz8.qasm", "/examples/qasm/qft4.qasm",
        "/examples/qasm/adder5.qasm", "/examples/qasm/ising6.qasm"};
    for (const std::string &rel : examples) {
        const std::string src = test::readFile(REQISC_SOURCE_DIR + rel);
        ASSERT_FALSE(src.empty()) << rel;
        kernels::setSimdEnabled(true);
        const Artifact with = compileExample(src);
        kernels::setSimdEnabled(false);
        const Artifact without = compileExample(src);
        // 17-significant-digit OpenQASM: byte equality is double
        // equality for every gate parameter in the artifact.
        EXPECT_EQ(with.qasm, without.qasm) << rel;
        EXPECT_EQ(with.permutation, without.permutation) << rel;
    }
}

} // namespace
