/**
 * @file
 * Shared helpers for the gtest suites: matrix near-equality assertions
 * (entrywise and up-to-global-phase, the right notion for comparing
 * compiled circuits), bit-exact matrix and circuit equality, and the
 * legacy instantiation and routing oracles. Linked into every suite as
 * the reqisc_test_util object library.
 */

#ifndef REQISC_TESTS_TEST_UTIL_HH
#define REQISC_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "qmath/matrix.hh"
#include "qmath/random.hh"
#include "route/sabre.hh"
#include "synth/instantiate.hh"

namespace reqisc::test
{

/** Assert entrywise equality of two matrices with tolerance. */
::testing::AssertionResult matrixNear(const qmath::Matrix &a,
                                      const qmath::Matrix &b,
                                      double tol);

/** Assert equality up to a global phase. */
::testing::AssertionResult matrixNearUpToPhase(const qmath::Matrix &a,
                                               const qmath::Matrix &b,
                                               double tol);

/** Bit-exact matrix equality: memcmp of every entry. */
::testing::AssertionResult bitIdentical(const qmath::Matrix &a,
                                        const qmath::Matrix &b);

/** Bit-exact gate-stream equality (no tolerance anywhere). */
::testing::AssertionResult circuitsIdentical(const circuit::Circuit &a,
                                             const circuit::Circuit &b);

/**
 * synth::instantiate as it was before the light-cone certificate,
 * kept verbatim as the oracle the certificate is checked against:
 * every result it reports converged must come back bit-identical.
 */
synth::InstantiateResult
legacyInstantiate(const qmath::Matrix &target, int num_qubits,
                  const std::vector<synth::Slot> &structure,
                  const synth::InstantiateOptions &opts = {});

/**
 * route::sabreRoute as it was when every SWAP decision rescanned the
 * circuit for ready gates and walked back up to 257 emitted gates per
 * absorb check, kept verbatim as the oracle the incremental router is
 * checked against: every RouteResult field must come back identical.
 */
route::RouteResult
legacySabreRoute(const circuit::Circuit &logical,
                 const route::Topology &topo,
                 const route::RouteOptions &opts = {});

#define EXPECT_MATRIX_NEAR(a, b, tol) \
    EXPECT_TRUE(::reqisc::test::matrixNear((a), (b), (tol)))
#define ASSERT_MATRIX_NEAR(a, b, tol) \
    ASSERT_TRUE(::reqisc::test::matrixNear((a), (b), (tol)))
#define EXPECT_MATRIX_PHASE_NEAR(a, b, tol) \
    EXPECT_TRUE(::reqisc::test::matrixNearUpToPhase((a), (b), (tol)))

} // namespace reqisc::test

#endif // REQISC_TESTS_TEST_UTIL_HH
