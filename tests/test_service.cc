/**
 * @file
 * Tests for the concurrent compilation service and the SU(4)
 * memoization caches: cache correctness (hit/miss/eviction semantics,
 * tolerance-bucketed lookup, verification-gated hits), service
 * determinism across thread counts (the bit-identical contract), and
 * per-job error capture.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.hh"
#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "compiler/pipeline.hh"
#include "qsim/statevector.hh"
#include "service/cache.hh"
#include "service/cli.hh"
#include "service/service.hh"
#include "synth/instantiate.hh"
#include "suite/suite.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using namespace reqisc::qmath;

namespace
{

/**
 * ~300 ms inside schedule:serial, a pass no other test here runs: it
 * holds the one worker long enough to read a job's states. Set
 * before any compile runs (the delay map is read once).
 */
[[maybe_unused]] const bool kDelayEnvSet = [] {
    ::setenv("REQISC_PASS_DELAY_MS", "schedule:serial=300", 1);
    return true;
}();

/** A compiled program, flattened to a comparable byte string. */
std::string
flatten(const service::JobResult &r)
{
    std::ostringstream os;
    os << circuit::toQasm(r.compiled.circuit) << "|perm:";
    for (int p : r.compiled.finalPermutation)
        os << p << ",";
    os << "|2q:" << r.metrics.count2Q << "|d:" << r.metrics.depth2Q
       << "|dur:";
    os.precision(17);
    os << r.metrics.duration << "|su4:" << r.metrics.distinctSU4;
    return os.str();
}

/** A 20-job batch cycling through the small suite. */
std::vector<service::CompileRequest>
twentyCircuitBatch()
{
    const auto bms = suite::smallSuite();
    std::vector<service::CompileRequest> batch;
    for (int i = 0; i < 20; ++i) {
        service::CompileRequest req;
        req.name = bms[i % bms.size()].name + "#" +
                   std::to_string(i / bms.size());
        req.input = bms[i % bms.size()].circuit;
        batch.push_back(std::move(req));
    }
    return batch;
}

} // namespace

// ---- SynthCache --------------------------------------------------------

TEST(SynthCache, RepeatedBlockIsSynthesizedOnce)
{
    Rng rng(11);
    const Matrix target = randomUnitary(8, rng);
    service::SynthCache cache;

    synth::SynthesisOptions opts;
    opts.descending = true;
    opts.memo = &cache;
    const std::vector<int> qubits_a = {0, 1, 2};
    const std::vector<int> qubits_b = {4, 6, 5};

    synth::SynthesisResult first =
        synth::synthesizeBlock(target, qubits_a, opts);
    ASSERT_TRUE(first.success);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_GT(cache.stats().solveSeconds, 0.0);

    // Same class on different qubits: a hit, remapped onto them.
    synth::SynthesisResult second =
        synth::synthesizeBlock(target, qubits_b, opts);
    ASSERT_TRUE(second.success);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(first.blockCount, second.blockCount);
    ASSERT_EQ(first.gates.size(), second.gates.size());
    for (size_t i = 0; i < first.gates.size(); ++i) {
        // Identical gates modulo the qubit relabeling.
        EXPECT_EQ(first.gates[i].op, second.gates[i].op);
        EXPECT_EQ(first.gates[i].params, second.gates[i].params);
        for (size_t q = 0; q < first.gates[i].qubits.size(); ++q) {
            const auto it =
                std::find(qubits_a.begin(), qubits_a.end(),
                          first.gates[i].qubits[q]);
            ASSERT_NE(it, qubits_a.end());
            EXPECT_EQ(second.gates[i].qubits[q],
                      qubits_b[it - qubits_a.begin()]);
        }
    }
}

TEST(SynthCache, DifferentOptionsDoNotShareEntries)
{
    Rng rng(13);
    const Matrix target = randomUnitary(8, rng);
    service::SynthCache cache;

    synth::SynthesisOptions a;
    a.descending = true;
    a.memo = &cache;
    synth::SynthesisOptions b = a;
    b.seed = a.seed + 1;  // a different search -> a different key

    (void)synth::synthesizeBlock(target, {0, 1, 2}, a);
    (void)synth::synthesizeBlock(target, {0, 1, 2}, b);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SynthCache, GlobalPhaseDoesNotSplitClasses)
{
    Rng rng(17);
    const Matrix target = randomUnitary(8, rng);
    Matrix phased = target;
    const Complex w = std::polar(1.0, 0.9);
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            phased(i, j) = phased(i, j) * w;

    service::SynthCache cache;
    synth::SynthesisOptions opts;
    opts.descending = true;
    opts.memo = &cache;
    (void)synth::synthesizeBlock(target, {0, 1, 2}, opts);
    (void)synth::synthesizeBlock(phased, {0, 1, 2}, opts);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SynthCache, EvictsLeastRecentlyUsed)
{
    service::SynthCache cache(2);
    synth::SynthesisOptions opts;
    synth::SynthesisResult dummy;  // failure entry: no verification
    Rng rng(19);
    const Matrix a = randomUnitary(8, rng);
    const Matrix b = randomUnitary(8, rng);
    const Matrix c = randomUnitary(8, rng);
    cache.store(a, opts, dummy, 0.1);
    cache.store(b, opts, dummy, 0.1);
    // Touch `a` so `b` is the LRU victim.
    synth::SynthesisResult out;
    EXPECT_TRUE(cache.lookup(a, opts, out));
    cache.store(c, opts, dummy, 0.1);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1);
    EXPECT_TRUE(cache.lookup(a, opts, out));
    EXPECT_TRUE(cache.lookup(c, opts, out));
    EXPECT_FALSE(cache.lookup(b, opts, out));
}

// ---- PulseCache --------------------------------------------------------

TEST(PulseCache, ToleranceBucketedLookup)
{
    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    uarch::GateScheme scheme(uarch::Coupling::xy(1.0));
    const weyl::WeylCoord cnot = weyl::WeylCoord::cnot();
    cache.store(cnot, scheme.solveCoord(cnot), 0.01);

    // Within tolerance (including across a bucket boundary): hit.
    uarch::PulseSolution sol;
    weyl::WeylCoord nearby = cnot;
    nearby.y += 0.9e-6;
    EXPECT_TRUE(cache.lookup(nearby, sol));
    EXPECT_TRUE(sol.converged);
    // Outside tolerance: miss.
    weyl::WeylCoord far = cnot;
    far.y += 5e-6;
    EXPECT_FALSE(cache.lookup(far, sol));
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PulseCache, NeverServesUnconvergedSolutions)
{
    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    uarch::PulseSolution bad;
    bad.converged = false;
    const weyl::WeylCoord c = weyl::WeylCoord::iswap();
    cache.store(c, bad, 0.01);
    EXPECT_EQ(cache.size(), 0u);
    uarch::PulseSolution out;
    EXPECT_FALSE(cache.lookup(c, out));
}

TEST(PulseCache, StoreDedupsAcrossCellEdges)
{
    // Two stores of one class, 4e-7 apart on either side of a cell
    // edge: lookup finds the first from the second's cell, so store
    // must too, or a racing job's store keeps a second entry.
    const double tol = 1e-6;
    service::PulseCache cache(uarch::Coupling::xy(1.0), tol);
    uarch::GateScheme scheme(uarch::Coupling::xy(1.0));
    const weyl::WeylCoord cnot = weyl::WeylCoord::cnot();
    const uarch::PulseSolution sol = scheme.solveCoord(cnot);
    ASSERT_TRUE(sol.converged);

    const double edge = (std::floor(cnot.y / tol) + 1.0) * tol;
    weyl::WeylCoord below = cnot, above = cnot;
    below.y = edge - 2e-7;
    above.y = edge + 2e-7;
    cache.store(below, sol, 0.01);
    cache.store(above, sol, 0.01);
    EXPECT_EQ(cache.size(), 1u);

    uarch::PulseSolution out;
    EXPECT_TRUE(cache.lookup(above, out));
    EXPECT_EQ(cache.perClass().front().coord.y, below.y);
}

TEST(PulseCache, SharedAcrossCalibrationPlans)
{
    Circuit c(3);
    c.add(Gate::cx(0, 1));
    c.add(Gate::cz(1, 2));
    c.add(Gate::swap(0, 1));

    service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6);
    uarch::CalibrationPlan p1 = uarch::planCalibration(
        c, uarch::Coupling::xy(1.0), 1e-6, &cache);
    EXPECT_EQ(p1.distinctGates(), 2);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(cache.stats().hits, 0);

    // A second circuit with the same classes: all pulse solves hit.
    uarch::CalibrationPlan p2 = uarch::planCalibration(
        c, uarch::Coupling::xy(1.0), 1e-6, &cache);
    EXPECT_EQ(p2.distinctGates(), 2);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(cache.stats().hits, 2);
    ASSERT_EQ(p1.entries.size(), p2.entries.size());
    for (size_t i = 0; i < p1.entries.size(); ++i) {
        EXPECT_EQ(p1.entries[i].uses, p2.entries[i].uses);
        EXPECT_EQ(p1.entries[i].pulse.tau, p2.entries[i].pulse.tau);
    }
}

// ---- CompileService ----------------------------------------------------

TEST(CompileService, CachedResultsMatchStandaloneCompilation)
{
    // The whole caching contract in one assertion: a service with
    // warm caches must produce byte-for-byte what a standalone
    // (cache-free) reqiscFull produces.
    const auto bms = suite::smallSuite();
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);
    std::vector<service::CompileRequest> batch;
    for (int rep = 0; rep < 2; ++rep) {
        for (size_t i = 0; i < 4; ++i) {
            service::CompileRequest req;
            req.name = bms[i].name;
            req.input = bms[i].circuit;
            batch.push_back(std::move(req));
        }
    }
    svc.submitBatch(std::move(batch));
    auto results = svc.waitAll();
    ASSERT_EQ(results.size(), 8u);
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok) << r.name << ": " << r.errorInfo.message;
        const auto &bm =
            *std::find_if(bms.begin(), bms.end(),
                          [&](const suite::Benchmark &b) {
                              return b.name == r.name;
                          });
        compiler::CompileResult direct =
            compiler::reqiscFull(bm.circuit);
        EXPECT_EQ(circuit::toQasm(r.compiled.circuit),
                  circuit::toQasm(direct.circuit))
            << r.name;
        EXPECT_EQ(r.compiled.finalPermutation,
                  direct.finalPermutation)
            << r.name;
    }
    // The second repetition of each circuit hit the warm caches.
    EXPECT_GT(svc.synthCacheStats().hits +
                  svc.pulseCacheStats().hits,
              0);
}

TEST(CompileService, DeterministicAcrossThreadCounts)
{
    // The issue's acceptance test: the same 20-circuit batch with
    // --jobs 1 and --jobs 8 produces identical gate streams, metrics
    // and final permutations.
    std::vector<std::string> flat1, flat8;
    std::vector<std::int64_t> consults1, consults8;
    for (int jobs : {1, 8}) {
        service::ServiceOptions sopts;
        sopts.threads = jobs;
        service::CompileService svc(sopts);
        svc.submitBatch(twentyCircuitBatch());
        auto results = svc.waitAll();
        ASSERT_EQ(results.size(), 20u);
        auto &flat = jobs == 1 ? flat1 : flat8;
        auto &consults = jobs == 1 ? consults1 : consults8;
        for (const auto &r : results) {
            ASSERT_TRUE(r.ok) << r.name << ": " << r.errorInfo.message;
            flat.push_back(flatten(r));
            consults.push_back(r.metrics.synthCache.hits +
                               r.metrics.synthCache.misses);
        }
    }
    ASSERT_EQ(flat1.size(), flat8.size());
    for (size_t i = 0; i < flat1.size(); ++i)
        EXPECT_EQ(flat1[i], flat8[i]) << "job " << i;
    // Cache hit/miss *attribution* may differ between schedules; the
    // number of memo consultations a given job makes may not.
    EXPECT_EQ(consults1, consults8);
}

TEST(CompileService, QasmJobsCompileAndParseErrorsAreCaptured)
{
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);

    service::CompileRequest good;
    good.name = "ghz3";
    good.qasm = "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
    service::CompileRequest bad;
    bad.name = "broken";
    bad.qasm = "qreg q[2];\nfrobnicate q[0];\n";

    const auto good_id = svc.submit(std::move(good));
    const auto bad_id = svc.submit(std::move(bad));

    service::JobResult bad_res = svc.wait(bad_id);
    EXPECT_FALSE(bad_res.ok);
    EXPECT_NE(bad_res.errorInfo.message.find("unknown op"), std::string::npos)
        << bad_res.errorInfo.message;

    service::JobResult good_res = svc.wait(good_id);
    ASSERT_TRUE(good_res.ok) << good_res.errorInfo.message;
    EXPECT_GT(good_res.metrics.count2Q, 0);

    // Semantics of the QASM path: compiled circuit matches input.
    Circuit input = circuit::fromQasm(
        "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n");
    const Matrix ref =
        qsim::buildUnitary(circuit::lowerToCnot(input));
    const Matrix got = qsim::buildUnitaryWithPermutation(
        good_res.compiled.circuit,
        good_res.compiled.finalPermutation);
    EXPECT_LT(qmath::traceInfidelity(ref, got), 1e-6);
}

TEST(CompileService, CircuitWiderThanTheChipIsABadRequest)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    sopts.backend = std::make_shared<const backend::Backend>(
        backend::Backend::uniform(route::Topology::chain(3)));
    service::CompileService svc(sopts);

    service::CompileRequest wide;
    wide.name = "ghz4";
    wide.qasm = "qreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
                "cx q[2],q[3];\n";
    service::CompileRequest fits;
    fits.name = "ghz3";
    fits.qasm = "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
    const auto wide_id = svc.submit(std::move(wide));
    const auto fits_id = svc.submit(std::move(fits));

    const service::JobResult bad = svc.wait(wide_id);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorInfo.code, service::errc::kBadRequest);
    EXPECT_EQ(bad.errorInfo.httpStatus, 400);
    EXPECT_NE(bad.errorInfo.message.find("4 qubits"), std::string::npos)
        << bad.errorInfo.message;
    EXPECT_NE(bad.errorInfo.message.find("chip has 3"), std::string::npos)
        << bad.errorInfo.message;

    const service::JobResult good = svc.wait(fits_id);
    EXPECT_TRUE(good.ok) << good.errorInfo.message;
}

TEST(CompileService, WideGatesLeftByACustomPipelineAreABadRequest)
{
    // hier-synth keeps the Toffoli-class and MCX gates of these jobs,
    // so estimate (always appended) and schedule must not see them.
    const std::vector<std::string> wide = {
        "alu_5_71", "comparator_3_73", "encoding_7_79", "hwb_5_83",
        "modulo_5", "rip_add_8",       "tof_5",         "grover_4"};
    const auto bms = suite::smallSuite();
    std::vector<std::vector<std::string>> okFlat;
    for (const char *spec :
         {"custom:hier-synth", "custom:hier-synth,schedule"}) {
        SCOPED_TRACE(spec);
        service::ServiceOptions sopts;
        sopts.threads = 2;
        service::CompileService svc(sopts);
        std::vector<service::CompileRequest> batch;
        for (const suite::Benchmark &b : bms) {
            service::CompileRequest req;
            req.name = b.name;
            req.input = b.circuit;
            req.pipelineSpec = spec;
            batch.push_back(std::move(req));
        }
        svc.submitBatch(std::move(batch));
        std::vector<std::string> flat;
        for (const service::JobResult &r : svc.waitAll()) {
            const bool isWide =
                std::find(wide.begin(), wide.end(), r.name) != wide.end();
            if (!isWide) {
                ASSERT_TRUE(r.ok) << r.name << ": " << r.errorInfo.message;
                for (const Gate &g : r.compiled.circuit)
                    EXPECT_LE(g.numQubits(), 2) << r.name;
                flat.push_back(flatten(r));
                continue;
            }
            EXPECT_FALSE(r.ok) << r.name;
            EXPECT_EQ(r.errorInfo.code, service::errc::kBadRequest)
                << r.name;
            // The message names the pass and the gate.
            const std::string &msg = r.errorInfo.message;
            const bool scheduled =
                std::string(spec).find("schedule") != std::string::npos;
            EXPECT_NE(msg.find(scheduled ? "pass 'schedule'"
                                         : "pass 'estimate'"),
                      std::string::npos)
                << msg;
            EXPECT_TRUE(msg.find("'ccx q") != std::string::npos ||
                        msg.find("'cswap q") != std::string::npos ||
                        msg.find("'mcx q") != std::string::npos)
                << msg;
        }
        EXPECT_EQ(flat.size(), bms.size() - wide.size());
        okFlat.push_back(std::move(flat));
    }
    // Adding schedule changes none of the other jobs' artifacts.
    EXPECT_EQ(okFlat[0], okFlat[1]);
}

TEST(CompileService, ParserErrorPathsAreCapturedPerJob)
{
    // Every malformed-QASM shape the parser rejects must surface as
    // a per-job error (with its reason intact) and leave the rest of
    // the batch untouched.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"qreg q2];\nh q[0];\n", "malformed qreg"},
        {"qreg q[2];\ncx q[0],q[7];\n", "out of range"},
        {"qreg q[2];\nrx(0.5 q[0];\n", "unterminated parameter"},
        {"qreg q[2];\nh q[0]\n", "missing ';'"},
        {"h q[0];\nqreg q[2];\n", "gate before qreg"},
        // The gate rule: the first of these killed the service and
        // the others compiled "ok" to a wrong circuit.
        {"qreg q[3];\nmcx q[0];\n", "wrong qubit count"},
        {"qreg q[3];\nh q[0],q[1];\n", "wrong qubit count"},
        {"qreg q[3];\nrx(nan) q[0];\n", "non-finite"},
    };
    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::CompileService svc(sopts);

    std::vector<std::uint64_t> bad_ids;
    for (const auto &[qasm, needle] : bad) {
        service::CompileRequest req;
        req.name = needle;
        req.qasm = qasm;
        bad_ids.push_back(svc.submit(std::move(req)));
    }
    service::CompileRequest good;
    good.name = "good";
    good.qasm = "qreg q[2];\nh q[0];\ncx q[0],q[1];\n";
    const auto good_id = svc.submit(std::move(good));

    for (size_t i = 0; i < bad_ids.size(); ++i) {
        const service::JobResult r = svc.wait(bad_ids[i]);
        EXPECT_FALSE(r.ok) << bad[i].first;
        EXPECT_EQ(r.errorInfo.code, service::errc::kParseError)
            << bad[i].first;
        EXPECT_NE(r.errorInfo.message.find("qasm parse error"),
                  std::string::npos)
            << r.errorInfo.message;
        EXPECT_NE(r.errorInfo.message.find(bad[i].second), std::string::npos)
            << r.errorInfo.message;
    }
    const service::JobResult gr = svc.wait(good_id);
    ASSERT_TRUE(gr.ok) << gr.errorInfo.message;
    EXPECT_GT(gr.metrics.count2Q, 0);
}

TEST(CompileService, McxWithoutSpareWiresIsABadRequest)
{
    // Three controls need one spare wire for the V-chain; a 4-qubit
    // register has none. This segfaulted `synth` in Release.
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);
    for (const char *spec : {"full", "eff"}) {
        service::CompileRequest req;
        req.name = "mcx4";
        req.qasm = "qreg q[4];\nmcx q[0],q[1],q[2],q[3];\n";
        req.pipelineSpec = spec;
        const service::JobResult r = svc.wait(svc.submit(std::move(req)));
        EXPECT_FALSE(r.ok) << spec;
        EXPECT_EQ(r.errorInfo.code, service::errc::kBadRequest) << spec;
        EXPECT_NE(r.errorInfo.message.find(
                      "pass 'synth': 'mcx q[0],q[1],q[2],q[3]'"),
                  std::string::npos)
            << r.errorInfo.message;
    }
}

TEST(CompileService, WaitSemantics)
{
    service::CompileService svc;
    EXPECT_THROW(svc.wait(1), std::invalid_argument);  // never issued

    service::CompileRequest req;
    req.name = "tiny";
    req.input = Circuit(2);
    req.input.add(Gate::cx(0, 1));
    const auto id = svc.submit(std::move(req));
    service::JobResult r = svc.wait(id);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.name, "tiny");
    // A result can only be taken once.
    EXPECT_THROW(svc.wait(id), std::invalid_argument);
    // waitAll after everything was taken: empty, not blocking.
    EXPECT_TRUE(svc.waitAll().empty());
}

TEST(CompileService, StatusTracksTheJobLifecycle)
{
    using service::JobState;
    using Cancel = service::CompileService::CancelOutcome;
    const auto request = [](const std::string &name,
                            const std::string &pipeline) {
        service::CompileRequest req;
        req.name = name;
        req.input = Circuit(2);
        req.input.add(Gate::cx(0, 1));
        req.pipelineSpec = pipeline;
        req.calibrate = false;
        return req;
    };
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);
    // Each job holds the one worker ~300 ms in schedule:serial.
    const std::string slow = "custom:synth,schedule:serial";
    const auto a = svc.submit(request("a", slow));
    const auto b = svc.submit(request("b", slow));
    const auto c = svc.submit(request("c", slow));
    EXPECT_EQ(svc.submitted(), 3u);

    service::JobStatus st;
    ASSERT_TRUE(svc.status(b, st));
    EXPECT_EQ(st.state, JobState::Queued);
    EXPECT_EQ(st.name, "b");
    EXPECT_TRUE(st.passes.empty());
    EXPECT_EQ(st.result, nullptr);

    // Canceling a queued job is idempotent; wait() refuses it.
    EXPECT_EQ(svc.cancel(c), Cancel::Canceled);
    EXPECT_EQ(svc.cancel(c), Cancel::Canceled);
    ASSERT_TRUE(svc.status(c, st));
    EXPECT_EQ(st.state, JobState::Canceled);
    EXPECT_THROW(svc.wait(c), std::invalid_argument);

    // b reads Running from the moment the worker takes it, and its
    // passes stream in: synth is traced during schedule:serial's hold.
    const auto pollUntil = [&](auto done) {
        for (int i = 0; i < 5000; ++i) {
            if (!svc.status(b, st) || done())
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    pollUntil([&] { return st.state != JobState::Queued; });
    EXPECT_EQ(st.state, JobState::Running);
    EXPECT_EQ(st.result, nullptr);
    EXPECT_EQ(svc.cancel(b), Cancel::Running);
    pollUntil([&] { return !st.passes.empty(); });
    EXPECT_EQ(st.state, JobState::Running);
    ASSERT_EQ(st.passes.size(), 1u);
    EXPECT_EQ(st.passes[0].pass, "synth");

    svc.waitIdle();
    EXPECT_EQ(svc.inFlight(), 0u);
    ASSERT_TRUE(svc.status(b, st));
    EXPECT_EQ(st.state, JobState::Done);
    ASSERT_NE(st.result, nullptr);
    EXPECT_TRUE(st.result->ok);
    std::vector<std::string> passes;
    for (const compiler::PassTrace &t : st.passes)
        passes.push_back(t.pass);
    EXPECT_EQ(passes, (std::vector<std::string>{
                          "synth", "schedule:serial", "estimate"}));
    EXPECT_EQ(svc.cancel(b), Cancel::Finished);

    // wait() takes the record; waitAll() takes the rest (a's result).
    EXPECT_TRUE(svc.wait(b).ok);
    EXPECT_FALSE(svc.status(b, st));
    EXPECT_EQ(svc.cancel(b), Cancel::Unknown);
    const std::vector<service::JobResult> rest = svc.waitAll();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].id, a);
    EXPECT_FALSE(svc.status(a, st));
    EXPECT_FALSE(svc.status(c, st));

    // Past maxFinished the oldest finished record is evicted.
    sopts.maxFinished = 1;
    service::CompileService capped(sopts);
    const auto x = capped.submit(request("x", "custom:synth"));
    const auto y = capped.submit(request("y", "custom:synth"));
    capped.waitIdle();
    EXPECT_FALSE(capped.status(x, st));
    ASSERT_TRUE(capped.status(y, st));
    EXPECT_EQ(st.state, JobState::Done);
}

TEST(ServiceCli, NumericFlagValuesAreStrict)
{
    service::ServiceFlags flags;
    const auto parse = [&flags](const char *flag, const char *value) {
        std::string a0 = "prog", a1 = flag, a2 = value;
        char *argv[] = {a0.data(), a1.data(), a2.data()};
        int i = 1;
        return service::parseServiceFlag("test", 3, argv, i, flags);
    };
    EXPECT_EQ(parse("--jobs", "abc"), service::FlagParse::Error);
    EXPECT_EQ(parse("--jobs", "4x"), service::FlagParse::Error);
    EXPECT_EQ(parse("--block-workers", "-1"), service::FlagParse::Error);
    EXPECT_EQ(parse("--jobs", "0"), service::FlagParse::Consumed);
    EXPECT_EQ(flags.options.threads, 0);
    EXPECT_EQ(parse("--block-workers", "3"),
              service::FlagParse::Consumed);
    EXPECT_EQ(flags.options.blockWorkers, 3);

    unsigned seed = 7;
    EXPECT_FALSE(service::parseNumber("test", "--seed", "4294967296",
                                      seed));
    EXPECT_TRUE(service::parseNumber("test", "--seed", "4294967295",
                                     seed));
    EXPECT_EQ(seed, 4294967295u);
    std::uint16_t port = 0;
    EXPECT_FALSE(service::parseNumber("test", "--port", "70000", port));
    double rate = 0.0;
    for (const char *bad : {"-1", "inf", "nan", "1e999", " 2", ""})
        EXPECT_FALSE(service::parseNumber("test", "--quota-rate", bad,
                                          rate))
            << bad;
    EXPECT_TRUE(service::parseNumber("test", "--quota-rate", "2.5",
                                     rate));
    EXPECT_EQ(rate, 2.5);
}

TEST(CompileService, DisabledCachesStillCompile)
{
    service::ServiceOptions sopts;
    sopts.threads = 2;
    sopts.enableCaches = false;
    service::CompileService svc(sopts);
    service::CompileRequest req;
    req.name = "qft";
    req.input = suite::smallSuite()[5].circuit;
    const auto id = svc.submit(std::move(req));
    service::JobResult r = svc.wait(id);
    ASSERT_TRUE(r.ok) << r.errorInfo.message;
    EXPECT_EQ(svc.synthCacheStats().hits +
                  svc.synthCacheStats().misses,
              0);
    EXPECT_EQ(svc.synthCacheSize(), 0u);
    EXPECT_TRUE(svc.synthCachePerClass().empty());
}

// ---- Concurrent SynthCache + intra-job block workers -------------------

namespace
{

/** Exact (bitwise double) equality of two matrices. */
bool
exactMatrix(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j)
            if (a(i, j).real() != b(i, j).real() ||
                a(i, j).imag() != b(i, j).imag())
                return false;
    return true;
}

} // namespace

TEST(SynthCache, ConcurrentLookupStoreStressIsRaceFree)
{
    // Run under TSan in CI: several threads hammer lookup/store on a
    // shared cache — the access pattern of synth::BlockPool workers
    // inside one job — both on a single-shard cache under eviction
    // pressure and on a striped one. Entries are hand-crafted (one
    // opaque U4 whose lift *is* the target) so a hit's verification
    // passes bit-exactly without running the structure search.
    constexpr int kThreads = 8;
    constexpr int kIters = 400;
    constexpr int kClasses = 16;

    Rng rng(101);
    std::vector<Matrix> locals, targets;
    std::vector<synth::SynthesisResult> entries;
    for (int i = 0; i < kClasses; ++i) {
        const Matrix u = randomUnitary(4, rng);
        synth::SynthesisResult r;
        r.success = true;
        r.infidelity = 0.0;
        r.blockCount = 1;
        r.gates = {Gate::u4(0, 1, u)};
        locals.push_back(u);
        targets.push_back(synth::liftGate(u, {0, 1}, 3));
        entries.push_back(std::move(r));
    }

    synth::SynthesisOptions opts;
    opts.descending = true;

    for (std::size_t capacity :
         {std::size_t{8}, service::SynthCache::kStripeThreshold}) {
        service::SynthCache cache(capacity);
        std::atomic<std::int64_t> good_hits{0};
        std::atomic<std::int64_t> bad_hits{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kIters; ++i) {
                    const int k = (t * 7 + i) % kClasses;
                    synth::SynthesisResult out;
                    if (!cache.lookup(targets[k], opts, out)) {
                        cache.store(targets[k], opts, entries[k],
                                    1e-4);
                        continue;
                    }
                    // A hit must be the exact stored entry.
                    const bool exact =
                        out.success && out.gates.size() == 1 &&
                        out.gates[0].op == Op::U4 &&
                        out.gates[0].payload &&
                        exactMatrix(out.gates[0].payload->matrix(),
                                    locals[k]);
                    ++(exact ? good_hits : bad_hits);
                }
            });
        }
        for (auto &th : threads)
            th.join();

        EXPECT_EQ(bad_hits, 0);
        const auto stats = cache.stats();
        // Every iteration does exactly one lookup.
        EXPECT_EQ(stats.hits + stats.misses,
                  std::int64_t{kThreads} * kIters);
        EXPECT_EQ(stats.hits, good_hits);
        EXPECT_LE(cache.size(), capacity);
        if (capacity < kClasses) {
            EXPECT_EQ(cache.shardCount(), 1);
            EXPECT_GT(stats.evictions, 0);
        } else {
            EXPECT_GT(cache.shardCount(), 1);
        }
    }
}

namespace
{

/** Exact (bitwise double) equality of two pulse solutions. */
bool
exactPulse(const uarch::PulseSolution &a, const uarch::PulseSolution &b)
{
    const auto sameCoord = [](const weyl::WeylCoord &u,
                              const weyl::WeylCoord &v) {
        return u.x == v.x && u.y == v.y && u.z == v.z;
    };
    return a.converged == b.converged && a.scheme == b.scheme &&
           a.tau == b.tau && a.omega1 == b.omega1 &&
           a.omega2 == b.omega2 && a.delta == b.delta &&
           sameCoord(a.target, b.target) &&
           sameCoord(a.effective, b.effective) &&
           a.coordError == b.coordError &&
           a.hasCorrections == b.hasCorrections &&
           exactMatrix(a.a1, b.a1) && exactMatrix(a.a2, b.a2) &&
           exactMatrix(a.b1, b.b1) && exactMatrix(a.b2, b.b2);
}

} // namespace

TEST(PulseCache, ConcurrentLookupStoreStressIsRaceFree)
{
    // Run under TSan in CI: the PulseCache twin of the SynthCache
    // stress above, on one cache under eviction pressure and on one
    // that holds every class. Solutions are hand-built (every other
    // one with seeded one-qubit corrections), so a hit is checked
    // bit for bit without solving.
    constexpr int kThreads = 8;
    constexpr int kIters = 400;
    constexpr int kClasses = 16;

    Rng rng(103);
    std::vector<weyl::WeylCoord> coords;
    std::vector<uarch::PulseSolution> sols;
    for (int i = 0; i < kClasses; ++i) {
        const weyl::WeylCoord c{0.04 * (i + 1), 0.01 * (i % 4), 0.0};
        uarch::PulseSolution s;
        s.converged = true;
        s.scheme = static_cast<uarch::SubScheme>(i % 3);
        s.tau = 1.0 + 0.125 * i;
        s.omega1 = 0.25 * i;
        s.omega2 = -0.5 * i;
        s.delta = 0.0625 * i;
        s.target = s.effective = c;
        s.coordError = 1e-9 * i;
        s.hasCorrections = i % 2 == 1;
        if (s.hasCorrections) {
            s.a1 = randomUnitary(2, rng);
            s.a2 = randomUnitary(2, rng);
            s.b1 = randomUnitary(2, rng);
            s.b2 = randomUnitary(2, rng);
        }
        coords.push_back(c);
        sols.push_back(std::move(s));
    }

    for (std::size_t capacity : {std::size_t{8}, std::size_t{1} << 14}) {
        service::PulseCache cache(uarch::Coupling::xy(1.0), 1e-6,
                                  capacity);
        std::atomic<std::int64_t> good_hits{0};
        std::atomic<std::int64_t> bad_hits{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kIters; ++i) {
                    const int k = (t * 7 + i) % kClasses;
                    uarch::PulseSolution out;
                    if (!cache.lookup(coords[k], out)) {
                        cache.store(coords[k], sols[k], 1e-4);
                        continue;
                    }
                    ++(exactPulse(out, sols[k]) ? good_hits : bad_hits);
                }
            });
        }
        for (auto &th : threads)
            th.join();

        EXPECT_EQ(bad_hits, 0);
        const auto stats = cache.stats();
        // Every iteration does exactly one lookup.
        EXPECT_EQ(stats.hits + stats.misses,
                  std::int64_t{kThreads} * kIters);
        EXPECT_EQ(stats.hits, good_hits);
        if (capacity < kClasses) {
            EXPECT_EQ(cache.size(), capacity);
            EXPECT_GT(stats.evictions, 0);
        } else {
            // Racing stores of one class keep one entry.
            EXPECT_EQ(cache.size(), std::size_t{kClasses});
            EXPECT_EQ(stats.evictions, 0);
            EXPECT_GT(stats.hits, 0);
        }
    }
}

TEST(CompileService, BlockWorkersProduceBitIdenticalArtifacts)
{
    // The tentpole's determinism contract at the service level: the
    // same batch compiled with serial block resynthesis and with a
    // shared 4-worker BlockPool yields identical artifacts.
    std::vector<std::string> flat1, flat4;
    for (int bw : {1, 4}) {
        service::ServiceOptions sopts;
        sopts.threads = 2;
        sopts.blockWorkers = bw;
        service::CompileService svc(sopts);
        EXPECT_EQ(svc.blockWorkers(), bw);
        svc.submitBatch(twentyCircuitBatch());
        auto results = svc.waitAll();
        ASSERT_EQ(results.size(), 20u);
        auto &flat = bw == 1 ? flat1 : flat4;
        for (const auto &r : results) {
            ASSERT_TRUE(r.ok) << r.name << ": " << r.errorInfo.message;
            flat.push_back(flatten(r));
        }
    }
    ASSERT_EQ(flat1.size(), flat4.size());
    for (size_t i = 0; i < flat1.size(); ++i)
        EXPECT_EQ(flat1[i], flat4[i]) << "job " << i;
}

TEST(CompileService, AutoBlockWorkersResolveToAtLeastOne)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    sopts.blockWorkers = 0;  // auto: hardware left over after workers
    service::CompileService svc(sopts);
    EXPECT_GE(svc.blockWorkers(), 1);

    // And the pool still compiles correctly whatever it resolved to.
    service::CompileRequest req;
    req.name = "adder";
    req.input = suite::smallSuite()[2].circuit;
    service::JobResult r = svc.wait(svc.submit(std::move(req)));
    EXPECT_TRUE(r.ok) << r.errorInfo.message;
}
