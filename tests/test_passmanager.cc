/**
 * @file
 * Tests for the pass-manager architecture (compiler/pass_manager.hh):
 *
 *  - the named Eff/Full pass lists reproduce the pre-refactor
 *    monolithic pipelines bit-for-bit (a verbatim copy of the old
 *    implementation serves as the oracle) on every examples/qasm/
 *    circuit, under the variational and seed options, and the lists
 *    without `mirror` and with `hier-synth:nc` reproduce its
 *    no-mirroring and no-compacting switches;
 *  - the service's pass-managed runJob matches the old hand-sequenced
 *    route -> evaluate -> reconfigure -> schedule tail on a concrete
 *    chip, artifact by artifact;
 *  - pipeline-spec parsing accepts the documented grammar and rejects
 *    malformed specs with actionable errors;
 *  - the pass table's rows (what --list-passes prints), the trace
 *    names of argument tokens and each row's gate-width contract are
 *    pinned;
 *  - PassTrace invariants: nonnegative times, before/after chaining,
 *    and #2Q consistency with the final metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "backend/reconfigure.hh"
#include "circuit/lower.hh"
#include "circuit/qasm.hh"
#include "compiler/metrics.hh"
#include "compiler/pass_manager.hh"
#include "compiler/passes.hh"
#include "compiler/pipeline.hh"
#include "isa/assembly.hh"
#include "isa/schedule.hh"
#include "route/sabre.hh"
#include "service/service.hh"
#include "synth/instantiate.hh"
#include "synth/synthesis.hh"
#include "test_util.hh"

using namespace reqisc;
using namespace reqisc::circuit;
using compiler::CompilationUnit;
using compiler::CompileOptions;
using compiler::CompileResult;
using compiler::PassManager;
using compiler::PipelineSpec;
using qmath::Matrix;

namespace
{

const std::vector<std::string> kExampleQasm = {
    "/examples/qasm/ghz8.qasm",
    "/examples/qasm/qft4.qasm",
    "/examples/qasm/adder5.qasm",
    "/examples/qasm/ising6.qasm",
};

Circuit
loadExample(const std::string &rel)
{
    return circuit::fromQasm(test::readFile(REQISC_SOURCE_DIR + rel));
}

using test::circuitsIdentical;

// ---- The pre-refactor pipelines, kept verbatim as the oracle -----------

/**
 * The two pipeline-shape switches the pre-refactor pipelines read from
 * CompileOptions; the pass list sets them now.
 */
struct LegacyFlags
{
    bool applyMirroring = true;
    bool dagCompacting = true;
};

/**
 * The four compile parameters the pre-refactor pipelines read from
 * CompileOptions; the library holds them as constants now, and the
 * oracle keeps its own copies so it checks them independently.
 */
struct LegacyParams
{
    double mirrorThreshold = 0.1;
    int mTh = 4;
    double synthTol = 1e-9;
    Op variationalBasis = Op::SQISW;
};

const LegacyParams kLegacy;

CompileResult
legacyFinish(Circuit c, const CompileOptions &opts,
             const LegacyFlags &flags)
{
    CompileResult res;
    std::vector<int> perm(c.numQubits());
    for (int q = 0; q < c.numQubits(); ++q)
        perm[q] = q;
    if (flags.applyMirroring && !opts.variationalMode)
        c = compiler::mirrorNearIdentity(c, perm,
                                         kLegacy.mirrorThreshold);
    if (opts.variationalMode) {
        Circuit fixed(c.numQubits());
        for (const Gate &g : c) {
            if (g.is2Q() && (g.op == Op::U4 || g.op == Op::CAN)) {
                auto gates = synth::su4ToFixedBasis(
                    g.qubits[0], g.qubits[1], g.matrix(),
                    kLegacy.variationalBasis);
                if (!gates.empty()) {
                    for (Gate &e : gates)
                        fixed.add(std::move(e));
                    continue;
                }
            }
            fixed.add(g);
        }
        c = std::move(fixed);
        res.circuit = std::move(c);
        res.finalPermutation = std::move(perm);
        return res;
    }
    res.circuit = circuit::expandToCanU3(c);
    res.finalPermutation = std::move(perm);
    return res;
}

CompileResult
legacyEff(const Circuit &input, const CompileOptions &opts,
          const LegacyFlags &flags = {})
{
    Circuit c = circuit::decomposeMcx(input);
    c = compiler::templateSynthesis(c);
    c = compiler::groupPauliRotations(c);
    c = compiler::fuse2QBlocks(compiler::fuse1Q(c));
    return legacyFinish(std::move(c), opts, flags);
}

CompileResult
legacyFull(const Circuit &input, const CompileOptions &opts,
           const LegacyFlags &flags = {})
{
    Circuit c = circuit::decomposeMcx(input);
    c = compiler::templateSynthesis(c);
    c = compiler::groupPauliRotations(c);
    c = compiler::fuse2QBlocks(compiler::fuse1Q(c));
    if (flags.dagCompacting) {
        c = compiler::hierarchicalSynthesis(
            c, kLegacy.mTh, kLegacy.synthTol, opts.seed, opts.synthMemo);
    } else {
        std::vector<compiler::Partition3Q> blocks =
            compiler::partition3Q(c);
        Circuit nc(input.numQubits());
        for (const auto &b : blocks)
            for (const Gate &g : b.gates)
                nc.add(g);
        c = std::move(nc);
        Circuit out(input.numQubits());
        for (const auto &b : compiler::partition3Q(c)) {
            if (b.count2Q <= kLegacy.mTh || b.qubits.size() < 3) {
                for (const Gate &g : b.gates)
                    out.add(g);
                continue;
            }
            Matrix u = Matrix::identity(8);
            auto local = [&](const Gate &g) {
                std::vector<int> idx;
                for (int q : g.qubits)
                    idx.push_back(static_cast<int>(
                        std::find(b.qubits.begin(), b.qubits.end(),
                                  q) -
                        b.qubits.begin()));
                return idx;
            };
            for (const Gate &g : b.gates)
                u = synth::liftGate(g.matrix(), local(g), 3) * u;
            synth::SynthesisOptions sopts;
            sopts.tol = kLegacy.synthTol;
            sopts.maxBlocks = std::min(7, b.count2Q - 1);
            sopts.descending = true;
            sopts.seed = opts.seed;
            sopts.memo = opts.synthMemo;
            synth::SynthesisResult r =
                synth::synthesizeBlock(u, b.qubits, sopts);
            if (r.success &&
                static_cast<int>(r.blockCount) < b.count2Q) {
                for (const Gate &g : r.gates)
                    out.add(g);
            } else {
                for (const Gate &g : b.gates)
                    out.add(g);
            }
        }
        c = compiler::fuse2QBlocks(compiler::fuse1Q(out));
    }
    return legacyFinish(std::move(c), opts, flags);
}

void
expectSameCompile(const CompileResult &a, const CompileResult &b,
                  const std::string &what)
{
    EXPECT_TRUE(circuitsIdentical(a.circuit, b.circuit)) << what;
    EXPECT_EQ(a.finalPermutation, b.finalPermutation) << what;
}

/** The named Full list with `hier` in place of `hier-synth`. */
std::vector<std::string>
fullListWith(const std::string &hier)
{
    std::vector<std::string> list =
        compiler::compilePassList(PipelineSpec::Kind::Full, {});
    std::replace(list.begin(), list.end(), std::string("hier-synth"),
                 hier);
    return list;
}

} // namespace

// ---- Named and edited pass lists vs the legacy oracle ------------------

TEST(PassManagerEquivalence, EffAndFullMatchLegacyOnEveryExample)
{
    for (const std::string &rel : kExampleQasm) {
        const Circuit input = loadExample(rel);
        const CompileOptions opts;
        expectSameCompile(compiler::reqiscEff(input, opts),
                          legacyEff(input, opts), rel + " eff vs legacy");
        expectSameCompile(compiler::reqiscFull(input, opts),
                          legacyFull(input, opts),
                          rel + " full vs legacy");
    }
}

TEST(PassManagerEquivalence, OptionVariantsMatchLegacy)
{
    const Circuit input = loadExample(kExampleQasm[1]);  // qft4
    const CompileOptions defaults;

    // The former option switches are pass-list edits.
    LegacyFlags no_mirror;
    no_mirror.applyMirroring = false;
    expectSameCompile(
        compiler::runPasses(input, {"synth", "group-pauli", "fuse", "lower"}),
        legacyEff(input, defaults, no_mirror), "no-mirror eff");

    LegacyFlags nc;
    nc.dagCompacting = false;
    expectSameCompile(
        compiler::runPasses(input, fullListWith("hier-synth:nc")),
        legacyFull(input, defaults, nc), "dagCompacting=off");

    CompileOptions variational;
    variational.variationalMode = true;
    expectSameCompile(compiler::reqiscEff(input, variational),
                      legacyEff(input, variational),
                      "variational eff");
    expectSameCompile(compiler::reqiscFull(input, variational),
                      legacyFull(input, variational),
                      "variational full");

    CompileOptions seeded;
    seeded.seed = 12345;
    expectSameCompile(compiler::reqiscFull(input, seeded),
                      legacyFull(input, seeded), "seed=12345");
}

// ---- Service runJob vs the legacy hand-sequenced tail ------------------

namespace
{

/** A request's compile choices, without the service's hooks. */
compiler::CompileOptions
choicesOf(const service::CompileRequest &req)
{
    compiler::CompileOptions opts;
    opts.seed = req.options.seed;
    opts.variationalMode = req.options.variationalMode;
    return opts;
}

/** The pre-refactor runJob backend tail, verbatim. */
void
legacyBackendTail(const CompileResult &compiled,
                  const backend::Backend &chip,
                  const backend::ReconfigureResult &reconfig,
                  isa::Strategy strategy,
                  Circuit &phys_out, std::vector<int> &layout_out,
                  compiler::Metrics &metrics_out,
                  isa::Program &program_out)
{
    route::RouteOptions ropts;
    ropts.mirroring = true;
    const route::RouteResult rr = route::sabreRoute(
        compiled.circuit, chip.topology(), ropts);
    Circuit phys(rr.circuit.numQubits());
    for (const Gate &g : rr.circuit) {
        if (g.op == Op::SWAP)
            phys.add(Gate::can(g.qubits[0], g.qubits[1],
                               weyl::WeylCoord::swap()));
        else
            phys.add(g);
    }
    const isa::DurationModel durations = chip.durationModel();
    metrics_out = compiler::evaluate(
        phys, [&durations](const Gate &g) {
            return g.numQubits() < 2 ? 0.0 : durations.gate(g);
        });
    metrics_out.backend.used = true;
    metrics_out.backend.routedSwaps = rr.swapsInserted;
    metrics_out.backend.routedSwapsAbsorbed = rr.swapsAbsorbed;
    metrics_out.backend.fidelityReconfigured =
        backend::estimateFidelity(phys, chip, reconfig.table);
    metrics_out.backend.fidelityUniform =
        backend::estimateFidelity(phys, chip,
                                  reconfig.uniformTable);
    layout_out.resize(compiled.finalPermutation.size());
    for (size_t q = 0; q < compiled.finalPermutation.size(); ++q)
        layout_out[q] = rr.finalLayout[static_cast<size_t>(
            compiled.finalPermutation[q])];
    isa::ScheduleOptions sopts;
    sopts.strategy = strategy;
    sopts.durations = durations;
    sopts.topology = &chip.topology();
    program_out = isa::schedule(phys, sopts);
    metrics_out.schedule = program_out.stats();
    phys_out = std::move(phys);
}

} // namespace

TEST(PassManagerEquivalence, ServiceMatchesLegacyRunJobOnChip)
{
    for (const char *chip_rel :
         {"/examples/chips/chain8_xy.json",
          "/examples/chips/hetero_heavy_hex.json"}) {
        const auto chip = std::make_shared<const backend::Backend>(
            backend::Backend::fromJsonFile(
                std::string(REQISC_SOURCE_DIR) + chip_rel));
        const backend::ReconfigureResult reconfig =
            backend::reconfigure(*chip);

        service::ServiceOptions sopts;
        sopts.threads = 1;
        sopts.backend = chip;
        service::CompileService svc(sopts);

        const Circuit input = loadExample(kExampleQasm[0]);  // ghz8
        service::CompileRequest req;
        req.name = "ghz8";
        req.input = input;
        req.pipelineSpec = "eff";
        req.schedule = true;
        req.scheduleOptions.strategy = isa::Strategy::Asap;
        req.calibrate = false;
        const auto id = svc.submit(req);
        const service::JobResult r = svc.wait(id);
        ASSERT_TRUE(r.ok) << r.errorInfo.message;

        // Oracle: standalone compile + the legacy tail.
        const CompileResult compiled =
            compiler::reqiscEff(input, choicesOf(req));
        Circuit phys;
        std::vector<int> layout;
        compiler::Metrics metrics;
        isa::Program program;
        legacyBackendTail(compiled, *chip, reconfig,
                          isa::Strategy::Asap, phys, layout, metrics,
                          program);

        EXPECT_TRUE(circuitsIdentical(r.compiled.circuit,
                                      compiled.circuit))
            << chip_rel;
        EXPECT_TRUE(circuitsIdentical(r.routed, phys)) << chip_rel;
        EXPECT_EQ(r.finalLayout, layout) << chip_rel;
        EXPECT_EQ(isa::toAssembly(r.program),
                  isa::toAssembly(program))
            << chip_rel;
        EXPECT_EQ(r.metrics.count2Q, metrics.count2Q);
        EXPECT_EQ(r.metrics.depth2Q, metrics.depth2Q);
        EXPECT_EQ(r.metrics.duration, metrics.duration);
        EXPECT_EQ(r.metrics.distinctSU4, metrics.distinctSU4);
        EXPECT_EQ(r.metrics.backend.routedSwaps,
                  metrics.backend.routedSwaps);
        EXPECT_EQ(r.metrics.backend.routedSwapsAbsorbed,
                  metrics.backend.routedSwapsAbsorbed);
        EXPECT_EQ(r.metrics.backend.fidelityReconfigured,
                  metrics.backend.fidelityReconfigured);
        EXPECT_EQ(r.metrics.backend.fidelityUniform,
                  metrics.backend.fidelityUniform);
        EXPECT_EQ(r.metrics.schedule.makespan,
                  metrics.schedule.makespan);
    }
}

TEST(PassManagerEquivalence, ServiceNoBackendMatchesLegacySequence)
{
    service::ServiceOptions sopts;
    sopts.threads = 1;
    service::CompileService svc(sopts);

    const Circuit input = loadExample(kExampleQasm[2]);  // adder5
    service::CompileRequest req;
    req.name = "adder5";
    req.input = input;
    req.schedule = true;
    req.scheduleOptions.strategy = isa::Strategy::Alap;
    req.calibrate = false;
    const service::JobResult r = svc.wait(svc.submit(req));
    ASSERT_TRUE(r.ok) << r.errorInfo.message;

    // The service installs its synth memo; memo hits are re-verified
    // so artifacts are unchanged — compile standalone for the oracle.
    const CompileResult compiled =
        compiler::reqiscFull(input, choicesOf(req));
    // Without a backend the service times everything on XY at g = 1.
    const uarch::Coupling xy = uarch::Coupling::xy(1.0);
    compiler::Metrics metrics = compiler::evaluate(
        compiled.circuit, compiler::reqiscDurationModel(xy));
    isa::ScheduleOptions schopts;
    schopts.strategy = req.scheduleOptions.strategy;
    schopts.durations.coupling = xy;
    const isa::Program program =
        isa::schedule(compiled.circuit, schopts);

    EXPECT_TRUE(
        circuitsIdentical(r.compiled.circuit, compiled.circuit));
    EXPECT_EQ(r.compiled.finalPermutation,
              compiled.finalPermutation);
    EXPECT_EQ(r.metrics.count2Q, metrics.count2Q);
    EXPECT_EQ(r.metrics.duration, metrics.duration);
    EXPECT_EQ(isa::toAssembly(r.program), isa::toAssembly(program));
    EXPECT_TRUE(r.routed.empty());
    EXPECT_TRUE(r.finalLayout.empty());
}

// ---- Pipeline-spec parsing ---------------------------------------------

TEST(PipelineSpec, ParsesNamedAndCustomSpecs)
{
    PipelineSpec spec;
    std::string error;

    EXPECT_TRUE(compiler::parsePipelineSpec("eff", spec, error));
    EXPECT_EQ(spec.kind, PipelineSpec::Kind::Eff);
    EXPECT_TRUE(spec.passes.empty());

    EXPECT_TRUE(compiler::parsePipelineSpec("full", spec, error));
    EXPECT_EQ(spec.kind, PipelineSpec::Kind::Full);

    EXPECT_TRUE(compiler::parsePipelineSpec(
        "custom:synth,mirror,route,schedule:asap", spec, error));
    EXPECT_EQ(spec.kind, PipelineSpec::Kind::Custom);
    const std::vector<std::string> want = {"synth", "mirror",
                                           "route",
                                           "schedule:asap"};
    EXPECT_EQ(spec.passes, want);

    EXPECT_TRUE(compiler::parsePipelineSpec("custom:hier-synth:nc",
                                            spec, error));
    EXPECT_EQ(spec.passes,
              std::vector<std::string>{"hier-synth:nc"});

    // Every registered token parses as a one-pass custom list.
    for (const compiler::PassInfo &info : compiler::passRegistry()) {
        EXPECT_TRUE(compiler::parsePipelineSpec(
            "custom:" + info.token, spec, error))
            << info.token << ": " << error;
        for (const std::string &arg : info.args)
            EXPECT_TRUE(compiler::parsePipelineSpec(
                "custom:" + info.token + ":" + arg, spec, error))
                << info.token << ":" << arg << ": " << error;
    }
}

TEST(PipelineSpec, RejectsMalformedSpecs)
{
    PipelineSpec spec;
    std::string error;

    EXPECT_FALSE(compiler::parsePipelineSpec("", spec, error));
    EXPECT_NE(error.find("unknown pipeline"), std::string::npos);

    EXPECT_FALSE(compiler::parsePipelineSpec("best", spec, error));
    EXPECT_NE(error.find("unknown pipeline 'best'"),
              std::string::npos);

    EXPECT_FALSE(compiler::parsePipelineSpec("custom:", spec,
                                             error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos);

    EXPECT_FALSE(compiler::parsePipelineSpec("custom:synth,,fuse",
                                             spec, error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos);

    EXPECT_FALSE(compiler::parsePipelineSpec("custom:synth,",
                                             spec, error));

    EXPECT_FALSE(compiler::parsePipelineSpec("custom:bogus", spec,
                                             error));
    EXPECT_NE(error.find("unknown pass 'bogus'"),
              std::string::npos);

    EXPECT_FALSE(compiler::parsePipelineSpec(
        "custom:schedule:sideways", spec, error));
    EXPECT_NE(error.find("does not accept argument 'sideways'"),
              std::string::npos);

    EXPECT_FALSE(compiler::parsePipelineSpec("custom:synth:nc",
                                             spec, error));
    EXPECT_NE(error.find("does not accept argument"),
              std::string::npos);

    // A dangling colon is a truncated argument, not the bare pass.
    EXPECT_FALSE(compiler::parsePipelineSpec("custom:hier-synth:",
                                             spec, error));
    EXPECT_NE(error.find("empty argument"), std::string::npos);
    EXPECT_FALSE(compiler::parsePipelineSpec("custom:fuse:", spec,
                                             error));
    EXPECT_FALSE(compiler::parsePipelineSpec("custom:schedule:",
                                             spec, error));

    // Spec names are case-sensitive and unpadded, per the grammar.
    EXPECT_FALSE(compiler::parsePipelineSpec("Eff", spec, error));
    EXPECT_FALSE(compiler::parsePipelineSpec("custom: synth", spec,
                                             error));
}

TEST(PipelineSpec, EveryRegistryTokenInstantiates)
{
    for (const compiler::PassInfo &info : compiler::passRegistry()) {
        std::string error;
        EXPECT_NE(compiler::makePass(info.token, error), nullptr)
            << info.token << ": " << error;
        for (const std::string &arg : info.args)
            EXPECT_NE(compiler::makePass(info.token + ":" + arg,
                                         error),
                      nullptr)
                << info.token << ":" << arg << ": " << error;
    }
    std::string error;
    EXPECT_EQ(compiler::makePass("bogus", error), nullptr);
    EXPECT_NE(error.find("unknown pass"), std::string::npos);
}

TEST(PipelineSpec, ServiceCapturesMalformedSpecAsJobError)
{
    service::CompileService svc{service::ServiceOptions{}};
    service::CompileRequest req;
    req.name = "bad-spec";
    req.input = loadExample(kExampleQasm[1]);
    req.pipelineSpec = "custom:synth,bogus";
    const service::JobResult r = svc.wait(svc.submit(req));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.errorInfo.message.find("unknown pass 'bogus'"),
              std::string::npos);
}

TEST(PipelineSpec, ServiceAppendsEstimateToCustomLists)
{
    service::CompileService svc{service::ServiceOptions{}};
    service::CompileRequest req;
    req.name = "custom";
    req.input = loadExample(kExampleQasm[1]);
    req.pipelineSpec = "custom:synth,group-pauli,fuse,lower";
    req.calibrate = false;
    const service::JobResult r = svc.wait(svc.submit(req));
    ASSERT_TRUE(r.ok) << r.errorInfo.message;
    ASSERT_EQ(r.metrics.passes.size(), 5u);
    EXPECT_EQ(r.metrics.passes.back().pass, "estimate");
    EXPECT_GT(r.metrics.count2Q, 0);  // estimate actually ran
}

TEST(PipelineSpec, ServiceAppendsScheduleToCustomListsWhenRequested)
{
    service::CompileService svc{service::ServiceOptions{}};
    const Circuit input = loadExample(kExampleQasm[1]);

    // schedule=true + a list without a schedule pass: appended.
    service::CompileRequest req;
    req.name = "custom-sched";
    req.input = input;
    req.pipelineSpec = "custom:synth,group-pauli,fuse,lower";
    req.schedule = true;
    req.scheduleOptions.strategy = isa::Strategy::Asap;
    req.calibrate = false;
    const service::JobResult r = svc.wait(svc.submit(req));
    ASSERT_TRUE(r.ok) << r.errorInfo.message;
    EXPECT_EQ(r.metrics.passes.back().pass, "schedule");
    EXPECT_TRUE(r.metrics.schedule.scheduled);
    EXPECT_FALSE(r.program.instructions().empty());

    // An explicit schedule:X token wins: nothing is appended twice.
    service::CompileRequest req2 = req;
    req2.pipelineSpec =
        "custom:synth,group-pauli,fuse,lower,schedule:alap";
    const service::JobResult r2 = svc.wait(svc.submit(req2));
    ASSERT_TRUE(r2.ok) << r2.errorInfo.message;
    int schedule_passes = 0;
    for (const auto &t : r2.metrics.passes)
        schedule_passes += t.pass.rfind("schedule", 0) == 0;
    EXPECT_EQ(schedule_passes, 1);
    EXPECT_TRUE(r2.metrics.schedule.scheduled);
}

TEST(PipelineSpec, ServiceEndsCalibratedJobsWithTheCalibratePass)
{
    service::CompileService svc{service::ServiceOptions{}};
    const Circuit input = loadExample(kExampleQasm[1]);

    // Named spec: calibrate runs last, through the shared pulse cache.
    service::CompileRequest req;
    req.name = "calibrated";
    req.input = input;
    req.pipelineSpec = "eff";
    req.schedule = true;
    const service::JobResult r = svc.wait(svc.submit(req));
    ASSERT_TRUE(r.ok) << r.errorInfo.message;
    const std::vector<std::string> want = {
        "synth", "group-pauli", "fuse",     "mirror",
        "lower", "estimate",    "schedule", "calibrate"};
    std::vector<std::string> got;
    for (const auto &t : r.metrics.passes)
        got.push_back(t.pass);
    EXPECT_EQ(got, want);
    EXPECT_GT(r.metrics.pulseCache.misses, 0);
    EXPECT_EQ(r.metrics.unsolvedClasses, 0);

    // Custom specs: appended after the literal list when missing,
    // never twice when listed.
    req.pipelineSpec = "custom:synth,lower";
    req.schedule = false;
    got.clear();
    for (const auto &t : svc.wait(svc.submit(req)).metrics.passes)
        got.push_back(t.pass);
    EXPECT_EQ(got, (std::vector<std::string>{"synth", "lower",
                                             "estimate", "calibrate"}));
    req.pipelineSpec = "custom:synth,lower,calibrate";
    got.clear();
    for (const auto &t : svc.wait(svc.submit(req)).metrics.passes)
        got.push_back(t.pass);
    EXPECT_EQ(got, (std::vector<std::string>{"synth", "lower",
                                             "calibrate", "estimate"}));
}

TEST(PipelineSpec, CalibrateIsANoOpOnAHeterogeneousChip)
{
    service::ServiceOptions sopts;
    sopts.backend = std::make_shared<const backend::Backend>(
        backend::Backend::fromJsonFile(
            std::string(REQISC_SOURCE_DIR) +
            "/examples/chips/hetero_heavy_hex.json"));
    service::CompileService svc(sopts);
    service::CompileRequest req;
    req.input = loadExample(kExampleQasm[1]);
    req.pipelineSpec = "eff";
    const service::JobResult r = svc.wait(svc.submit(req));
    ASSERT_TRUE(r.ok) << r.errorInfo.message;
    ASSERT_FALSE(r.metrics.passes.empty());
    EXPECT_EQ(r.metrics.passes.back().pass, "calibrate");
    EXPECT_EQ(r.metrics.pulseCache.hits + r.metrics.pulseCache.misses,
              0);
    EXPECT_EQ(r.metrics.unsolvedClasses, 0);
}

// ---- Pinned registry rows and trace names ------------------------------

TEST(PassRegistry, RowsArePinned)
{
    // Token, accepted arguments and summary of every row, in order:
    // what `reqisc-compile --list-passes` prints.
    const std::vector<std::vector<std::string>> want = {
        {"synth", "",
         "program-aware template synthesis (incl. MCX lowering)"},
        {"group-pauli", "",
         "commutation-aware 2Q Pauli-rotation grouping"},
        {"fuse", "", "greedy 1Q fusion + same-pair SU(4) block fusion"},
        {"dag-compact", "",
         "commutation-aware DAG compaction (Section 5.1.3)"},
        {"hier-synth", "nc",
         "DAG compacting + 3Q partition + approximate resynthesis; "
         ":nc skips the compacting step (Fig 14 ablation)"},
        {"mirror", "",
         "near-identity gate mirroring with tracked permutation"},
        {"rebase", "",
         "variational fixed-basis re-expression (Section 5.3.1)"},
        {"lower", "", "expand to the {Can, U3} normal form"},
        {"route", "",
         "mirroring-SABRE onto the backend topology (SWAP -> Can); "
         "no-op without a backend"},
        {"reconfigure", "",
         "score routed circuit: per-edge reconfigured vs uniform gate "
         "set; no-op until routed"},
        {"schedule", "serial|asap|alap",
         "lower into a timed RQISA program; :serial/:asap/:alap "
         "overrides the strategy"},
        {"estimate", "",
         "evaluate #2Q / depth / duration / distinct-SU(4) of the "
         "active artifact"},
        {"calibrate", "",
         "pulse-solve each distinct SU(4) class of the logical "
         "circuit; no-op on a heterogeneous backend"},
    };
    std::vector<std::vector<std::string>> got;
    for (const compiler::PassInfo &info : compiler::passRegistry()) {
        std::string args;
        for (const auto &arg : info.args) {
            if (!args.empty())
                args += '|';
            args += arg;
        }
        got.push_back({std::string(info.token), args,
                       std::string(info.summary)});
    }
    EXPECT_EQ(got, want);
}

TEST(PassRegistry, TraceNamesAreTheTokensAsWritten)
{
    Circuit input(3);
    input.add(Gate::h(0));
    input.add(Gate::cx(0, 1));
    input.add(Gate::cx(1, 2));
    for (const std::string token :
         {"schedule", "schedule:alap", "hier-synth:nc"}) {
        CompilationUnit unit = CompilationUnit::forInput(input);
        PassManager pm;
        std::string error;
        PipelineSpec spec;
        spec.kind = PipelineSpec::Kind::Custom;
        spec.passes = {"lower", token};
        ASSERT_TRUE(compiler::buildPipeline(spec, {}, pm, error))
            << error;
        pm.run(unit);
        ASSERT_EQ(unit.metrics.passes.size(), 2u) << token;
        EXPECT_EQ(unit.metrics.passes.back().pass, token);
    }
}

TEST(PassRegistry, EveryRowMeetsItsGateWidthContract)
{
    // A ccx in front of every row, on a chip: the four rows that take
    // 1Q and 2Q gates only refuse it by name before running, and the
    // other nine take it.
    const backend::Backend chip = backend::Backend::fromJsonFile(
        std::string(REQISC_SOURCE_DIR) + "/examples/chips/chain8_xy.json");
    const backend::ReconfigureResult reconfig = backend::reconfigure(chip);
    const std::vector<std::string> narrow = {"lower", "route", "estimate",
                                             "schedule"};
    Circuit input(3);
    input.add(Gate::ccx(0, 1, 2));
    input.add(Gate::cx(1, 2));
    int wide = 0;
    for (const compiler::PassInfo &row : compiler::passRegistry()) {
        CompilationUnit unit = CompilationUnit::forInput(input);
        unit.backend = &chip;
        unit.reconfig = &reconfig;
        PassManager pm;
        std::string error;
        auto pass = compiler::makePass(row.token, error);
        ASSERT_NE(pass, nullptr) << error;
        pm.add(std::move(pass));
        if (std::find(narrow.begin(), narrow.end(), row.token) ==
            narrow.end()) {
            ++wide;
            EXPECT_NO_THROW(pm.run(unit)) << row.token;
            continue;
        }
        try {
            pm.run(unit);
            ADD_FAILURE() << row.token << " ran on a ccx";
        } catch (const compiler::UnsupportedGateError &e) {
            EXPECT_NE(std::string(e.what()).find("pass '" + row.token +
                                                 "'"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(wide, 9);
}

// ---- PassTrace invariants ----------------------------------------------

TEST(PassTrace, NamedFullPipelineTraceIsChainedAndConsistent)
{
    service::CompileService svc{service::ServiceOptions{}};
    service::CompileRequest req;
    req.name = "trace";
    req.input = loadExample(kExampleQasm[3]);  // ising6
    req.schedule = true;
    req.calibrate = false;
    const service::JobResult r = svc.wait(svc.submit(req));
    ASSERT_TRUE(r.ok) << r.errorInfo.message;

    const auto &trace = r.metrics.passes;
    const std::vector<std::string> want = {
        "synth", "group-pauli", "fuse", "hier-synth", "mirror",
        "lower", "estimate", "schedule"};
    ASSERT_EQ(trace.size(), want.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].pass, want[i]);
        EXPECT_GE(trace[i].seconds, 0.0);
        EXPECT_GE(trace[i].gatesBefore, 0);
        EXPECT_GE(trace[i].gatesAfter, 0);
        EXPECT_GE(trace[i].count2QBefore, 0);
        EXPECT_GE(trace[i].count2QAfter, 0);
        if (i > 0) {
            // Nothing mutates the artifact between passes.
            EXPECT_EQ(trace[i].gatesBefore, trace[i - 1].gatesAfter);
            EXPECT_EQ(trace[i].count2QBefore,
                      trace[i - 1].count2QAfter);
        }
    }
    // The final artifact the trace saw is what the metrics report.
    EXPECT_EQ(trace.back().count2QAfter, r.metrics.count2Q);
    EXPECT_EQ(static_cast<int>(r.compiled.circuit.size()),
              trace.back().gatesAfter);
    // Makespan appears in the trace exactly from the schedule pass.
    for (const auto &t : trace) {
        if (t.pass == "schedule")
            EXPECT_EQ(t.makespanAfter, r.metrics.schedule.makespan);
        else
            EXPECT_EQ(t.makespanAfter, 0.0);
    }
    EXPECT_GT(r.metrics.schedule.makespan, 0.0);
}

TEST(PassTrace, WrapperTraceMatchesJobArtifactDeltas)
{
    // Two back-to-back runs produce identical artifact deltas
    // (seconds may differ; nothing else may).
    const Circuit input = loadExample(kExampleQasm[0]);
    service::ServiceOptions sopts;
    sopts.enableCaches = false;
    std::vector<compiler::PassTrace> traces[2];
    for (int run = 0; run < 2; ++run) {
        service::CompileService svc(sopts);
        service::CompileRequest req;
        req.input = input;
        req.calibrate = false;
        const service::JobResult r = svc.wait(svc.submit(req));
        ASSERT_TRUE(r.ok) << r.errorInfo.message;
        traces[run] = r.metrics.passes;
    }
    ASSERT_EQ(traces[0].size(), traces[1].size());
    for (size_t i = 0; i < traces[0].size(); ++i) {
        EXPECT_EQ(traces[0][i].pass, traces[1][i].pass);
        EXPECT_EQ(traces[0][i].gatesBefore,
                  traces[1][i].gatesBefore);
        EXPECT_EQ(traces[0][i].gatesAfter, traces[1][i].gatesAfter);
        EXPECT_EQ(traces[0][i].count2QBefore,
                  traces[1][i].count2QBefore);
        EXPECT_EQ(traces[0][i].count2QAfter,
                  traces[1][i].count2QAfter);
        EXPECT_EQ(traces[0][i].makespanAfter,
                  traces[1][i].makespanAfter);
    }
}

// ---- Intra-job parallel block resynthesis ------------------------------

TEST(ParallelHierSynth, BitIdenticalAtEveryWorkerCountOnEveryExample)
{
    // hier-synth fans its independent block solves out over a
    // synth::BlockPool when CompileOptions::synthPool is set; so does
    // its Fig-14 ablation, the hier-synth:nc pass. The compiled
    // artifacts must be bit-identical to the serial path at every
    // worker count, with and without a shared memo.
    for (const std::string &rel : kExampleQasm) {
        const Circuit input = loadExample(rel);
        for (const std::string hier : {"hier-synth", "hier-synth:nc"}) {
            const std::vector<std::string> passes = fullListWith(hier);
            const CompileResult serial =
                compiler::runPasses(input, passes);
            for (int workers : {2, 4}) {
                const std::string what =
                    rel + " " + hier +
                    " workers=" + std::to_string(workers);
                synth::BlockPool pool(workers - 1);
                CompileOptions par;
                par.synthPool = &pool;
                expectSameCompile(
                    compiler::runPasses(input, passes, par), serial,
                    what);

                // Pool + shared cache together (the service
                // configuration): two runs (cold then warm) both
                // match the serial oracle.
                service::SynthCache cache;
                par.synthMemo = &cache;
                expectSameCompile(
                    compiler::runPasses(input, passes, par), serial,
                    what + " memo cold");
                expectSameCompile(
                    compiler::runPasses(input, passes, par), serial,
                    what + " memo warm");
            }
        }
    }
}

TEST(ParallelHierSynth, TraceNoteReportsWorkerCount)
{
    const Circuit input = loadExample(kExampleQasm[1]);  // qft4
    synth::BlockPool pool(3);
    for (const std::string hier : {"hier-synth", "hier-synth:nc"}) {
        CompileOptions opts;
        opts.synthPool = &pool;
        CompilationUnit unit = CompilationUnit::forInput(input, opts);
        PassManager pm;
        std::string error;
        PipelineSpec spec;
        spec.kind = PipelineSpec::Kind::Custom;
        spec.passes = fullListWith(hier);
        ASSERT_TRUE(compiler::buildPipeline(spec, opts, pm, error))
            << error;
        pm.run(unit);
        bool saw_hier_synth = false;
        for (const compiler::PassTrace &t : unit.metrics.passes) {
            if (t.pass == hier) {
                saw_hier_synth = true;
                EXPECT_EQ(t.note, "workers=4") << hier;
            } else {
                EXPECT_TRUE(t.note.empty()) << t.pass;
            }
        }
        EXPECT_TRUE(saw_hier_synth) << hier;
    }
}
