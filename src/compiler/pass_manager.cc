#include "compiler/pass_manager.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "circuit/lower.hh"
#include "compiler/passes.hh"
#include "obs/span.hh"
#include "route/sabre.hh"
#include "synth/synthesis.hh"
#include "uarch/calibration.hh"

namespace reqisc::compiler
{

namespace
{

/**
 * Fault-injection hook for the observability pipeline:
 * REQISC_PASS_DELAY_MS="pass=ms[,pass=ms...]" sleeps inside the
 * named passes' spans, so an artificial regression lands in
 * PassTrace, the exported trace and the bench --json output exactly
 * like a real slowdown would — tools/obsreport's attribution is
 * CI-tested against it. Parsed once; malformed items are ignored.
 */
const std::map<std::string, int> &
passDelaysMs()
{
    static const std::map<std::string, int> delays = [] {
        std::map<std::string, int> m;
        const char *env = std::getenv("REQISC_PASS_DELAY_MS");
        if (env == nullptr)
            return m;
        const std::string text(env);
        std::size_t start = 0;
        while (start < text.size()) {
            std::size_t comma = text.find(',', start);
            if (comma == std::string::npos)
                comma = text.size();
            const std::string item =
                text.substr(start, comma - start);
            const std::size_t eq = item.find('=');
            if (eq != std::string::npos && eq > 0) {
                const int ms =
                    std::atoi(item.c_str() + eq + 1);
                if (ms > 0)
                    m[item.substr(0, eq)] = ms;
            }
            start = comma + 1;
        }
        return m;
    }();
    return delays;
}

} // namespace

CompilationUnit
CompilationUnit::forInput(circuit::Circuit in, CompileOptions opts)
{
    CompilationUnit u;
    u.circuit = std::move(in);
    u.options = opts;
    u.finalPermutation.resize(u.circuit.numQubits());
    std::iota(u.finalPermutation.begin(), u.finalPermutation.end(),
              0);
    return u;
}

isa::DurationModel
CompilationUnit::durationModel() const
{
    if (backend && hasRouted)
        return backend->durationModel();
    isa::DurationModel model;
    model.coupling = coupling();
    return model;
}

// ---- PassManager -------------------------------------------------------

void
Pass::run(CompilationUnit &unit) const
{
    const std::string_view arg =
        token_.size() > row_->token.size()
            ? std::string_view(token_).substr(row_->token.size() + 1)
            : std::string_view();
    row_->body(unit, arg);
}

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
}

void
PassManager::run(CompilationUnit &unit) const
{
    for (const auto &pass : passes_) {
        PassTrace trace;
        trace.pass = pass->name();
        if (pass->twoQubitGatesOnly())
            for (const circuit::Gate &g : unit.active())
                if (g.numQubits() > 2)
                    throw UnsupportedGateError(
                        "pass '" + trace.pass +
                        "' takes 1- and 2-qubit gates only, but the "
                        "circuit holds '" + g.toString() + "'");
        trace.gatesBefore =
            static_cast<int>(unit.active().size());
        trace.count2QBefore = unit.active().count2Q();
        unit.passNote.clear();
        // One Span is both the PassTrace stopwatch and the exported
        // trace event, so the two can never disagree.
        obs::Span span("pass:" + trace.pass);
        pass->run(unit);
        if (!passDelaysMs().empty()) {
            const auto it = passDelaysMs().find(trace.pass);
            if (it != passDelaysMs().end())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(it->second));
        }
        trace.seconds = span.stop();
        trace.note = std::move(unit.passNote);
        unit.passNote.clear();
        trace.gatesAfter = static_cast<int>(unit.active().size());
        trace.count2QAfter = unit.active().count2Q();
        trace.makespanAfter = unit.metrics.schedule.makespan;
        unit.metrics.passes.push_back(std::move(trace));
        if (unit.onPass)
            unit.onPass(unit.metrics.passes.back());
    }
}

// ---- The pass table ----------------------------------------------------

namespace
{

// PassInfo::twoQubitGatesOnly, by name in the rows below.
constexpr bool kAnyWidth = false;
constexpr bool kTwoQubitGatesOnly = true;

} // namespace

const std::vector<PassInfo> &
passRegistry()
{
    // Each row: token, summary, accepted ":arg" values, gate width,
    // body.
    static const std::vector<PassInfo> table = {
        {"synth",
         "program-aware template synthesis (incl. MCX lowering)",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             Circuit lowered;
             try {
                 lowered = circuit::decomposeMcx(u.circuit);
             } catch (const std::invalid_argument &e) {
                 throw UnsupportedGateError("pass 'synth': " +
                                            std::string(e.what()));
             }
             u.circuit = templateSynthesis(lowered);
         }},
        {"group-pauli",
         "commutation-aware 2Q Pauli-rotation grouping",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             u.circuit = groupPauliRotations(u.circuit);
         }},
        {"fuse", "greedy 1Q fusion + same-pair SU(4) block fusion",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             u.circuit = fuse2QBlocks(fuse1Q(u.circuit));
         }},
        {"dag-compact",
         "commutation-aware DAG compaction (Section 5.1.3)",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             u.circuit = dagCompact(u.circuit, kSynthTol);
         }},
        // ReQISC-Full's extra stage. ":nc" is the Fig-14 ablation:
        // the same partition + approximate resynthesis with the
        // DAG-compacting step skipped.
        {"hier-synth",
         "DAG compacting + 3Q partition + approximate resynthesis; "
         ":nc skips the compacting step (Fig 14 ablation)",
         {"nc"},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view arg) {
             const CompileOptions &opts = u.options;
             u.circuit = hierarchicalSynthesis(
                 u.circuit, kHierSynthThreshold, kSynthTol, opts.seed,
                 opts.synthMemo, opts.synthPool, arg != "nc");
             u.passNote = "workers=" +
                          std::to_string(opts.synthPool
                                             ? opts.synthPool->workers()
                                             : 1);
         }},
        {"mirror",
         "near-identity gate mirroring with tracked permutation",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             u.circuit = mirrorNearIdentity(u.circuit,
                                            u.finalPermutation,
                                            uarch::kMirrorThreshold);
         }},
        {"rebase",
         "variational fixed-basis re-expression (Section 5.3.1)",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             Circuit fixed(u.circuit.numQubits());
             for (const Gate &g : u.circuit) {
                 if (g.is2Q() && (g.op == Op::U4 || g.op == Op::CAN)) {
                     auto gates = synth::su4ToFixedBasis(
                         g.qubits[0], g.qubits[1], g.matrix(),
                         kVariationalBasis);
                     if (!gates.empty()) {
                         for (Gate &e : gates)
                             fixed.add(std::move(e));
                         continue;
                     }
                 }
                 fixed.add(g);
             }
             u.circuit = std::move(fixed);
         }},
        {"lower", "expand to the {Can, U3} normal form",
         {},
         kTwoQubitGatesOnly,
         [](CompilationUnit &u, std::string_view) {
             u.circuit = circuit::expandToCanU3(u.circuit);
         }},
        // SWAPs are fused into Can gates (SU(4)-ISA convention: one
        // SWAP = one Can).
        {"route",
         "mirroring-SABRE onto the backend topology (SWAP -> Can); "
         "no-op without a backend",
         {},
         kTwoQubitGatesOnly,
         [](CompilationUnit &u, std::string_view) {
             if (!u.backend)
                 return;
             route::RouteOptions ropts;
             ropts.mirroring = true;
             const route::RouteResult rr = route::sabreRoute(
                 u.circuit, u.backend->topology(), ropts);
             Circuit phys(rr.circuit.numQubits());
             for (const Gate &g : rr.circuit) {
                 if (g.op == Op::SWAP)
                     phys.add(Gate::can(g.qubits[0], g.qubits[1],
                                        weyl::WeylCoord::swap()));
                 else
                     phys.add(g);
             }
             u.metrics.backend.used = true;
             u.metrics.backend.routedSwaps = rr.swapsInserted;
             u.metrics.backend.routedSwapsAbsorbed = rr.swapsAbsorbed;
             // Logical q -> compiled wire -> physical wire.
             u.finalLayout.resize(u.finalPermutation.size());
             for (std::size_t q = 0; q < u.finalPermutation.size(); ++q)
                 u.finalLayout[q] = rr.finalLayout[static_cast<
                     std::size_t>(u.finalPermutation[q])];
             u.routed = std::move(phys);
             u.hasRouted = true;
         }},
        {"reconfigure",
         "score routed circuit: per-edge reconfigured vs uniform "
         "gate set; no-op until routed",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             if (!u.backend || !u.reconfig || !u.hasRouted)
                 return;
             u.metrics.backend.fidelityReconfigured =
                 backend::estimateFidelity(u.routed, *u.backend,
                                           u.reconfig->table);
             u.metrics.backend.fidelityUniform =
                 backend::estimateFidelity(u.routed, *u.backend,
                                           u.reconfig->uniformTable);
         }},
        {"schedule",
         "lower into a timed RQISA program; :serial/:asap/:alap "
         "overrides the strategy",
         {"serial", "asap", "alap"},
         kTwoQubitGatesOnly,
         [](CompilationUnit &u, std::string_view arg) {
             isa::ScheduleOptions sopts;
             sopts.strategy = u.strategy;
             if (!arg.empty())
                 isa::strategyFromName(std::string(arg), sopts.strategy);
             sopts.durations = u.durationModel();
             if (u.backend && u.hasRouted)
                 sopts.topology = &u.backend->topology();
             u.program = isa::schedule(u.active(), sopts);
             u.metrics.schedule = u.program.stats();
             u.metrics.schedule.strategy =
                 isa::strategyName(sopts.strategy);
             u.hasProgram = true;
         }},
        // Timed under the unit's duration model; the critical path
        // counts 2Q gates only.
        {"estimate",
         "evaluate #2Q / depth / duration / distinct-SU(4) of the "
         "active artifact",
         {},
         kTwoQubitGatesOnly,
         [](CompilationUnit &u, std::string_view) {
             const isa::DurationModel durations = u.durationModel();
             const Metrics m =
                 evaluate(u.active(), [&durations](const Gate &g) {
                     return durations.gate(g);
                 });
             u.metrics.count2Q = m.count2Q;
             u.metrics.depth2Q = m.depth2Q;
             u.metrics.duration = m.duration;
             u.metrics.distinctSU4 = m.distinctSU4;
         }},
        // Section 6.5: one pulse solve per distinct SU(4) class,
        // through the options' pulse memo and synth pool when
        // installed. A heterogeneous backend's reconfigured per-edge
        // table already is the calibration set.
        {"calibrate",
         "pulse-solve each distinct SU(4) class of the logical "
         "circuit; no-op on a heterogeneous backend",
         {},
         kAnyWidth,
         [](CompilationUnit &u, std::string_view) {
             if (u.backend && !u.backend->isHomogeneous())
                 return;
             u.metrics.unsolvedClasses =
                 uarch::planCalibration(u.circuit, u.coupling(),
                                        circuit::kSU4ClassTol,
                                        u.options.pulseMemo,
                                        u.options.synthPool)
                     .unsolved;
         }},
    };
    return table;
}

namespace
{

/** The table row a "name[:arg]" token names, its arg validated. */
const PassInfo *
resolveToken(const std::string &token, std::string &error)
{
    const auto colon = token.find(':');
    const std::string_view name = std::string_view(token).substr(0, colon);
    const std::string_view arg =
        colon == std::string::npos
            ? std::string_view()
            : std::string_view(token).substr(colon + 1);
    if (colon != std::string::npos && arg.empty()) {
        // "hier-synth:" must not silently mean "hier-synth": a
        // dangling colon is almost always a truncated argument.
        error = "empty argument in pass token '" + token + "'";
        return nullptr;
    }
    for (const PassInfo &row : passRegistry()) {
        if (row.token != name)
            continue;
        if (!arg.empty() &&
            std::find(row.args.begin(), row.args.end(), arg) ==
                row.args.end()) {
            error = "pass '" + row.token + "' does not accept argument '" +
                    std::string(arg) + "'";
            return nullptr;
        }
        return &row;
    }
    error = "unknown pass '" + std::string(name) + "'";
    return nullptr;
}

} // namespace

std::unique_ptr<Pass>
makePass(const std::string &token, std::string &error)
{
    const PassInfo *row = resolveToken(token, error);
    if (!row)
        return nullptr;
    return std::unique_ptr<Pass>(new Pass(*row, token));
}

bool
parsePipelineSpec(const std::string &text, PipelineSpec &out,
                  std::string &error)
{
    if (text == "eff") {
        out.kind = PipelineSpec::Kind::Eff;
        out.passes.clear();
        return true;
    }
    if (text == "full") {
        out.kind = PipelineSpec::Kind::Full;
        out.passes.clear();
        return true;
    }
    const std::string prefix = "custom:";
    if (text.compare(0, prefix.size(), prefix) != 0) {
        error = "unknown pipeline '" + text +
                "' (expected eff, full or custom:pass,pass,...)";
        return false;
    }
    const std::string list = text.substr(prefix.size());
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string token =
            list.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (token.empty()) {
            error = "empty pass name in pipeline spec '" + text +
                    "'";
            return false;
        }
        if (!resolveToken(token, error))
            return false;
        tokens.push_back(token);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (tokens.empty()) {
        error = "empty pass list in pipeline spec '" + text + "'";
        return false;
    }
    out.kind = PipelineSpec::Kind::Custom;
    out.passes = std::move(tokens);
    return true;
}

std::vector<std::string>
compilePassList(PipelineSpec::Kind kind, const CompileOptions &opts)
{
    std::vector<std::string> list = {"synth", "group-pauli",
                                     "fuse"};
    if (kind == PipelineSpec::Kind::Full)
        list.push_back("hier-synth");
    if (!opts.variationalMode)
        list.push_back("mirror");
    list.push_back(opts.variationalMode ? "rebase" : "lower");
    return list;
}

bool
buildPipeline(const PipelineSpec &spec, const CompileOptions &opts,
              PassManager &pm, std::string &error)
{
    const std::vector<std::string> tokens =
        spec.kind == PipelineSpec::Kind::Custom
            ? spec.passes
            : compilePassList(spec.kind, opts);
    for (const std::string &token : tokens) {
        std::unique_ptr<Pass> pass = makePass(token, error);
        if (!pass)
            return false;
        pm.add(std::move(pass));
    }
    return true;
}

} // namespace reqisc::compiler
