#include "compiler/pass_manager.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <numeric>
#include <stdexcept>
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

// ---- PassManager -------------------------------------------------------

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto &p : passes_)
        names.push_back(p->name());
    return names;
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

// ---- The concrete passes -----------------------------------------------

namespace
{

using circuit::Circuit;
using circuit::Gate;
using circuit::Op;

/** Program-aware template synthesis (incl. the MCX pre-lowering). */
class TemplateSynthPass final : public Pass
{
  public:
    std::string name() const override { return "synth"; }
    void run(CompilationUnit &u) override
    {
        circuit::Circuit lowered;
        try {
            lowered = circuit::decomposeMcx(u.circuit);
        } catch (const std::invalid_argument &e) {
            throw UnsupportedGateError("pass 'synth': " +
                                       std::string(e.what()));
        }
        u.circuit = templateSynthesis(lowered);
    }
};

class GroupPauliPass final : public Pass
{
  public:
    std::string name() const override { return "group-pauli"; }
    void run(CompilationUnit &u) override
    {
        u.circuit = groupPauliRotations(u.circuit);
    }
};

class FusePass final : public Pass
{
  public:
    std::string name() const override { return "fuse"; }
    void run(CompilationUnit &u) override
    {
        u.circuit = fuse2QBlocks(fuse1Q(u.circuit));
    }
};

class DagCompactPass final : public Pass
{
  public:
    std::string name() const override { return "dag-compact"; }
    void run(CompilationUnit &u) override
    {
        u.circuit = dagCompact(u.circuit, u.options.synthTol);
    }
};

/**
 * Hierarchical synthesis (ReQISC-Full's extra stage). The "nc"
 * variant is the Fig-14 ablation: the same partition + approximate
 * resynthesis with the DAG-compacting step skipped.
 */
class HierarchicalSynthPass final : public Pass
{
  public:
    explicit HierarchicalSynthPass(bool compacting)
        : compacting_(compacting)
    {
    }

    std::string name() const override
    {
        return compacting_ ? "hier-synth" : "hier-synth:nc";
    }

    void run(CompilationUnit &u) override
    {
        const CompileOptions &opts = u.options;
        u.circuit = hierarchicalSynthesis(
            u.circuit, opts.mTh, opts.synthTol, opts.seed,
            opts.synthMemo, opts.synthPool, compacting_);
        u.passNote =
            "workers=" +
            std::to_string(opts.synthPool ? opts.synthPool->workers()
                                          : 1);
    }

  private:
    bool compacting_;
};

class MirrorPass final : public Pass
{
  public:
    std::string name() const override { return "mirror"; }
    void run(CompilationUnit &u) override
    {
        u.circuit = mirrorNearIdentity(u.circuit,
                                       u.finalPermutation,
                                       u.options.mirrorThreshold);
    }
};

/** Variational fixed-basis re-expression (Section 5.3.1). */
class VariationalRebasePass final : public Pass
{
  public:
    std::string name() const override { return "rebase"; }
    void run(CompilationUnit &u) override
    {
        Circuit fixed(u.circuit.numQubits());
        for (const Gate &g : u.circuit) {
            if (g.is2Q() && (g.op == Op::U4 || g.op == Op::CAN)) {
                auto gates = synth::su4ToFixedBasis(
                    g.qubits[0], g.qubits[1], g.matrix(),
                    u.options.variationalBasis);
                if (!gates.empty()) {
                    for (Gate &e : gates)
                        fixed.add(std::move(e));
                    continue;
                }
            }
            fixed.add(g);
        }
        u.circuit = std::move(fixed);
    }
};

class LowerPass final : public Pass
{
  public:
    std::string name() const override { return "lower"; }
    bool twoQubitGatesOnly() const override { return true; }
    void run(CompilationUnit &u) override
    {
        u.circuit = circuit::expandToCanU3(u.circuit);
    }
};

/**
 * Mirroring-SABRE onto the backend topology; SWAPs are fused into
 * Can gates (SU(4)-ISA convention: one SWAP = one Can). No-op
 * without a backend (there is no topology to route onto).
 */
class SabreRoutePass final : public Pass
{
  public:
    std::string name() const override { return "route"; }
    bool twoQubitGatesOnly() const override { return true; }
    void run(CompilationUnit &u) override
    {
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
    }
};

/**
 * Score the routed circuit under the per-edge reconfigured gate-set
 * table vs the best uniform one. No-op until a backend and a routed
 * artifact exist.
 */
class ReconfigurePass final : public Pass
{
  public:
    std::string name() const override { return "reconfigure"; }
    void run(CompilationUnit &u) override
    {
        if (!u.backend || !u.reconfig || !u.hasRouted)
            return;
        u.metrics.backend.fidelityReconfigured =
            backend::estimateFidelity(u.routed, *u.backend,
                                      u.reconfig->table);
        u.metrics.backend.fidelityUniform =
            backend::estimateFidelity(u.routed, *u.backend,
                                      u.reconfig->uniformTable);
    }
};

/**
 * Evaluate the circuit-level metrics (#2Q, Depth2Q, duration,
 * distinct-SU(4)) of the active artifact: the routed circuit under
 * the backend's per-edge duration model once it exists, the logical
 * circuit under the genAshN model of `coupling` otherwise.
 */
class EstimateFidelityPass final : public Pass
{
  public:
    std::string name() const override { return "estimate"; }
    bool twoQubitGatesOnly() const override { return true; }
    void run(CompilationUnit &u) override
    {
        Metrics m;
        if (u.backend && u.hasRouted) {
            const isa::DurationModel durations =
                u.backend->durationModel();
            m = evaluate(u.routed,
                         [&durations](const Gate &g) {
                             return g.numQubits() < 2
                                        ? 0.0
                                        : durations.gate(g);
                         });
        } else {
            m = evaluate(u.circuit,
                         reqiscDurationModel(u.coupling));
        }
        u.metrics.count2Q = m.count2Q;
        u.metrics.depth2Q = m.depth2Q;
        u.metrics.duration = m.duration;
        u.metrics.distinctSU4 = m.distinctSU4;
    }
};

/** Lower into a timed RQISA program (isa::schedule). */
class SchedulePass final : public Pass
{
  public:
    explicit SchedulePass(isa::Strategy strategy, bool override_strat)
        : strategy_(strategy), override_(override_strat)
    {
    }

    std::string name() const override
    {
        return override_
                   ? std::string("schedule:") +
                         isa::strategyName(strategy_)
                   : "schedule";
    }

    bool twoQubitGatesOnly() const override { return true; }

    void run(CompilationUnit &u) override
    {
        isa::ScheduleOptions sopts = u.scheduleOptions;
        if (override_)
            sopts.strategy = strategy_;
        if (u.backend && u.hasRouted) {
            sopts.durations = u.backend->durationModel();
            sopts.topology = &u.backend->topology();
            u.program = isa::schedule(u.routed, sopts);
        } else {
            sopts.durations.coupling = u.coupling;
            u.program = isa::schedule(u.circuit, sopts);
        }
        u.metrics.schedule = u.program.stats();
        u.metrics.schedule.strategy = isa::strategyName(sopts.strategy);
        u.hasProgram = true;
    }

  private:
    isa::Strategy strategy_;
    bool override_;
};

/**
 * Plan the per-circuit calibration (Section 6.5): pulse-solve each
 * distinct SU(4) class of the logical circuit on the unit's coupling,
 * through the options' pulse memo when one is installed, with each
 * EA multistart on the options' synth pool when one is installed.
 * No-op on a heterogeneous backend, whose reconfigured per-edge table
 * already is the calibration set (one native instruction per edge).
 */
class CalibratePass final : public Pass
{
  public:
    std::string name() const override { return "calibrate"; }
    void run(CompilationUnit &u) override
    {
        if (u.backend && !u.backend->isHomogeneous())
            return;
        u.metrics.unsolvedClasses =
            uarch::planCalibration(u.circuit, u.coupling, 1e-6,
                                   u.options.pulseMemo,
                                   u.options.synthPool)
                .unsolved;
    }
};

} // namespace

// ---- Registry and spec parsing -----------------------------------------

const std::vector<PassInfo> &
passRegistry()
{
    static const std::vector<PassInfo> registry = {
        {"synth",
         "program-aware template synthesis (incl. MCX lowering)",
         {}},
        {"group-pauli",
         "commutation-aware 2Q Pauli-rotation grouping",
         {}},
        {"fuse", "greedy 1Q fusion + same-pair SU(4) block fusion",
         {}},
        {"dag-compact",
         "commutation-aware DAG compaction (Section 5.1.3)",
         {}},
        {"hier-synth",
         "DAG compacting + 3Q partition + approximate resynthesis; "
         ":nc skips the compacting step (Fig 14 ablation)",
         {"nc"}},
        {"mirror",
         "near-identity gate mirroring with tracked permutation",
         {}},
        {"rebase",
         "variational fixed-basis re-expression (Section 5.3.1)",
         {}},
        {"lower", "expand to the {Can, U3} normal form", {}},
        {"route",
         "mirroring-SABRE onto the backend topology (SWAP -> Can); "
         "no-op without a backend",
         {}},
        {"reconfigure",
         "score routed circuit: per-edge reconfigured vs uniform "
         "gate set; no-op until routed",
         {}},
        {"schedule",
         "lower into a timed RQISA program; :serial/:asap/:alap "
         "overrides the strategy",
         {"serial", "asap", "alap"}},
        {"estimate",
         "evaluate #2Q / depth / duration / distinct-SU(4) of the "
         "active artifact",
         {}},
        {"calibrate",
         "pulse-solve each distinct SU(4) class of the logical "
         "circuit; no-op on a heterogeneous backend",
         {}},
    };
    return registry;
}

namespace
{

/** Split "name[:arg]"; find the registry row; validate the arg. */
const PassInfo *
resolveToken(const std::string &token, std::string &name,
             std::string &arg, std::string &error)
{
    const auto colon = token.find(':');
    name = token.substr(0, colon);
    arg = colon == std::string::npos ? ""
                                     : token.substr(colon + 1);
    if (colon != std::string::npos && arg.empty()) {
        // "hier-synth:" must not silently mean "hier-synth": a
        // dangling colon is almost always a truncated argument.
        error = "empty argument in pass token '" + token + "'";
        return nullptr;
    }
    for (const PassInfo &info : passRegistry()) {
        if (info.token != name)
            continue;
        if (!arg.empty() &&
            std::find(info.args.begin(), info.args.end(), arg) ==
                info.args.end()) {
            error = "pass '" + name +
                    "' does not accept argument '" + arg + "'";
            return nullptr;
        }
        return &info;
    }
    error = "unknown pass '" + name + "'";
    return nullptr;
}

} // namespace

std::unique_ptr<Pass>
makePass(const std::string &token, std::string &error)
{
    std::string name, arg;
    if (!resolveToken(token, name, arg, error))
        return nullptr;
    if (name == "synth")
        return std::make_unique<TemplateSynthPass>();
    if (name == "group-pauli")
        return std::make_unique<GroupPauliPass>();
    if (name == "fuse")
        return std::make_unique<FusePass>();
    if (name == "dag-compact")
        return std::make_unique<DagCompactPass>();
    if (name == "hier-synth")
        return std::make_unique<HierarchicalSynthPass>(
            arg != "nc");
    if (name == "mirror")
        return std::make_unique<MirrorPass>();
    if (name == "rebase")
        return std::make_unique<VariationalRebasePass>();
    if (name == "lower")
        return std::make_unique<LowerPass>();
    if (name == "route")
        return std::make_unique<SabreRoutePass>();
    if (name == "reconfigure")
        return std::make_unique<ReconfigurePass>();
    if (name == "schedule") {
        isa::Strategy strat = isa::Strategy::Asap;
        const bool override_strat = !arg.empty();
        if (override_strat)
            isa::strategyFromName(arg, strat);  // arg validated above
        return std::make_unique<SchedulePass>(strat,
                                              override_strat);
    }
    if (name == "estimate")
        return std::make_unique<EstimateFidelityPass>();
    if (name == "calibrate")
        return std::make_unique<CalibratePass>();
    error = "unknown pass '" + name + "'";  // unreachable
    return nullptr;
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
        std::string name, arg;
        if (!resolveToken(token, name, arg, error))
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
        list.push_back(opts.dagCompacting ? "hier-synth"
                                          : "hier-synth:nc");
    if (opts.applyMirroring && !opts.variationalMode)
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
