/**
 * @file
 * The pass-manager architecture unifying the ReQISC compilation flow
 * (Section 5.4 staged compiler; the Quil/eQASM layered-compilation
 * contract).
 *
 * One CompilationUnit carries the evolving artifact set — logical
 * circuit, tracked permutation, routed circuit + final layout, timed
 * isa::Program, Metrics — together with the immutable compile
 * context (options, target backend, schedule strategy).
 * Every pass is one row of one table, passRegistry(): its token,
 * summary, accepted arguments, gate-width contract and body. A `Pass`
 * is a handle on a row plus the token it was made from, and a
 * PassManager runs a declarative list of them, recording wall time
 * and artifact deltas into a per-pass Metrics::passes trace.
 *
 * The pass list is the only pipeline switch. compiler::reqiscEff /
 * reqiscFull run the named Eff/Full compile-stage lists,
 * service::CompileService::runJob is "build unit, run pipeline, copy
 * out", and reqisc-compile exposes the spec grammar directly
 * (`--pipeline custom:...`). An ablation is a pass-list edit: Fig
 * 14's ReQISC-NC swaps `hier-synth` for `hier-synth:nc`, and a list
 * without `mirror` compiles without mirroring.
 *
 * Pipeline-spec grammar (parsePipelineSpec):
 *
 *     spec    := "eff" | "full" | "custom:" list
 *     list    := token ("," token)*
 *     token   := pass-name (":" arg)?
 *
 * e.g. "custom:synth,mirror,route,schedule:asap". Pass names are the
 * table's tokens; today only `schedule` and `hier-synth` take an
 * argument (the strategy / the "nc" ablation variant).
 *
 * Determinism contract: for a fixed (input, options, pass list) the
 * artifacts produced by running the manager are bit-identical across
 * runs and thread counts; PassTrace::seconds is the only field that
 * varies. The named Eff/Full lists reproduce the pre-pass-manager
 * monolithic pipelines bit-for-bit (pinned by tests/test_passmanager).
 */

#ifndef REQISC_COMPILER_PASS_MANAGER_HH
#define REQISC_COMPILER_PASS_MANAGER_HH

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "backend/backend.hh"
#include "backend/reconfigure.hh"
#include "circuit/circuit.hh"
#include "compiler/metrics.hh"
#include "compiler/pipeline.hh"
#include "isa/program.hh"
#include "isa/schedule.hh"
#include "uarch/coupling.hh"

namespace reqisc::compiler
{

/**
 * The shared artifact set a pipeline evolves, replacing the ad-hoc
 * structs formerly threaded through CompileResult, JobResult and CLI
 * locals. Context fields are set once before running; artifact
 * fields are produced/updated by passes.
 */
struct CompilationUnit
{
    // ----- immutable context (set before running) ----------------------
    CompileOptions options;      //!< seed, mode, pool, memo hooks
    /**
     * Target chip; nullptr compiles device-agnostically. The target
     * is the one source of the device model: coupling() and
     * durationModel() derive from it.
     */
    const backend::Backend *backend = nullptr;
    /** Per-edge gate-set tables (required by the reconfigure pass). */
    const backend::ReconfigureResult *reconfig = nullptr;
    /** Schedule strategy; a `schedule:` token overrides it. */
    isa::Strategy strategy = isa::ScheduleOptions{}.strategy;

    // ----- evolving artifacts ------------------------------------------
    /** Current logical-wire artifact (seeded with the input). */
    circuit::Circuit circuit;
    /** Logical qubit q of the input ends on wire finalPermutation[q]. */
    std::vector<int> finalPermutation;
    circuit::Circuit routed;     //!< physical circuit (iff hasRouted)
    /** Logical q ends on physical wire finalLayout[q] (iff hasRouted). */
    std::vector<int> finalLayout;
    bool hasRouted = false;
    isa::Program program;        //!< timed program (iff hasProgram)
    bool hasProgram = false;
    Metrics metrics;             //!< incl. the per-pass trace
    /**
     * Scratch channel a pass may fill during run() to annotate its
     * own trace (copied into PassTrace::note and cleared by the
     * manager around every pass). hier-synth reports its effective
     * block-worker count here.
     */
    std::string passNote;
    /**
     * Optional observer called after every pass with the trace just
     * appended to metrics.passes — live per-pass progress for
     * callers that watch a compile from outside the worker (the
     * service records these in its job table, which status() and
     * the daemon's GET /v1/jobs/{id} read). Invoked on the
     * compiling thread; the callback must do its own
     * synchronization and must not throw.
     */
    std::function<void(const PassTrace &)> onPass;

    /** The artifact later stages operate on: routed once it exists. */
    const circuit::Circuit &active() const
    {
        return hasRouted ? routed : circuit;
    }

    /**
     * The target's coupling (backend::targetCoupling), which
     * calibrate pulse-solves on and the logical circuit is timed on.
     */
    uarch::Coupling coupling() const
    {
        return backend::targetCoupling(backend);
    }

    /**
     * The duration model of active(), which estimate and schedule
     * both time it with: the chip's per-edge model once routed, else
     * coupling()'s genAshN model.
     */
    isa::DurationModel durationModel() const;

    /** Seed a unit: circuit = input, identity permutation. */
    static CompilationUnit forInput(circuit::Circuit in,
                                    CompileOptions opts = {});
};

/**
 * One row of the pass table: everything that defines a pass. The body
 * gets the ":arg" part of the token it runs under ("" when absent),
 * already checked against `args`.
 */
struct PassInfo
{
    std::string token;    //!< spec name ("synth", "schedule", ...)
    std::string summary;  //!< one-line description
    /** Accepted ":arg" values; empty when the pass takes none. */
    std::vector<std::string> args;
    /**
     * True for a pass that takes 1Q and 2Q gates only (lower, route,
     * estimate, schedule); PassManager::run never hands it a wider
     * gate.
     */
    bool twoQubitGatesOnly = false;
    void (*body)(CompilationUnit &unit, std::string_view arg) = nullptr;
};

/** Every pass, one row each, in canonical listing order. */
const std::vector<PassInfo> &passRegistry();

/** A compilation stage: a table row bound to a token (see makePass). */
class Pass
{
  public:
    /** The token as written ("schedule:alap"); PassTrace::pass. */
    const std::string &name() const { return token_; }
    bool twoQubitGatesOnly() const { return row_->twoQubitGatesOnly; }
    /** Run the row's body under the token's argument. */
    void run(CompilationUnit &unit) const;

  private:
    friend std::unique_ptr<Pass> makePass(const std::string &token,
                                          std::string &error);
    Pass(const PassInfo &row, std::string token)
        : row_(&row), token_(std::move(token))
    {
    }

    const PassInfo *row_;
    std::string token_;
};

/**
 * Thrown by PassManager::run before a twoQubitGatesOnly() pass whose
 * active artifact holds a gate on three or more qubits, as a custom
 * pass list without `synth` leaves an MCX, and by `synth` on an MCX
 * whose register lacks the spare wires decomposeMcx needs. The
 * service reports it as a bad-request.
 */
class UnsupportedGateError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** Runs an ordered pass list over a unit, tracing every pass. */
class PassManager
{
  public:
    void add(std::unique_ptr<Pass> pass);

    /**
     * Run every pass in order. Each pass appends one PassTrace to
     * unit.metrics.passes (wall time, gate/#2Q before/after on the
     * active artifact, makespan known so far). Throws
     * UnsupportedGateError, naming the pass and the gate, instead of
     * running a twoQubitGatesOnly() pass on a gate wider than 2Q.
     */
    void run(CompilationUnit &unit) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/**
 * Bind a spec token ("name" or "name:arg") to its table row. Returns
 * nullptr and fills `error` for an unknown name or an argument the
 * pass does not accept.
 */
std::unique_ptr<Pass> makePass(const std::string &token,
                               std::string &error);

/** A parsed --pipeline value. */
struct PipelineSpec
{
    enum class Kind
    {
        Eff,     //!< the named ReQISC-Eff compile pipeline
        Full,    //!< the named ReQISC-Full compile pipeline
        Custom,  //!< explicit pass list
    };
    Kind kind = Kind::Full;
    std::vector<std::string> passes;  //!< tokens; filled for Custom
};

/**
 * Parse "eff", "full" or "custom:tok,tok,...". Returns false and
 * fills `error` (unknown name, empty list, unknown pass token or
 * pass argument) without touching `out` semantics on failure.
 */
bool parsePipelineSpec(const std::string &text, PipelineSpec &out,
                       std::string &error);

/**
 * The compile-stage pass list of a named pipeline — what
 * reqiscEff/reqiscFull run. Of the options it reads only
 * variationalMode, which swaps the final `lower` for `rebase` and
 * drops `mirror`.
 */
std::vector<std::string>
compilePassList(PipelineSpec::Kind kind, const CompileOptions &opts);

/**
 * Build a manager from a spec: named specs expand through
 * compilePassList (compile stage only — the service appends its
 * route/estimate/reconfigure/schedule/calibrate stages); custom
 * specs are taken literally. Returns false and fills `error` on an
 * invalid token.
 */
bool buildPipeline(const PipelineSpec &spec,
                   const CompileOptions &opts, PassManager &pm,
                   std::string &error);

} // namespace reqisc::compiler

#endif // REQISC_COMPILER_PASS_MANAGER_HH
