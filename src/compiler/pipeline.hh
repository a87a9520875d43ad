/**
 * @file
 * End-to-end ReQISC compilation pipelines (Section 5.4).
 *
 * ReQISC-Eff: program-aware template synthesis + 2Q fusion +
 * mirroring (minimal calibration overhead).
 * ReQISC-Full: adds the hierarchical synthesis pass (DAG compacting +
 * 3Q partition + approximate synthesis) for aggressive #2Q reduction.
 */

#ifndef REQISC_COMPILER_PIPELINE_HH
#define REQISC_COMPILER_PIPELINE_HH

#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "synth/pool.hh"
#include "synth/synthesis.hh"
#include "uarch/calibration.hh"

namespace reqisc::compiler
{

/**
 * The fixed 2Q basis of the variational mode (Section 5.3.1): SQiSW,
 * the half-entangler of arXiv:2105.06074.
 */
inline constexpr circuit::Op kVariationalBasis = circuit::Op::SQISW;

/**
 * What the passes read. The pass list, not an option, picks which
 * passes run (compiler/pass_manager.hh). The paper's fixed compile
 * parameters are constants, not options: the mirror threshold
 * uarch::kMirrorThreshold, the hierarchical-synthesis threshold
 * kHierSynthThreshold, the synthesis precision kSynthTol
 * (compiler/passes.hh), the variational basis kVariationalBasis and
 * the SU(4)-class tolerance circuit::kSU4ClassTol. A service job
 * takes seed and variationalMode from its request and the three
 * hooks from the service, which installs them in every job.
 */
struct CompileOptions
{
    /**
     * Seed for the numeric-instantiation searches. Compilation is a
     * deterministic function of (input, options) including this seed,
     * which is what lets the concurrent service promise bit-identical
     * results regardless of thread count.
     */
    unsigned seed = synth::SynthesisOptions{}.seed;
    /**
     * Optional shared memo for hierarchical block resynthesis (the
     * service layer installs its SynthCache here). A memo must only
     * short-circuit work it re-verified to tolerance, so results are
     * unchanged; nullptr compiles standalone.
     */
    synth::BlockMemo *synthMemo = nullptr;
    /**
     * Optional shared task pool for intra-job parallelism (the
     * service layer installs its BlockPool here): hier-synth fans its
     * 3Q block resynthesis out across it, and the calibrate pass its
     * genAshN EA multistarts (workers claim Newton starts, folded in
     * start order). Results are bit-identical to the serial path at
     * every worker count — see hierarchicalSynthesis and
     * uarch::GateScheme; nullptr runs both serially.
     */
    synth::BlockPool *synthPool = nullptr;
    /**
     * Optional shared memo for the calibrate pass's pulse solves (the
     * service layer installs its PulseCache here). Bound to the
     * unit's coupling(); nullptr solves every class afresh.
     */
    uarch::PulseMemo *pulseMemo = nullptr;
    /**
     * Variational-program mode (Section 5.3.1): re-express every
     * SU(4) over kVariationalBasis plus parameterized 1Q layers,
     * trading a slightly higher #2Q for a constant-size calibration
     * set (the PMW-protocol trade-off). The named pass lists end in
     * `rebase` instead of `mirror`, `lower`.
     */
    bool variationalMode = false;
};

/** A compiled program: {Can, U3} circuit + tracked output wiring. */
struct CompileResult
{
    circuit::Circuit circuit;
    /** Logical qubit q of the input ends on wire perm[q]. */
    std::vector<int> finalPermutation;
};

/**
 * Program-aware template-based synthesis (Section 5.2.2): unroll
 * 3-qubit IRs through the pre-synthesized ECC template library with
 * selective assembly (prefer variants whose boundary pair fuses with
 * the previously emitted SU(4)).
 */
circuit::Circuit templateSynthesis(const circuit::Circuit &c);

/**
 * Run a compile-stage pass list (compiler/pass_manager.hh tokens)
 * over the input through the PassManager. An ablation is a list:
 * Fig 14's ReQISC-NC is the Full list with `hier-synth:nc`. Throws
 * std::invalid_argument on a token that names no pass.
 */
CompileResult runPasses(const circuit::Circuit &input,
                        std::vector<std::string> passes,
                        const CompileOptions &opts = {});

/**
 * The ReQISC-Eff pipeline: runPasses over the named Eff list —
 * bit-identical to the historical monolithic implementation for
 * every (input, options, seed).
 */
CompileResult reqiscEff(const circuit::Circuit &input,
                        const CompileOptions &opts = {});

/** The ReQISC-Full pipeline (see reqiscEff). */
CompileResult reqiscFull(const circuit::Circuit &input,
                         const CompileOptions &opts = {});

} // namespace reqisc::compiler

#endif // REQISC_COMPILER_PIPELINE_HH
