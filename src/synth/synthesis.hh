/**
 * @file
 * Approximate synthesis of small unitary blocks over the SU(4) and
 * CNOT gate sets (Section 5.1.1).
 *
 * Targets up to three qubits are synthesized by structure search
 * (candidate pair orderings of increasing depth) plus numeric
 * instantiation; the result is "numerically exact" (1e-10..1e-12
 * infidelity), matching the paper's use of BQSKit.
 */

#ifndef REQISC_SYNTH_SYNTHESIS_HH
#define REQISC_SYNTH_SYNTHESIS_HH

#include <vector>

#include "circuit/circuit.hh"
#include "synth/instantiate.hh"

namespace reqisc::synth
{

struct SynthesisOptions;
struct SynthesisResult;

/**
 * Memoization hook for block synthesis (implemented by
 * service::SynthCache; this layer only defines the interface so the
 * dependency direction stays downward).
 *
 * Cached gate lists use *local* qubit indices 0..w-1;
 * synthesizeBlock remaps them onto the block's global ids. Because
 * the search outcome is a deterministic function of (target, search
 * options), implementations key on both and may only return entries
 * they re-verified against the requested target — so a hit is
 * behaviourally identical to recomputing, regardless of which caller
 * populated the cache first.
 */
class BlockMemo
{
  public:
    virtual ~BlockMemo() = default;

    /**
     * @param target block unitary (2^w x 2^w)
     * @param opts the search options the caller would use
     * @param out filled with the cached result (local qubit ids)
     * @return true on a verified hit
     */
    virtual bool lookup(const Matrix &target,
                        const SynthesisOptions &opts,
                        SynthesisResult &out) = 0;

    /**
     * Record a freshly computed result (gates in local qubit ids).
     *
     * @param solve_seconds wall time the computation took, kept for
     *        the per-class instrumentation
     */
    virtual void store(const Matrix &target,
                       const SynthesisOptions &opts,
                       const SynthesisResult &result,
                       double solve_seconds) = 0;
};

/** Options for block synthesis. */
struct SynthesisOptions
{
    double tol = 1e-9;      //!< accepted infidelity
    int maxBlocks = 7;      //!< give up beyond this many SU(4)s
    int restarts = 3;
    /** The one definition of the default compile seed. */
    unsigned seed = 777;
    /**
     * Ascending searches k = 0,1,2,... and certifies the minimum
     * (template building); descending starts at min(6, maxBlocks),
     * which always converges for 3 qubits, and walks down while
     * successful — much cheaper on the hot block-resynthesis path.
     */
    bool descending = false;
    /** Optional cross-call memoization (see BlockMemo). */
    BlockMemo *memo = nullptr;
};

/** Result of a block synthesis. */
struct SynthesisResult
{
    bool success = false;
    double infidelity = 1.0;
    int blockCount = 0;                 //!< number of SU(4) blocks
    std::vector<circuit::Gate> gates;   //!< over {U4 (+1Q U3)} ops
};

/**
 * Synthesize a 2^w x 2^w target (w = 2 or 3) into the fewest SU(4)
 * blocks the structure search can certify, emitting gates on the
 * given (global) qubit ids.
 *
 * @param target unitary to synthesize
 * @param qubits global ids of the block's qubits (size 2 or 3)
 * @param opts search options
 */
SynthesisResult synthesizeBlock(const Matrix &target,
                                const std::vector<int> &qubits,
                                const SynthesisOptions &opts = {});

/**
 * The theoretical minimum SU(4) count for n-qubit synthesis,
 * ceil((4^n - 3n - 1) / 9) (Section 5.1.1).
 */
int su4LowerBound(int n);

/** CNOT-count lower bound ceil((4^n - 3n - 1) / 4). */
int cnotLowerBound(int n);

/**
 * Exact 3-CNOT realization of an arbitrary two-qubit unitary on
 * qubits (a, b): analytic 0/1/2-CX classes, numeric instantiation of
 * the three-CX structure otherwise.
 */
std::vector<circuit::Gate> su4ToCnots(int a, int b, const Matrix &u);

/**
 * Decompose a two-qubit unitary over a fixed 2Q basis gate plus free
 * 1Q layers (k = 1..3 basis uses). This is the paper's variational-
 * program mode (Section 5.3.1): the 2Q calibration set shrinks to a
 * single gate (e.g. SQiSW) and all variational parameters move into
 * the 1Q layers, which the PMW protocol implements without explicit
 * calibration. Returns an empty vector only if instantiation fails
 * at k = 3 (numerically it never does for SQiSW/B).
 */
std::vector<circuit::Gate> su4ToFixedBasis(int a, int b,
                                           const Matrix &u,
                                           circuit::Op basis);

} // namespace reqisc::synth

#endif // REQISC_SYNTH_SYNTHESIS_HH
