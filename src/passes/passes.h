/**
 * @file
 * The cross-level optimization and lowering passes of §4, in pipeline
 * order (Fig. 13).
 */
#ifndef RELAX_PASSES_PASSES_H_
#define RELAX_PASSES_PASSES_H_

#include <optional>
#include <string>
#include <unordered_map>

#include "passes/pass.h"

namespace relax {
namespace passes {

/**
 * Target description consulted by partial library lowering (§4.6) and
 * graph offloading (§4.5). Populated from a device spec by the driver.
 */
struct TargetInfo
{
    /** Vendor GEMM library name ("cublas", "rocblas", "mps"), if any. */
    std::optional<std::string> gemmLibrary;
    /** Fused attention library name ("flashattn"), if any. */
    std::optional<std::string> attentionLibrary;
    /** Fused norm/epilogue library name ("cutlass"), if any. */
    std::optional<std::string> epilogueLibrary;
    /** Whether the driver supports static execution graphs (CUDA Graph). */
    bool supportsExecutionGraphs = false;
    /**
     * Bucket size for execution-graph capture signatures: symbolic dims
     * are rounded up to the next multiple of this block (or the next
     * power of two, when smaller) when keying captured graphs,
     * recovering replay across nearby shapes (steady-state decode bumps
     * the context length every step). 1 = exact signatures.
     */
    int64_t graphBucketTokens = 1;
};

/** Upper bounds for symbolic variables (by name), used for static memory
 *  planning of dynamic shapes (§4.3). */
using SymBounds = std::unordered_map<std::string, int64_t>;

/** Re-runs forward deduction over every binding, refreshing annotations. */
Pass normalizePass();

/**
 * Megatron-style tensor parallelism over `decode_ragged`: consumes the
 * frontend's `tp` / `tp_dim` annotations to divide attention heads and
 * FFN intermediate dims across `num_shards` devices and splices explicit
 * `ccl.all_reduce` / `ccl.all_gather` sites (two all-reduces per layer,
 * one logits all-gather). Runs FIRST in the pipeline, before any
 * lowering. No-op for num_shards <= 1 or modules without the function;
 * throws RuntimeError when a sharded dim does not divide evenly or no
 * annotations exist (quantized weights).
 */
Pass shardPass(int64_t num_shards);

/** Removes dataflow bindings whose results are never used (§3.1). */
Pass deadCodeEliminationPass();

/** Evaluates operator calls over compile-time constant operands using the
 *  legalization + interpreter path (so folding can never diverge from
 *  execution). */
Pass constantFoldPass();

/**
 * Partial library lowering (§4.6): pattern-matches operator calls against
 * the target's libraries and rewrites matched regions to
 * call_dps_library, leaving the rest for code generation.
 */
Pass partialLibraryLoweringPass(const TargetInfo& target);

/** Lowers remaining high-level operator calls to call_tir of generated
 *  tensor programs (the "operator to tensor program lowering" stage). */
Pass legalizeOpsPass();

/** Analysis feedback (Alg. 1): annotates each tensor program with its
 *  compute pattern kind. */
Pass annotateTIRPatternsPass();

/** Dynamic shape-aware operator fusion (Alg. 2): groups call_tir bindings
 *  into subgraph functions, preserving symbolic shapes via extra Shape
 *  parameters (Fig. 8/9). */
Pass fuseOpsPass();

/** Merges the tensor programs inside each fused subgraph function into a
 *  single kernel and inlines the call site (Fig. 9, FuseTensorIR). */
Pass fuseTensorIRPass();

/** Cross-level workspace lifting (Fig. 11): hoists global workspace
 *  allocations out of tensor programs into graph-level allocations. */
Pass workspaceLiftingPass();

/** Automatic in-place planning: proves DPS outputs may alias dead inputs
 *  and annotates call sites with `inplace_arg` ahead of LowerCallTIR
 *  (declared with its analysis in passes/alias_analysis.h). */
Pass inplacePlanPass();

/** Lowers call_tir / call_dps_library to explicit alloc_tensor plus DPS
 *  kernel invocation (Fig. 5 semantics made explicit). */
Pass lowerCallTIRPass();

/**
 * Dynamic shape-aware memory planning (Alg. 3): liveness analysis plus a
 * storage pool with symbolic-size reuse; with `bounds`, storage is sized
 * to the static upper bound so all memory is pre-allocatable.
 */
Pass staticMemoryPlanPass(const SymBounds& bounds = {});

/** CUDA-Graph-style offloading (§4.5): wraps statically-planned kernel
 *  sequences in capture/replay regions when the target supports it. */
Pass graphOffloadPass(const TargetInfo& target);

} // namespace passes
} // namespace relax

#endif // RELAX_PASSES_PASSES_H_
