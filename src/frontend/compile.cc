/**
 * @file
 * Implements the compile() driver: derives the pass-facing TargetInfo
 * from the device spec (library names per backend, execution-graph
 * support, GEMM row threshold), assembles the Fig. 13 pipeline with
 * each optimization gated by its CompileOptions toggle, and hands the
 * lowered module to VM codegen.
 */
#include "frontend/compile.h"

#include <algorithm>

namespace relax {
namespace frontend {

passes::TargetInfo
targetFromDevice(const device::DeviceSpec& spec,
                 const CompileOptions& options)
{
    passes::TargetInfo target;
    if (options.enableLibraryLowering && spec.hasGemmLibrary) {
        if (spec.backend == "cuda") {
            target.gemmLibrary = "cublas";
        } else if (spec.backend == "rocm") {
            target.gemmLibrary = "rocblas";
        } else if (spec.backend == "metal") {
            target.gemmLibrary = "mps";
        }
    }
    if (options.enableLibraryLowering && spec.hasAttentionLibrary) {
        target.attentionLibrary = "flashattn";
    }
    if (options.enableLibraryLowering && spec.hasEpilogueLibrary) {
        target.epilogueLibrary = "cutlass";
    }
    target.supportsExecutionGraphs =
        options.enableGraphOffload && spec.supportsExecutionGraphs;
    target.graphBucketTokens = std::max<int64_t>(options.graphBucketTokens, 1);
    return target;
}

vm::ExecutablePtr
compile(ir::IRModulePtr module, const CompileOptions& options)
{
    passes::TargetInfo target = targetFromDevice(options.device, options);
    passes::Pipeline pipeline;
    if (options.tensorParallel > 1) {
        // Sharding must see the frontend's tp annotations before any
        // lowering rewrites them away.
        pipeline.add(passes::shardPass(options.tensorParallel));
    }
    pipeline.add(passes::normalizePass()).add(passes::constantFoldPass());
    if (options.enableLibraryLowering) {
        pipeline.add(passes::partialLibraryLoweringPass(target));
    }
    pipeline.add(passes::legalizeOpsPass())
        .add(passes::deadCodeEliminationPass())
        .add(passes::annotateTIRPatternsPass());
    if (options.enableFusion) {
        pipeline.add(passes::fuseOpsPass())
            .add(passes::fuseTensorIRPass());
    }
    pipeline.add(passes::workspaceLiftingPass());
    if (options.enableInplacePlanning) {
        pipeline.add(passes::inplacePlanPass());
    }
    pipeline.add(passes::lowerCallTIRPass());
    if (options.enableMemoryPlanning) {
        pipeline.add(passes::staticMemoryPlanPass(options.bounds));
    }
    if (target.supportsExecutionGraphs) {
        pipeline.add(passes::graphOffloadPass(target));
    }
    module = pipeline.run(std::move(module), /*check_well_formed=*/false);
    return vm::buildExecutable(module);
}

} // namespace frontend
} // namespace relax
