/**
 * @file
 * End-to-end compilation driver: runs the Fig. 13 pipeline for a target
 * device and builds a VM executable. Individual optimizations can be
 * toggled for the ablation study (Fig. 17).
 */
#ifndef RELAX_FRONTEND_COMPILE_H_
#define RELAX_FRONTEND_COMPILE_H_

#include "device/device.h"
#include "passes/passes.h"
#include "vm/exec.h"

namespace relax {
namespace frontend {

/** Compilation options; defaults enable every optimization the target
 *  supports. */
struct CompileOptions
{
    device::DeviceSpec device;
    passes::SymBounds bounds;
    bool enableLibraryLowering = true;
    bool enableFusion = true;
    /** Automatic in-place planning (alias/liveness-driven `inplace_arg`
     *  rewriting). Off = every DPS call allocates its output. */
    bool enableInplacePlanning = true;
    bool enableMemoryPlanning = true;
    bool enableGraphOffload = true;
    /**
     * Bucket size for execution-graph capture signatures (see
     * TargetInfo::graphBucketTokens). 1 keys graphs by exact shapes;
     * larger values round symbolic dims up to a block boundary so
     * nearby shapes replay one captured graph. 0 means "auto": plain
     * compiles behave like 1, while the serving engine substitutes its
     * KV block size so graph buckets align with KV page boundaries.
     */
    int64_t graphBucketTokens = 0;
    /**
     * Tensor-parallel shard count. When > 1, ShardPass rewrites
     * `decode_ragged` into the per-shard program of an N-way device
     * group (weights and KV pools divided, explicit ccl.* collective
     * sites) before any other pass runs; one compiled executable then
     * serves every shard. 1 leaves the pipeline byte-identical to the
     * single-device build.
     */
    int64_t tensorParallel = 1;
};

/** Derives the pass-facing target description from a device spec. */
passes::TargetInfo targetFromDevice(const device::DeviceSpec& spec,
                                    const CompileOptions& options);

/** Optimizes and compiles the module into a VM executable. */
vm::ExecutablePtr compile(ir::IRModulePtr module,
                          const CompileOptions& options);

} // namespace frontend
} // namespace relax

#endif // RELAX_FRONTEND_COMPILE_H_
