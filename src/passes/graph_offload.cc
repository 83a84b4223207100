/**
 * @file
 * CUDA-Graph-style offloading (§4.5). Requires static memory planning:
 * once all storage is pre-allocated, maximal runs of kernel launches are
 * wrapped in capture/replay regions. At runtime the first execution of a
 * region (per shape signature) captures; subsequent executions replay
 * with reduced per-kernel launch overhead.
 */
#include "passes/passes.h"

namespace relax {
namespace passes {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

/** Capturable bindings: kernel launches and pure rebinds between them.
 *  Storage bindings are capturable too: this pass only runs on
 *  statically planned functions, where alloc_storage resolves to a
 *  pre-allocated chunk (a steady-state no-op, like the pre-capture
 *  allocation CUDA Graphs require), so it must not fragment regions. */
bool
isCapturable(const Binding& binding)
{
    if (isOpCall(binding.value, "relax.vm.kernel_call")) return true;
    if (isOpCall(binding.value, "relax.memory.alloc_tensor")) return true;
    if (isOpCall(binding.value, "relax.memory.alloc_storage")) return true;
    if (binding.value->kind() == RxKind::kVar) return true;
    if (binding.value->kind() == RxKind::kTuple) return true;
    return false;
}

bool
isKernelLaunch(const Binding& binding)
{
    return isOpCall(binding.value, "relax.vm.kernel_call");
}

Binding
makeMarker(const char* op, int64_t graph_id, int64_t bucket_block = 1)
{
    Attrs attrs;
    attrs["graph_id"] = graph_id;
    if (bucket_block > 1) attrs["bucket_block"] = bucket_block;
    Call call = makeCall(getOp(op), {}, std::move(attrs));
    call->setStructInfo(objectSInfo());
    return {makeVar("_", objectSInfo()), call, false, nullptr};
}

} // namespace

Pass
graphOffloadPass(const TargetInfo& target)
{
    return {"GraphOffload", [target](IRModulePtr module) {
                if (!target.supportsExecutionGraphs) return module;
                int64_t next_graph_id = 0;
                for (const auto& [name, func] : module->functions()) {
                    if (func->attrs.count("static_plan") == 0 ||
                        func->attrs.at("static_plan") != "1") {
                        continue; // capture requires static allocation
                    }
                    const auto* seq =
                        static_cast<const SeqExprNode*>(func->body.get());
                    for (const auto& block : seq->blocks) {
                        std::vector<Binding> rewritten;
                        std::vector<Binding> run;
                        int kernel_count = 0;
                        auto flush = [&]() {
                            if (kernel_count >= 2) {
                                rewritten.push_back(makeMarker(
                                    "relax.vm.graph_begin",
                                    next_graph_id,
                                    target.graphBucketTokens));
                                rewritten.insert(rewritten.end(),
                                                 run.begin(), run.end());
                                rewritten.push_back(makeMarker(
                                    "relax.vm.graph_end", next_graph_id));
                                ++next_graph_id;
                            } else {
                                rewritten.insert(rewritten.end(),
                                                 run.begin(), run.end());
                            }
                            run.clear();
                            kernel_count = 0;
                        };
                        for (const auto& binding : block->bindings) {
                            if (isCapturable(binding)) {
                                run.push_back(binding);
                                kernel_count += isKernelLaunch(binding);
                            } else {
                                flush();
                                rewritten.push_back(binding);
                            }
                        }
                        flush();
                        block->bindings = std::move(rewritten);
                    }
                }
                return module;
            }};
}

} // namespace passes
} // namespace relax
