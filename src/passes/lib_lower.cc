/**
 * @file
 * Partial library lowering (§4.6): a pattern-match-and-rewrite pass that
 * dispatches matched operator calls to the target platform's vendor
 * libraries via call_dps_library, leaving everything else for the tensor
 * program path. Runs first in the pipeline (Fig. 13), which is what lets
 * the compiler use generated matrix-vector kernels at batch size 1 while
 * dispatching heavy GEMMs to cuBLAS at larger batches (§5.1).
 */
#include "arith/analyzer.h"
#include "passes/passes.h"

namespace relax {
namespace passes {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

/** Library GEMM pays off only for batch*seq >= this many rows; below it
 *  the compiler-generated matrix-vector kernel wins (§5.1 batch-1 case). */
constexpr int64_t kLibraryGemmMinRows = 2;

/** Evaluates the "row count" (product of all but the last output dim)
 *  when it is a compile-time constant; nullopt when symbolic. */
std::optional<int64_t>
constRowCount(const StructInfo& out_sinfo)
{
    const auto* tensor = asTensor(out_sinfo);
    if (!tensor || !tensor->shape) return std::nullopt;
    PrimExpr rows = intImm(1);
    for (size_t d = 0; d + 1 < tensor->shape->size(); ++d) {
        rows = mul(rows, (*tensor->shape)[d]);
    }
    Analyzer analyzer;
    PrimExpr simplified = analyzer.simplify(rows);
    if (const int64_t* value = asIntImm(simplified)) return *value;
    return std::nullopt;
}

Expr
tryLowerToLibrary(const Expr& value, const TargetInfo& target)
{
    if (!value || value->kind() != RxKind::kCall) return value;
    const auto* call = static_cast<const CallNode*>(value.get());
    if (!call->op || call->op->kind() != RxKind::kOp) return value;
    const std::string& op_name =
        static_cast<const OpNode*>(call->op.get())->name;
    StructInfo out_sinfo = value->structInfo();

    if (op_name == "relax.matmul" && target.gemmLibrary) {
        // Heavy-load GEMMs go to the vendor library; skinny matrix-vector
        // products keep the generated kernel (§5.1). Symbolic row counts
        // (sequence length) default to the library.
        auto rows = constRowCount(out_sinfo);
        if (!rows || *rows >= kLibraryGemmMinRows) {
            Call lowered = callDPSLibrary(*target.gemmLibrary + ".matmul",
                                          call->args, out_sinfo);
            lowered->attrs = call->attrs;
            return lowered;
        }
        return value;
    }
    if (op_name == "relax.attention" && target.attentionLibrary) {
        Call lowered =
            callDPSLibrary(*target.attentionLibrary + ".attention",
                           call->args, out_sinfo);
        lowered->attrs = call->attrs;
        return lowered;
    }
    if (op_name == "relax.attention_ragged" && target.attentionLibrary) {
        // Page-pool ragged attention maps to the library's paged-KV
        // varlen entry point (FlashAttention's paged kernel): keys and
        // values gather from the persistent pool through the block
        // table, and its cost is priced per-sequence from the length
        // vector — never from the pool size.
        Call lowered =
            callDPSLibrary(*target.attentionLibrary + ".attention_ragged",
                           call->args, out_sinfo);
        lowered->attrs = call->attrs;
        return lowered;
    }
    if (op_name == "relax.rms_norm" && target.epilogueLibrary) {
        Call lowered = callDPSLibrary(*target.epilogueLibrary + ".rms_norm",
                                      call->args, out_sinfo);
        lowered->attrs = call->attrs;
        return lowered;
    }
    if (op_name == "relax.layer_norm" && target.epilogueLibrary) {
        Call lowered =
            callDPSLibrary(*target.epilogueLibrary + ".layer_norm",
                           call->args, out_sinfo);
        lowered->attrs = call->attrs;
        return lowered;
    }
    return value;
}

} // namespace

Pass
partialLibraryLoweringPass(const TargetInfo& target)
{
    return {"PartialLibraryLowering", [target](IRModulePtr module) {
                for (const auto& [name, func] : module->functions()) {
                    const auto* seq =
                        static_cast<const SeqExprNode*>(func->body.get());
                    for (const auto& block : seq->blocks) {
                        for (auto& binding : block->bindings) {
                            if (binding.isMatchCast) continue;
                            binding.value =
                                tryLowerToLibrary(binding.value, target);
                        }
                    }
                }
                return module;
            }};
}

} // namespace passes
} // namespace relax
