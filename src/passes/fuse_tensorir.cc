/**
 * @file
 * FuseTensorIR (Fig. 9, yellow stage): a cross-level transformation that
 * merges the tensor programs called inside each fused subgraph function
 * into a single kernel, rewrites the call site to a direct call_tir, and
 * removes the subgraph function and every tensor program it merged that
 * no call_tir still names. Symbolic shapes are preserved by
 * unifying each callee's buffer shapes against the graph-level
 * annotations and threading unbound symbolic variables through explicit
 * scalar parameters.
 */
#include "passes/passes.h"

#include <unordered_map>
#include <unordered_set>

#include "ir/utils.h"
#include "tir/transform.h"

namespace relax {
namespace passes {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

struct MergedKernel
{
    tir::PrimFunc func;
    /** Graph-level tensor params of the subgraph fn, in kernel order. */
    std::vector<const VarNode*> tensorParams;
    /** Symbolic variables passed as trailing scalar args. */
    std::vector<::relax::Var> symVars;
    /** The tensor programs merged into `func`. */
    std::vector<std::string> callees;
};

std::vector<PrimExpr>
sinfoShape(const StructInfo& sinfo, const std::string& what)
{
    const auto* tensor = asTensor(sinfo);
    if (!tensor || !tensor->shape) {
        RELAX_THROW(IRError)
            << "FuseTensorIR: " << what << " lacks a symbolic shape";
    }
    return *tensor->shape;
}

/** Merges the call_tir bindings of one primitive subgraph function. */
std::optional<MergedKernel>
mergeSubgraph(const Function& subgraph, const std::string& name,
              const IRModulePtr& module)
{
    MergedKernel merged;
    // Split params into tensors and the optional trailing Shape param.
    std::vector<Var> tensor_params;
    for (const auto& param : subgraph->params) {
        if (asTensor(param->structInfo())) {
            tensor_params.push_back(param);
        } else if (const auto* shp = asShape(param->structInfo());
                   shp && shp->values) {
            for (const auto& dim : *shp->values) {
                RELAX_ICHECK(dim->kind() == ExprKind::kVar)
                    << "shape param dims must be bare vars";
                merged.symVars.push_back(
                    std::static_pointer_cast<const ::relax::VarNode>(dim));
            }
        } else {
            return std::nullopt; // unexpected param kind; leave unfused
        }
    }

    // Kernel buffers for the graph-level tensor params.
    std::unordered_map<const VarNode*, tir::Buffer> var_buffer;
    std::vector<tir::Buffer> param_buffers;
    for (const auto& param : tensor_params) {
        const auto* tensor = asTensor(param->structInfo());
        tir::Buffer buffer = tir::makeBuffer(
            param->name, tensor->dtype,
            sinfoShape(param->structInfo(), param->name));
        var_buffer[param.get()] = buffer;
        param_buffers.push_back(buffer);
        merged.tensorParams.push_back(param.get());
    }

    const auto* seq = static_cast<const SeqExprNode*>(subgraph->body.get());
    if (seq->body->kind() != RxKind::kVar) return std::nullopt;
    const auto* result_var = static_cast<const VarNode*>(seq->body.get());

    std::vector<tir::Stmt> bodies;
    std::vector<tir::Buffer> intermediates;
    tir::Buffer output_buffer;

    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            if (!isOpCall(binding.value, "relax.call_tir")) {
                return std::nullopt;
            }
            const auto* call =
                static_cast<const CallNode*>(binding.value.get());
            const auto* gv =
                static_cast<const GlobalVarNode*>(call->args[0].get());
            tir::PrimFunc callee = module->getTIRFunc(gv->name);
            RELAX_ICHECK(callee) << "missing tensor program " << gv->name;
            RELAX_ICHECK(callee->numOutputs == 1)
                << "fused callees must be single-output";
            merged.callees.push_back(gv->name);

            // Unify callee buffer shapes against graph-level shapes to
            // recover the callee's symbolic vars in caller terms.
            VarMap callee_binding;
            size_t num_inputs = callee->params.size() - 1;
            size_t num_sym = 0;
            if (auto it = call->attrs.find("num_sym_args");
                it != call->attrs.end()) {
                num_sym = (size_t)std::get<int64_t>(it->second);
            }
            RELAX_ICHECK(call->args.size() - 1 - num_sym == num_inputs)
                << gv->name << ": arity mismatch in fusion";
            tir::BufferMap buffer_map;
            for (size_t i = 0; i < num_inputs; ++i) {
                const Expr& arg = call->args[i + 1];
                std::vector<PrimExpr> arg_shape =
                    sinfoShape(arg->structInfo(), "fusion argument");
                if (!tir::unifyShapes(callee->params[i]->shape, arg_shape,
                                      &callee_binding)) {
                    RELAX_THROW(ShapeError)
                        << "FuseTensorIR: cannot unify shapes of "
                        << gv->name << " parameter "
                        << callee->params[i]->name;
                }
                // Map the callee input buffer to the caller-side buffer.
                RELAX_ICHECK(arg->kind() == RxKind::kVar)
                    << "fusion arguments must be variables (constants are "
                    << "hoisted to parameters by FuseOps)";
                const auto* arg_var =
                    static_cast<const VarNode*>(arg.get());
                auto it = var_buffer.find(arg_var);
                RELAX_ICHECK(it != var_buffer.end())
                    << "unbound fusion input " << arg_var->name;
                buffer_map[callee->params[i].get()] = it->second;
            }
            // Output buffer: final output param or a new intermediate.
            const tir::Buffer& callee_out = callee->params.back();
            std::vector<PrimExpr> out_shape =
                sinfoShape(binding.var->structInfo(), binding.var->name);
            if (!tir::unifyShapes(callee_out->shape, out_shape,
                                  &callee_binding)) {
                RELAX_THROW(ShapeError)
                    << "FuseTensorIR: cannot unify output shape of "
                    << gv->name;
            }
            const auto* out_tensor = asTensor(binding.var->structInfo());
            tir::Buffer out_buffer = tir::makeBuffer(
                binding.var->name, out_tensor->dtype, out_shape);
            var_buffer[binding.var.get()] = out_buffer;
            buffer_map[callee_out.get()] = out_buffer;
            if (binding.var.get() == result_var) {
                output_buffer = out_buffer;
            } else {
                intermediates.push_back(out_buffer);
            }
            bodies.push_back(tir::substituteStmt(callee->body,
                                                 callee_binding,
                                                 buffer_map));
        }
    }
    if (!output_buffer) return std::nullopt;

    tir::Stmt body = tir::makeSeq(std::move(bodies));
    for (const auto& buffer : intermediates) {
        body = tir::makeAllocBuffer(buffer, "local", std::move(body));
    }
    param_buffers.push_back(output_buffer);
    merged.func = tir::makePrimFunc(name, std::move(param_buffers), body,
                                    merged.symVars);
    return merged;
}

/** Rewrites calls to a fused subgraph fn into direct call_tir. */
Expr
rewriteCallSite(const Expr& value, const std::string& subgraph_name,
                const MergedKernel& merged, const IRModulePtr& module)
{
    if (!value || value->kind() != RxKind::kCall) return value;
    const auto* call = static_cast<const CallNode*>(value.get());
    if (!call->op || call->op->kind() != RxKind::kGlobalVar) return value;
    const auto* gv = static_cast<const GlobalVarNode*>(call->op.get());
    if (gv->name != subgraph_name) return value;

    std::vector<Expr> tensor_args;
    std::vector<Expr> sym_args;
    for (const auto& arg : call->args) {
        if (arg->kind() == RxKind::kShapeExpr) {
            for (const auto& dim :
                 static_cast<const ShapeExprNode*>(arg.get())->values) {
                sym_args.push_back(makePrimValue(dim));
            }
        } else {
            tensor_args.push_back(arg);
        }
    }
    Call lowered = callTIR(module->getGlobalVar(merged.func->name),
                           tensor_args, value->structInfo(), sym_args);
    return lowered;
}

} // namespace

Pass
fuseTensorIRPass()
{
    return {"FuseTensorIR", [](IRModulePtr module) {
                // Merge each primitive subgraph function.
                std::vector<std::pair<std::string, MergedKernel>> merged;
                for (const auto& [name, func] : module->functions()) {
                    if (!func->attrs.count("primitive")) continue;
                    auto kernel = mergeSubgraph(func, name, module);
                    if (kernel) merged.emplace_back(name, std::move(*kernel));
                }
                for (auto& [name, kernel] : merged) {
                    module->removeFunction(name);
                    module->addTIRFunc(kernel.func);
                }
                // Rewrite every call site, noting the tensor programs a
                // call_tir still names.
                std::unordered_set<std::string> called;
                for (const auto& [fname, func] : module->functions()) {
                    const auto* seq =
                        static_cast<const SeqExprNode*>(func->body.get());
                    for (const auto& block : seq->blocks) {
                        for (auto& binding : block->bindings) {
                            for (const auto& [name, kernel] : merged) {
                                binding.value = rewriteCallSite(
                                    binding.value, name, kernel, module);
                            }
                            if (isOpCall(binding.value, "relax.call_tir")) {
                                const auto* call = static_cast<const CallNode*>(
                                    binding.value.get());
                                called.insert(static_cast<const GlobalVarNode*>(
                                                  call->args[0].get())
                                                  ->name);
                            }
                        }
                    }
                }
                for (const auto& [name, kernel] : merged) {
                    for (const std::string& callee : kernel.callees) {
                        if (!called.count(callee)) {
                            module->removeFunction(callee);
                        }
                    }
                }
                return module;
            }};
}

} // namespace passes
} // namespace relax
