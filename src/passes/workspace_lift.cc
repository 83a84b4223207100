/**
 * @file
 * Cross-level tensor program workspace lifting (Fig. 11): detects global
 * workspace allocations inside tensor programs via analysis feedback,
 * rewrites the program to take the workspace as an explicit parameter,
 * and jointly rewrites every graph-level call site to allocate and pass
 * it — exposing the workspace to graph-level memory planning (§4.3).
 */
#include "passes/passes.h"

#include <unordered_map>

#include "tir/analysis.h"
#include "tir/transform.h"

namespace relax {
namespace passes {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

struct LiftedInfo
{
    tir::PrimFunc lifted;
    tir::Buffer workspace;
};

/** Removes the global AllocBuffer wrapper, keeping its body, at any
 *  depth. */
tir::Stmt
stripGlobalAlloc(const tir::Stmt& stmt, const tir::BufferNode* target)
{
    if (stmt->kind() == tir::StmtKind::kAllocBuffer) {
        const auto* node =
            static_cast<const tir::AllocBufferNode*>(stmt.get());
        if (node->buffer.get() == target) return node->body;
    }
    return tir::mapChildren(
        stmt, [](const PrimExpr& expr) { return expr; },
        [&](const tir::Stmt& sub) { return stripGlobalAlloc(sub, target); });
}

} // namespace

Pass
workspaceLiftingPass()
{
    return {"WorkspaceLifting", [](IRModulePtr module) {
                // Pass 1: rewrite tensor programs with global workspaces.
                std::unordered_map<std::string, LiftedInfo> lifted;
                std::vector<std::pair<std::string, tir::PrimFunc>> worklist(
                    module->tirFuncs().begin(), module->tirFuncs().end());
                for (const auto& [name, func] : worklist) {
                    auto workspace = tir::findGlobalWorkspace(func);
                    if (!workspace) continue;
                    // New param order: inputs..., workspace, outputs.
                    std::vector<tir::Buffer> params(
                        func->params.begin(),
                        func->params.end() - func->numOutputs);
                    params.push_back(workspace->buffer);
                    params.insert(params.end(),
                                  func->params.end() - func->numOutputs,
                                  func->params.end());
                    tir::PrimFunc rewritten = tir::makePrimFunc(
                        name, std::move(params),
                        stripGlobalAlloc(func->body,
                                         workspace->buffer.get()),
                        func->symParams, func->numOutputs);
                    rewritten->attrs = func->attrs;
                    rewritten->attrs["lifted_workspace"] = "1";
                    lifted[name] = {rewritten, workspace->buffer};
                    module->addTIRFunc(rewritten);
                }
                if (lifted.empty()) return module;

                // Pass 2: rewrite graph-level call sites to allocate the
                // workspace and pass it explicitly.
                for (const auto& [fname, func] : module->functions()) {
                    const auto* seq =
                        static_cast<const SeqExprNode*>(func->body.get());
                    for (const auto& block : seq->blocks) {
                        std::vector<Binding> rewritten;
                        for (const auto& binding : block->bindings) {
                            if (!isOpCall(binding.value, "relax.call_tir")) {
                                rewritten.push_back(binding);
                                continue;
                            }
                            const auto* call = static_cast<const CallNode*>(
                                binding.value.get());
                            const auto* gv =
                                static_cast<const GlobalVarNode*>(
                                    call->args[0].get());
                            auto it = lifted.find(gv->name);
                            if (it == lifted.end()) {
                                rewritten.push_back(binding);
                                continue;
                            }
                            // ws = builtin.alloc_tensor(shape)
                            const tir::Buffer& ws = it->second.workspace;
                            StructInfo ws_sinfo =
                                tensorSInfo(ws->shape, ws->dtype);
                            Call alloc = makeCall(
                                getOp("relax.builtin.alloc_tensor"), {}, {},
                                {ws_sinfo});
                            alloc->setStructInfo(ws_sinfo);
                            Var ws_var = makeVar(
                                "workspace", ws_sinfo,
                                binding.var->isDataflow);
                            rewritten.push_back(
                                {ws_var, alloc, false, nullptr});
                            // call_tir(f, [inputs..., ws], out)
                            int64_t num_sym = 0;
                            if (auto attr = call->attrs.find("num_sym_args");
                                attr != call->attrs.end()) {
                                num_sym = std::get<int64_t>(attr->second);
                            }
                            std::vector<Expr> args(
                                call->args.begin() + 1,
                                call->args.end() - num_sym);
                            std::vector<Expr> sym_args(
                                call->args.end() - num_sym,
                                call->args.end());
                            args.push_back(ws_var);
                            Call updated = callTIR(
                                module->getGlobalVar(gv->name), args,
                                binding.var->structInfo(), sym_args);
                            rewritten.push_back(
                                {binding.var, updated, false, nullptr});
                        }
                        block->bindings = std::move(rewritten);
                    }
                }
                return module;
            }};
}

} // namespace passes
} // namespace relax
