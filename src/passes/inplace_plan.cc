/**
 * @file
 * InplacePlanPass: automatic in-place planning over dataflow blocks.
 *
 * Runs after workspace lifting and before LowerCallTIR (the stage where
 * every compute is a call_tir / call_dps_library binding and inplace_arg
 * is still consumable). For each eligible site the pass proves, using the
 * alias/liveness facts of alias_analysis.h, that the DPS output may alias
 * a candidate input and annotates the call with `inplace_arg`, so
 * LowerCallTIR emits no alloc_tensor and the VM's out argument becomes
 * the input tensor. The proof obligations:
 *
 *  1. dead input — the candidate's storage has no live holder after the
 *     call: every var sharing a root with it (through rebinds, tuples,
 *     projections, earlier in-place chains) was last used at or before
 *     this binding;
 *  2. compatibility — identical dtype and per-dimension structurally
 *     equal shape between candidate and output;
 *  3. ownership — no root is a constant, and parameter roots are allowed
 *     only when the function donates them ("donatable_params" attr, the
 *     frontend's mark on the persistent KV page pools; COW-shared or
 *     otherwise externally owned tensors are simply never donated);
 *  4. kernel safety — for call_dps_library, the library's in-place
 *     contract (libraryInplaceArg); for call_tir, a conservative
 *     elementwise-alignment check on the tensor program: the output is
 *     stored by exactly one syntactic store, the output buffer is never
 *     loaded, and every load of the candidate buffer appears in that
 *     store's value at the very indices being stored — so in sequential
 *     DPS execution each element of the candidate is read only before
 *     the aliased write to the same element.
 *
 * On the llama graphs this rewrites the KV page-pool appends, the
 * residual adds (fused matmul+add epilogues) and the ffn elementwise
 * epilogue, shrinking captured decode regions and the activation plan.
 */
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "arith/structural.h"
#include "passes/alias_analysis.h"
#include "passes/passes.h"
#include "tir/stmt.h"

namespace relax {
namespace passes {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

/** True iff `expr` contains a load of `buf` anywhere. */
bool
containsLoadOf(const PrimExpr& expr, const tir::BufferNode* buf)
{
    if (expr && expr->kind() == ExprKind::kBufferLoad &&
        static_cast<const tir::BufferLoadNode*>(expr.get())->buffer.get() ==
            buf) {
        return true;
    }
    for (const PrimExpr& operand : tir::operandsAndIndices(expr)) {
        if (containsLoadOf(operand, buf)) return true;
    }
    return false;
}

/** Loop vars whose extent is the constant 1 — they only ever hold 0. */
using UnitVarSet = std::unordered_set<const ::relax::VarNode*>;

bool
isZeroIndex(const PrimExpr& expr, const UnitVarSet& unit_vars)
{
    if (expr->kind() == ExprKind::kIntImm) {
        return static_cast<const IntImmNode*>(expr.get())->value == 0;
    }
    return expr->kind() == ExprKind::kVar &&
           unit_vars.count(
               static_cast<const ::relax::VarNode*>(expr.get()));
}

/**
 * Index equality modulo unit loops: the broadcast-aware kernel builders
 * project a constant-1 dim to a literal 0 in loads while the store keeps
 * the (extent-1) loop var, and both address the same element.
 */
bool
indexEqual(const PrimExpr& a, const PrimExpr& b,
           const UnitVarSet& unit_vars)
{
    if (structuralEqual(a, b)) return true;
    return isZeroIndex(a, unit_vars) && isZeroIndex(b, unit_vars);
}

/** True iff every load of `buf` inside `expr` uses exactly `indices`
 *  (modulo unit loops). Recurses through nested loads of other buffers. */
bool
loadsAligned(const PrimExpr& expr, const tir::BufferNode* buf,
             const std::vector<PrimExpr>& indices,
             const UnitVarSet& unit_vars)
{
    if (expr && expr->kind() == ExprKind::kBufferLoad) {
        const auto* load =
            static_cast<const tir::BufferLoadNode*>(expr.get());
        if (load->buffer.get() == buf) {
            if (load->indices.size() != indices.size()) return false;
            for (size_t i = 0; i < indices.size(); ++i) {
                if (!indexEqual(load->indices[i], indices[i], unit_vars)) {
                    return false;
                }
            }
        }
    }
    for (const PrimExpr& operand : tir::operandsAndIndices(expr)) {
        if (!loadsAligned(operand, buf, indices, unit_vars)) return false;
    }
    return true;
}

struct TIRScan
{
    const tir::BufferNode* in = nullptr;
    const tir::BufferNode* out = nullptr;
    int outStores = 0;
    bool ok = true;
    UnitVarSet unitVars;
};

void
scanStmt(const tir::Stmt& stmt, TIRScan* scan)
{
    if (!scan->ok) return;
    if (stmt->kind() == tir::StmtKind::kBufferStore) {
        const auto* store =
            static_cast<const tir::BufferStoreNode*>(stmt.get());
        for (const auto& idx : store->indices) {
            if (containsLoadOf(idx, scan->in)) scan->ok = false;
        }
        if (store->buffer.get() == scan->out) {
            ++scan->outStores;
            if (!loadsAligned(store->value, scan->in, store->indices,
                              scan->unitVars)) {
                scan->ok = false;
            }
        } else if (store->buffer.get() == scan->in ||
                   containsLoadOf(store->value, scan->in)) {
            // Storing into (or from) the candidate outside the single
            // output store: unsafe under aliasing.
            scan->ok = false;
        }
        return;
    }
    if (stmt->kind() == tir::StmtKind::kFor) {
        const auto* loop = static_cast<const tir::ForNode*>(stmt.get());
        if (isConstInt(loop->extent, 1)) {
            scan->unitVars.insert(loop->loopVar.get());
        }
    }
    tir::forEachChild(
        stmt,
        [&](const PrimExpr& expr) {
            if (containsLoadOf(expr, scan->in)) scan->ok = false;
        },
        [&](const tir::Stmt& sub) { scanStmt(sub, scan); });
}

/** True iff any load of `buf` appears anywhere in the body. */
bool
bodyLoads(const tir::Stmt& stmt, const tir::BufferNode* buf)
{
    bool found = false;
    tir::forEachChild(
        stmt,
        [&](const PrimExpr& expr) {
            found = found || containsLoadOf(expr, buf);
        },
        [&](const tir::Stmt& sub) { found = found || bodyLoads(sub, buf); });
    return found;
}

/**
 * The conservative kernel-safety check: writing the output over input
 * param `in_idx` is safe when the output is produced by one syntactic
 * store, the output buffer is never read, and the input is only read at
 * the stored element.
 */
bool
elementwiseAlignedConsumption(const tir::PrimFunc& func, size_t in_idx)
{
    if (func->numOutputs != 1) return false;
    const tir::BufferNode* out = func->params.back().get();
    const tir::BufferNode* in = func->params[in_idx].get();
    if (in == out) return false;
    if (bodyLoads(func->body, out)) return false;
    TIRScan scan;
    scan.in = in;
    scan.out = out;
    scanStmt(func->body, &scan);
    return scan.ok && scan.outStores == 1;
}

bool
sameTensorLayout(const TensorSInfoNode* a, const TensorSInfoNode* b)
{
    if (!a || !b || !a->shape || !b->shape) return false;
    if (a->dtype != b->dtype || a->shape->size() != b->shape->size()) {
        return false;
    }
    for (size_t i = 0; i < a->shape->size(); ++i) {
        if (!structuralEqual((*a->shape)[i], (*b->shape)[i])) {
            return false;
        }
    }
    return true;
}

/**
 * One function's planning walk. Never mutates shared IR nodes: rewritten
 * call sites become fresh CallNodes and the function is rebuilt around
 * them (module copies share bodies, so in-place attr edits would leak
 * into the caller's input module).
 */
class InplacePlanner
{
  public:
    InplacePlanner(const IRModulePtr& module, const Function& func)
        : module_(module), func_(func)
    {
        if (auto it = func->attrs.find("donatable_params");
            it != func->attrs.end()) {
            // ';'-joined param names the function owns outright.
            const std::string& names = it->second;
            size_t start = 0;
            while (start <= names.size()) {
                size_t end = names.find(';', start);
                if (end == std::string::npos) end = names.size();
                std::string name = names.substr(start, end - start);
                for (const auto& param : func->params) {
                    if (param->name == name) {
                        donatable_.insert(param.get());
                    }
                }
                start = end + 1;
            }
        }
    }

    /** Returns the planned function (the input one when nothing fired). */
    Function
    run()
    {
        if (func_->attrs.count("is_subgraph")) return func_;
        if (!func_->body || func_->body->kind() != RxKind::kSeqExpr) {
            return func_;
        }
        // Liveness facts come from the unmodified function: a rewrite
        // only adds an attr, never changes uses. Alias facts are tracked
        // incrementally over the REWRITTEN bindings so a rewrite at
        // binding i is visible to the eligibility check at j > i.
        AliasLivenessAnalysis analysis(func_);
        for (const auto& param : func_->params) {
            state_.addParam(param);
            noteHolder(param.get(), analysis);
        }

        size_t index = 0;
        const auto* seq =
            static_cast<const SeqExprNode*>(func_->body.get());
        std::vector<BindingBlock> new_blocks;
        for (const auto& block : seq->blocks) {
            auto new_block =
                std::make_shared<BindingBlockNode>(block->isDataflow);
            for (const auto& binding : block->bindings) {
                Binding planned = binding;
                if (block->isDataflow) {
                    if (Expr rewritten = tryRewrite(binding, index)) {
                        planned.value = std::move(rewritten);
                    }
                }
                state_.bind(planned, index);
                noteHolder(planned.var.get(), analysis);
                new_block->bindings.push_back(std::move(planned));
                ++index;
            }
            new_blocks.push_back(std::move(new_block));
        }

        auto updated = makeFunction(
            func_->params, makeSeqExpr(std::move(new_blocks), seq->body),
            func_->retSInfo);
        updated->setStructInfo(func_->structInfo());
        updated->attrs = func_->attrs;
        updated->attrs["inplace.rewrites"] = std::to_string(rewrites_);
        if (!callees_.empty()) {
            updated->attrs["inplace.callees"] = callees_;
        }
        return updated;
    }

  private:
    void
    noteHolder(const VarNode* v, const AliasLivenessAnalysis& analysis)
    {
        size_t last = analysis.lastDirectUse(v);
        if (last == AliasLivenessAnalysis::kNeverUsed) return;
        for (int id : state_.rootsOf(v)) {
            if ((size_t)id >= rootLastLive_.size()) {
                rootLastLive_.resize(id + 1, 0);
            }
            rootLastLive_[id] = std::max(rootLastLive_[id], last);
        }
    }

    bool
    rootsRewritable(const std::vector<int>& roots, size_t index) const
    {
        if (roots.empty()) return false;
        for (int id : roots) {
            const AliasRoot& root = state_.root(id);
            if (root.kind == AliasRoot::Kind::kConst ||
                root.kind == AliasRoot::Kind::kStorage) {
                return false;
            }
            if (root.kind == AliasRoot::Kind::kParam &&
                !donatable_.count(root.var)) {
                return false;
            }
            // Dead-input proof: no holder of this root is used past the
            // call. The candidate itself is used AT the call, so its
            // roots' last live index must be exactly here.
            if ((size_t)id < rootLastLive_.size() &&
                rootLastLive_[id] > index) {
                return false;
            }
        }
        return true;
    }

    /** Fresh rewritten call when a proof succeeds; null otherwise. */
    Expr
    tryRewrite(const Binding& binding, size_t index)
    {
        bool is_tir = isOpCall(binding.value, "relax.call_tir");
        bool is_lib = isOpCall(binding.value, "relax.call_dps_library");
        if (!is_tir && !is_lib) return nullptr;
        auto call = std::static_pointer_cast<CallNode>(binding.value);
        if (call->attrs.count("inplace_arg")) return nullptr;
        if (call->sinfoArgs.size() != 1) return nullptr;
        const auto* out_info = asTensor(call->sinfoArgs[0]);
        if (!out_info || !out_info->shape) return nullptr;

        int64_t num_sym = 0;
        if (auto it = call->attrs.find("num_sym_args");
            it != call->attrs.end()) {
            num_sym = std::get<int64_t>(it->second);
        }
        std::vector<Expr> inputs(call->args.begin() + 1,
                                 call->args.end() - num_sym);

        tir::PrimFunc prim;
        std::string callee;
        std::vector<size_t> candidates;
        if (is_tir) {
            if (call->args[0]->kind() != RxKind::kGlobalVar) {
                return nullptr;
            }
            callee = static_cast<const GlobalVarNode*>(call->args[0].get())
                         ->name;
            prim = module_->getTIRFunc(callee);
            // The input list must map 1:1 onto the leading buffer params
            // for the per-param alignment check to mean anything.
            if (!prim || prim->numOutputs != 1 ||
                inputs.size() + 1 != prim->params.size()) {
                return nullptr;
            }
            for (size_t i = 0; i < inputs.size(); ++i) {
                candidates.push_back(i);
            }
        } else {
            if (call->args[0]->kind() != RxKind::kExternFunc) {
                return nullptr;
            }
            callee = static_cast<const ExternFuncNode*>(
                         call->args[0].get())
                         ->name;
            int lib_arg = libraryInplaceArg(callee);
            if (lib_arg < 0) return nullptr;
            candidates.push_back((size_t)lib_arg);
        }

        for (size_t a : candidates) {
            if (inputs[a]->kind() != RxKind::kVar) continue;
            const auto* in_var =
                static_cast<const VarNode*>(inputs[a].get());
            if (!sameTensorLayout(asTensor(in_var->structInfo()),
                                  out_info)) {
                continue;
            }
            if (!rootsRewritable(state_.rootsOf(in_var), index)) {
                continue;
            }
            if (is_tir) {
                // Every param position bound to this var aliases the
                // output, so each one must consume it element-aligned.
                bool safe = true;
                for (size_t p = 0; p < inputs.size() && safe; ++p) {
                    if (inputs[p].get() == (const ExprNode*)in_var &&
                        !elementwiseAlignedConsumption(prim, p)) {
                        safe = false;
                    }
                }
                if (!safe) continue;
            }
            Attrs new_attrs = call->attrs;
            new_attrs["inplace_arg"] = (int64_t)a;
            auto rewritten =
                makeCall(call->op, call->args, std::move(new_attrs),
                         call->sinfoArgs);
            rewritten->setStructInfo(call->structInfo());
            ++rewrites_;
            if (!callees_.empty()) callees_ += ';';
            callees_ += callee;
            return rewritten;
        }
        return nullptr;
    }

    IRModulePtr module_;
    Function func_;
    AliasState state_;
    std::vector<size_t> rootLastLive_;
    std::unordered_set<const VarNode*> donatable_;
    int rewrites_ = 0;
    std::string callees_;
};

} // namespace

Pass
inplacePlanPass()
{
    return {"InplacePlan", [](IRModulePtr module) {
                auto updated = module->copy();
                for (const auto& [name, func] : module->functions()) {
                    Function planned =
                        InplacePlanner(module, func).run();
                    if (planned != func) {
                        updated->addFunction(name, std::move(planned));
                    }
                }
                return updated;
            }};
}

} // namespace passes
} // namespace relax
