/**
 * @file
 * Dynamic shape-aware static memory planning (Algorithm 3, Fig. 10).
 *
 * After LowerCallTIR exposes allocations, this pass runs liveness over the
 * linear binding sequence and replaces builtin.alloc_tensor with storage
 * reuse:
 *
 *     s0  = relax.memory.alloc_storage(size)     (once per storage)
 *     lv0 = relax.memory.alloc_tensor(s0)        (instantiation)
 *
 * Reuse of a free storage is legal when the symbolic analyzer proves the
 * byte sizes equal (RequestReuseWithSymShape), e.g. a (2, n) f32 tensor
 * reuses an (n, 2) f32 storage. When upper bounds for the symbolic
 * variables are supplied (the LLM context length / max batch), sizes
 * resolve to constants, any smaller-or-equal request reuses a free
 * storage, and the whole plan becomes static — the prerequisite for
 * CUDA Graph offloading (§4.5) and for memory-constrained targets (§5.3).
 * The plan is sound only inside those bounds, so the pass records them
 * on the function (ir::setCompiledBound) and codegen turns each into a
 * check at the MatchShape that binds its variable.
 */
#include "passes/passes.h"

#include <map>
#include <queue>
#include <unordered_map>

#include "arith/analyzer.h"
#include "ir/utils.h"
#include "passes/alias_analysis.h"

namespace relax {
namespace passes {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

struct PlannedStorage
{
    Var storageVar;
    PrimExpr sizeExpr;             //!< symbolic size in bytes
    std::optional<int64_t> upper;  //!< static upper bound when known
    bool free = false;
    size_t firstUse = 0;
};

class Planner
{
  public:
    Planner(const Function& func, const SymBounds& bounds) : func_(func)
    {
        // Bind named upper bounds to the symbolic vars of this function.
        std::unordered_set<const ::relax::VarNode*> sym_vars;
        for (const auto& param : func->params) {
            collectSymVars(param->structInfo(), &sym_vars);
        }
        const auto* seq = static_cast<const SeqExprNode*>(func->body.get());
        for (const auto& block : seq->blocks) {
            for (const auto& binding : block->bindings) {
                if (binding.var->structInfo()) {
                    collectSymVars(binding.var->structInfo(), &sym_vars);
                }
            }
        }
        for (const auto* v : sym_vars) {
            if (auto it = bounds.find(v->name); it != bounds.end()) {
                compiledBounds_.emplace(v->name, it->second);
                analyzer_.bindVarBound(
                    std::static_pointer_cast<const ::relax::VarNode>(
                        std::static_pointer_cast<
                            const ::relax::PrimExprNode>(
                            v->sharedFromThis())),
                    1, it->second);
            }
        }
    }

    /** Runs the plan; returns the rewritten function. */
    Function
    run()
    {
        const auto* seq = static_cast<const SeqExprNode*>(func_->body.get());
        RELAX_ICHECK(seq->blocks.size() == 1 && !seq->blocks[0]->isDataflow)
            << "memory planning expects the lowered single-block form";
        const auto& bindings = seq->blocks[0]->bindings;

        // Liveness and aliasing come from the shared analysis: a tensor
        // dies at the last use of ANY var sharing one of its storage
        // roots — rebinds, tuple packaging and in-place kernel outputs
        // chained onto it all extend the live range, so the planner's
        // reuse decisions agree with the alias facts by construction
        // (VerifyAliasSafety re-checks the planned module in debug).
        AliasLivenessAnalysis analysis(func_);
        auto lastUseOf = [&](const VarNode* v) {
            size_t last = analysis.lastLiveIndex(v);
            return last == AliasLivenessAnalysis::kNeverUsed ? 0 : last;
        };

        // Walk bindings, assigning storage to each allocation. Pending
        // (last use, storage) pairs wait in a min-heap, so each binding
        // pops only the tensors that died before it.
        auto block = std::make_shared<BindingBlockNode>(false);
        std::unordered_map<const VarNode*, size_t> var_storage;
        using Expiry = std::pair<size_t, size_t>; // (last_use, storage)
        std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>>
            expiry;
        bool all_static = true;
        for (size_t i = 0; i < bindings.size(); ++i) {
            // Recycle storages whose tensors died before this binding.
            while (!expiry.empty() && expiry.top().first <= i) {
                storages_[expiry.top().second].free = true;
                expiry.pop();
            }
            const Binding& binding = bindings[i];
            if (!isOpCall(binding.value, "relax.builtin.alloc_tensor")) {
                block->bindings.push_back(binding);
                continue;
            }
            const auto* call =
                static_cast<const CallNode*>(binding.value.get());
            const auto* tensor = asTensor(call->sinfoArgs[0]);
            RELAX_ICHECK(tensor && tensor->shape)
                << "cannot plan allocation without a symbolic shape for "
                << binding.var->name << " (data-dependent shapes use the "
                << "runtime allocator)";
            PrimExpr size = intImm((int64_t)tensor->dtype.bytes());
            for (const auto& dim : *tensor->shape) size = mul(size, dim);
            size = analyzer_.simplify(size);
            auto upper = analyzer_.upperBound(size);
            all_static &= upper.has_value();

            size_t sid = requestStorage(size, upper, &block->bindings);
            storages_[sid].free = false;
            var_storage[binding.var.get()] = sid;
            expiry.emplace(lastUseOf(binding.var.get()), sid);

            // Instantiate the tensor from the storage.
            Call inst = makeCall(getOp("relax.memory.alloc_tensor"),
                                 {storages_[sid].storageVar}, {},
                                 {call->sinfoArgs[0]});
            inst->setStructInfo(call->sinfoArgs[0]);
            block->bindings.push_back({binding.var, inst, false, nullptr});
        }

        Function updated =
            makeFunction(func_->params, makeSeqExpr({block}, seq->body),
                         func_->retSInfo);
        updated->attrs = func_->attrs;
        // The plan holds only inside the bounds it was sized from, so
        // they travel with the function as its compiled bounds.
        for (const auto& [name, bound] : compiledBounds_) {
            setCompiledBound(*updated, name, bound);
        }
        updated->attrs["planned.num_storages"] =
            std::to_string(storages_.size());
        int64_t total = 0;
        bool total_known = true;
        for (const auto& storage : storages_) {
            if (storage.upper) {
                total += *storage.upper;
            } else {
                total_known = false;
            }
        }
        if (total_known) {
            updated->attrs["planned.total_bytes"] = std::to_string(total);
        }
        updated->attrs["planned.reuse_hits"] = std::to_string(reuseHits_);
        updated->attrs["planned.bytes_reused"] =
            std::to_string(bytesReused_);
        updated->attrs["static_plan"] =
            (all_static && total_known) ? "1" : "0";
        return updated;
    }

  private:
    /** Algorithm 3's RequestReuseWithSymShape + NewStorage. */
    size_t
    requestStorage(const PrimExpr& size, std::optional<int64_t> upper,
                   std::vector<Binding>* bindings)
    {
        for (size_t sid = 0; sid < storages_.size(); ++sid) {
            PlannedStorage& storage = storages_[sid];
            if (!storage.free) continue;
            bool reusable = analyzer_.proveEqual(storage.sizeExpr, size);
            if (!reusable && upper && storage.upper) {
                // Upper-bound mode: any request that fits reuses.
                reusable = *upper <= *storage.upper;
            }
            if (reusable) {
                ++reuseHits_;
                if (upper) bytesReused_ += *upper;
                return sid;
            }
        }
        // NewStorage: bind `s = relax.memory.alloc_storage(size)`.
        PlannedStorage storage;
        storage.sizeExpr = upper ? intImm(*upper) : size;
        storage.upper = upper;
        Call alloc = makeCall(getOp("relax.memory.alloc_storage"),
                              {makePrimValue(storage.sizeExpr)});
        alloc->setStructInfo(objectSInfo());
        storage.storageVar = makeVar(
            "storage" + std::to_string(storages_.size()), objectSInfo());
        bindings->push_back({storage.storageVar, alloc, false, nullptr});
        storages_.push_back(storage);
        return storages_.size() - 1;
    }

    Function func_;
    Analyzer analyzer_;
    /** The bounds applied to this function's symbolic variables. */
    std::map<std::string, int64_t> compiledBounds_;
    std::vector<PlannedStorage> storages_;
    int64_t reuseHits_ = 0;
    int64_t bytesReused_ = 0;
};

} // namespace

Pass
staticMemoryPlanPass(const SymBounds& bounds)
{
    return {"StaticMemoryPlan", [bounds](IRModulePtr module) {
                for (const auto& [name, func] : module->functions()) {
                    Planner planner(func, bounds);
                    module->addFunction(name, planner.run());
                }
                return module;
            }};
}

} // namespace passes
} // namespace relax
