/**
 * @file
 * Graph-level substitution utilities: replace Relax variables
 * (substituteVars), collect variable uses, and collect the symbolic
 * shape variables appearing in annotations — the workhorses of fusion
 * and inlining — plus the compiled-bound attrs of a function.
 */
#include "ir/utils.h"

namespace relax {
namespace ir {

Expr
substituteVars(const Expr& expr, const RxVarMap& map)
{
    if (!expr || map.empty()) return expr;
    switch (expr->kind()) {
      case RxKind::kVar: {
        auto it = map.find(static_cast<const VarNode*>(expr.get()));
        return it == map.end() ? expr : it->second;
      }
      case RxKind::kCall: {
        const auto* call = static_cast<const CallNode*>(expr.get());
        std::vector<Expr> args;
        args.reserve(call->args.size());
        bool changed = false;
        for (const auto& arg : call->args) {
            args.push_back(substituteVars(arg, map));
            changed |= args.back().get() != arg.get();
        }
        Expr op = substituteVars(call->op, map);
        changed |= op.get() != call->op.get();
        if (!changed) return expr;
        Call rewritten =
            makeCall(op, std::move(args), call->attrs, call->sinfoArgs);
        rewritten->setStructInfo(call->structInfo());
        return rewritten;
      }
      case RxKind::kTuple: {
        const auto* node = static_cast<const TupleNode*>(expr.get());
        std::vector<Expr> fields;
        bool changed = false;
        for (const auto& field : node->fields) {
            fields.push_back(substituteVars(field, map));
            changed |= fields.back().get() != field.get();
        }
        if (!changed) return expr;
        Expr rewritten = makeTuple(std::move(fields));
        if (expr->structInfo()) rewritten->setStructInfo(expr->structInfo());
        return rewritten;
      }
      case RxKind::kTupleGetItem: {
        const auto* node = static_cast<const TupleGetItemNode*>(expr.get());
        Expr tuple = substituteVars(node->tuple, map);
        if (tuple.get() == node->tuple.get()) return expr;
        Expr rewritten = makeTupleGetItem(tuple, node->index);
        if (expr->structInfo()) rewritten->setStructInfo(expr->structInfo());
        return rewritten;
      }
      case RxKind::kIf: {
        const auto* node = static_cast<const IfNode*>(expr.get());
        Expr rewritten = makeIf(substituteVars(node->cond, map),
                                substituteVars(node->thenBranch, map),
                                substituteVars(node->elseBranch, map));
        if (expr->structInfo()) rewritten->setStructInfo(expr->structInfo());
        return rewritten;
      }
      case RxKind::kSeqExpr: {
        const auto* node = static_cast<const SeqExprNode*>(expr.get());
        RxVarMap scoped = map;
        std::vector<BindingBlock> blocks;
        for (const auto& block : node->blocks) {
            auto rewritten_block =
                std::make_shared<BindingBlockNode>(block->isDataflow);
            for (const auto& binding : block->bindings) {
                scoped.erase(binding.var.get()); // shadowing
                Binding rewritten = binding;
                rewritten.value = substituteVars(binding.value, scoped);
                rewritten_block->bindings.push_back(std::move(rewritten));
            }
            blocks.push_back(std::move(rewritten_block));
        }
        return makeSeqExpr(std::move(blocks),
                           substituteVars(node->body, scoped));
      }
      default:
        return expr;
    }
}

void
collectVarUses(const Expr& expr, std::unordered_set<const VarNode*>* out)
{
    if (!expr) return;
    switch (expr->kind()) {
      case RxKind::kVar:
        out->insert(static_cast<const VarNode*>(expr.get()));
        return;
      case RxKind::kCall: {
        const auto* call = static_cast<const CallNode*>(expr.get());
        collectVarUses(call->op, out);
        for (const auto& arg : call->args) collectVarUses(arg, out);
        return;
      }
      case RxKind::kTuple:
        for (const auto& field :
             static_cast<const TupleNode*>(expr.get())->fields) {
            collectVarUses(field, out);
        }
        return;
      case RxKind::kTupleGetItem:
        collectVarUses(static_cast<const TupleGetItemNode*>(expr.get())->tuple,
                       out);
        return;
      case RxKind::kIf: {
        const auto* node = static_cast<const IfNode*>(expr.get());
        collectVarUses(node->cond, out);
        collectVarUses(node->thenBranch, out);
        collectVarUses(node->elseBranch, out);
        return;
      }
      case RxKind::kSeqExpr: {
        const auto* node = static_cast<const SeqExprNode*>(expr.get());
        for (const auto& block : node->blocks) {
            for (const auto& binding : block->bindings) {
                collectVarUses(binding.value, out);
            }
        }
        collectVarUses(node->body, out);
        return;
      }
      default:
        return;
    }
}

void
collectExprSymVars(const Expr& expr,
                   std::unordered_set<const ::relax::VarNode*>* out)
{
    if (!expr) return;
    if (expr->structInfo()) collectSymVars(expr->structInfo(), out);
    switch (expr->kind()) {
      case RxKind::kShapeExpr:
        for (const auto& v :
             static_cast<const ShapeExprNode*>(expr.get())->values) {
            collectVars(v, out);
        }
        return;
      case RxKind::kPrimValue:
        collectVars(static_cast<const PrimValueNode*>(expr.get())->value,
                    out);
        return;
      case RxKind::kCall: {
        const auto* call = static_cast<const CallNode*>(expr.get());
        for (const auto& arg : call->args) collectExprSymVars(arg, out);
        for (const auto& sinfo : call->sinfoArgs) collectSymVars(sinfo, out);
        return;
      }
      case RxKind::kTuple:
        for (const auto& field :
             static_cast<const TupleNode*>(expr.get())->fields) {
            collectExprSymVars(field, out);
        }
        return;
      default:
        return;
    }
}

namespace {

std::string
boundAttr(const std::string& name)
{
    return "bound." + name;
}

} // namespace

void
setCompiledBound(FunctionNode& func, const std::string& name, int64_t bound)
{
    func.attrs[boundAttr(name)] = std::to_string(bound);
}

std::optional<int64_t>
compiledBound(const FunctionNode& func, const std::string& name)
{
    auto it = func.attrs.find(boundAttr(name));
    if (it == func.attrs.end()) return std::nullopt;
    return std::stoll(it->second);
}

} // namespace ir
} // namespace relax
