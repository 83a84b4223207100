/**
 * @file
 * Variable substitution, free-variable collection, and best-effort
 * integer evaluation (evalInt / tryEvalInt) of PrimExprs under a
 * binding — the runtime half of symbolic shape evaluation used by the
 * VM and the memory planner.
 */
#include "arith/substitute.h"

#include <cmath>

namespace relax {

PrimExpr
substitute(const PrimExpr& expr, const VarMap& map)
{
    if (expr && expr->kind() == ExprKind::kVar) {
        auto it = map.find(static_cast<const VarNode*>(expr.get()));
        return it == map.end() ? expr : it->second;
    }
    return mapOperands(expr, [&](const PrimExpr& operand) {
        return substitute(operand, map);
    });
}

void
collectVars(const PrimExpr& expr, std::unordered_set<const VarNode*>* out)
{
    if (expr && expr->kind() == ExprKind::kVar) {
        out->insert(static_cast<const VarNode*>(expr.get()));
    }
    for (const PrimExpr& operand : operands(expr)) collectVars(operand, out);
}

std::optional<int64_t>
tryEvalInt(const PrimExpr& expr, const VarBinding& binding)
{
    if (!expr) return std::nullopt;
    switch (expr->kind()) {
      case ExprKind::kIntImm:
        return static_cast<const IntImmNode*>(expr.get())->value;
      case ExprKind::kVar: {
        auto it = binding.find(static_cast<const VarNode*>(expr.get()));
        if (it == binding.end()) return std::nullopt;
        return it->second;
      }
      case ExprKind::kNot: {
        auto a = tryEvalInt(static_cast<const UnaryNode*>(expr.get())->a,
                            binding);
        if (!a) return std::nullopt;
        return *a == 0 ? 1 : 0;
      }
      case ExprKind::kCast:
        return tryEvalInt(static_cast<const UnaryNode*>(expr.get())->a,
                          binding);
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        auto c = tryEvalInt(node->cond, binding);
        if (!c) return std::nullopt;
        return tryEvalInt(*c ? node->trueValue : node->falseValue, binding);
      }
      case ExprKind::kFloatImm:
      case ExprKind::kCall:
      case ExprKind::kBufferLoad:
        return std::nullopt;
      default: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        auto a = tryEvalInt(node->a, binding);
        auto b = tryEvalInt(node->b, binding);
        if (!a || !b) return std::nullopt;
        switch (expr->kind()) {
          case ExprKind::kAdd: return *a + *b;
          case ExprKind::kSub: return *a - *b;
          case ExprKind::kMul: return *a * *b;
          case ExprKind::kFloorDiv:
            if (*b == 0) return std::nullopt;
            return floorDiv(*a, *b);
          case ExprKind::kFloorMod:
            if (*b == 0) return std::nullopt;
            return floorMod(*a, *b);
          case ExprKind::kDiv:
            if (*b == 0) return std::nullopt;
            return *a / *b;
          case ExprKind::kMin: return std::min(*a, *b);
          case ExprKind::kMax: return std::max(*a, *b);
          case ExprKind::kEQ: return *a == *b;
          case ExprKind::kNE: return *a != *b;
          case ExprKind::kLT: return *a < *b;
          case ExprKind::kLE: return *a <= *b;
          case ExprKind::kGT: return *a > *b;
          case ExprKind::kGE: return *a >= *b;
          case ExprKind::kAnd: return (*a != 0) && (*b != 0);
          case ExprKind::kOr: return (*a != 0) || (*b != 0);
          default: return std::nullopt;
        }
      }
    }
}

int64_t
evalInt(const PrimExpr& expr, const VarBinding& binding)
{
    auto result = tryEvalInt(expr, binding);
    if (!result) throwUnevaluable(expr);
    return *result;
}

void
throwUnevaluable(const PrimExpr& expr)
{
    RELAX_THROW(ShapeError)
        << "cannot evaluate symbolic expression " << toString(expr)
        << " (unbound variable or non-integer node)";
}

} // namespace relax
