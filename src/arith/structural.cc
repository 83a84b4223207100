/**
 * @file
 * Structural equality and hashing over PrimExprs — the comparators
 * behind analyzer atom keys, memoization, and test assertions.
 */
#include "arith/structural.h"

#include <functional>

namespace relax {

namespace {

size_t
hashCombine(size_t seed, size_t value)
{
    return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

} // namespace

bool
structuralEqual(const PrimExpr& a, const PrimExpr& b)
{
    if (a.get() == b.get()) return true;
    if (!a || !b) return false;
    if (a->kind() != b->kind() || a->dtype() != b->dtype()) return false;
    switch (a->kind()) {
      case ExprKind::kIntImm:
        return static_cast<const IntImmNode*>(a.get())->value ==
               static_cast<const IntImmNode*>(b.get())->value;
      case ExprKind::kFloatImm:
        return static_cast<const FloatImmNode*>(a.get())->value ==
               static_cast<const FloatImmNode*>(b.get())->value;
      case ExprKind::kVar:
      case ExprKind::kBufferLoad:
        // Identity compared above; tir loads are not shape expressions.
        return false;
      case ExprKind::kCall:
        if (static_cast<const CallNode*>(a.get())->op !=
            static_cast<const CallNode*>(b.get())->op) {
            return false;
        }
        break;
      default:
        break;
    }
    Operands ops_a = operands(a);
    Operands ops_b = operands(b);
    if (ops_a.size() != ops_b.size()) return false;
    for (size_t i = 0; i < ops_a.size(); ++i) {
        if (!structuralEqual(ops_a[i], ops_b[i])) return false;
    }
    return true;
}

size_t
structuralHash(const PrimExpr& expr)
{
    if (!expr) return 0;
    size_t seed = hashCombine(static_cast<size_t>(expr->kind()),
                              std::hash<int>()(expr->dtype().bits()));
    switch (expr->kind()) {
      case ExprKind::kIntImm:
        return hashCombine(seed, std::hash<int64_t>()(
            static_cast<const IntImmNode*>(expr.get())->value));
      case ExprKind::kFloatImm:
        return hashCombine(seed, std::hash<double>()(
            static_cast<const FloatImmNode*>(expr.get())->value));
      case ExprKind::kVar:
      case ExprKind::kBufferLoad:
        return hashCombine(seed, std::hash<const void*>()(expr.get()));
      case ExprKind::kCall:
        seed = hashCombine(seed, std::hash<std::string>()(
            static_cast<const CallNode*>(expr.get())->op));
        break;
      default:
        break;
    }
    for (const PrimExpr& operand : operands(expr)) {
        seed = hashCombine(seed, structuralHash(operand));
    }
    return seed;
}

} // namespace relax
