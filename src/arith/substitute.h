/**
 * @file
 * Variable substitution and integer evaluation over scalar expressions.
 */
#ifndef RELAX_ARITH_SUBSTITUTE_H_
#define RELAX_ARITH_SUBSTITUTE_H_

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "arith/expr.h"

namespace relax {

/** Maps variable nodes to replacement expressions. */
using VarMap = std::unordered_map<const VarNode*, PrimExpr>;

/** Maps variable nodes to concrete runtime values. */
using VarBinding = std::unordered_map<const VarNode*, int64_t>;

/** Replaces every occurrence of a mapped variable; rebuilds minimally. */
PrimExpr substitute(const PrimExpr& expr, const VarMap& map);

/** Collects the free symbolic variables appearing in the expression. */
void collectVars(const PrimExpr& expr,
                 std::unordered_set<const VarNode*>* out);

/**
 * Evaluates an integer expression given concrete variable values.
 * Returns nullopt if a variable is unbound or a non-integer node appears.
 */
std::optional<int64_t> tryEvalInt(const PrimExpr& expr,
                                  const VarBinding& binding);

/** Like tryEvalInt but throws ShapeError on failure. */
int64_t evalInt(const PrimExpr& expr, const VarBinding& binding);

/** Throws evalInt's ShapeError for an expression that failed to evaluate. */
[[noreturn]] void throwUnevaluable(const PrimExpr& expr);

} // namespace relax

#endif // RELAX_ARITH_SUBSTITUTE_H_
