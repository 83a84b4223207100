/**
 * @file
 * Small structural utilities over graph-level expressions used by passes:
 * variable remapping, use counting and symbolic-variable collection.
 */
#ifndef RELAX_IR_UTILS_H_
#define RELAX_IR_UTILS_H_

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "ir/expr.h"

namespace relax {
namespace ir {

/** Maps graph-level variables to replacement expressions. */
using RxVarMap = std::unordered_map<const VarNode*, Expr>;

/**
 * Replaces graph-variable references inside a (non-function) expression.
 * Nested SeqExpr/If bodies are traversed; bound variables shadow.
 */
Expr substituteVars(const Expr& expr, const RxVarMap& map);

/** Collects every graph variable referenced by the expression. */
void collectVarUses(const Expr& expr,
                    std::unordered_set<const VarNode*>* out);

/**
 * Collects the symbolic (shape) variables occurring in the expression's
 * annotations and shape literals.
 */
void collectExprSymVars(const Expr& expr,
                        std::unordered_set<const ::relax::VarNode*>* out);

/**
 * Records `bound` as the compiled upper bound of symbolic variable
 * `name` in `func` (the "bound.<name>" attr). The static memory plan
 * sizes storages from it, and codegen compiles it into the MatchShape
 * that binds the variable, so a call past it is refused at entry.
 */
void setCompiledBound(FunctionNode& func, const std::string& name,
                      int64_t bound);

/** The compiled upper bound of `name` in `func`, or nullopt when none
 *  was recorded. */
std::optional<int64_t> compiledBound(const FunctionNode& func,
                                     const std::string& name);

} // namespace ir
} // namespace relax

#endif // RELAX_IR_UTILS_H_
