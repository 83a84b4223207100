/**
 * @file
 * Statements of loop-level tensor programs: loop nests over buffer
 * stores, mirroring the paper's `@tensorir_function` bodies (§3.3).
 */
#ifndef RELAX_TIR_STMT_H_
#define RELAX_TIR_STMT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tir/buffer.h"

namespace relax {
namespace tir {

/** Scalar load from a buffer; extends the shared scalar expression AST. */
class BufferLoadNode : public PrimExprNode
{
  public:
    BufferLoadNode(Buffer buffer, std::vector<PrimExpr> indices)
        : PrimExprNode(ExprKind::kBufferLoad, buffer->dtype),
          buffer(std::move(buffer)), indices(std::move(indices)) {}

    Buffer buffer;
    std::vector<PrimExpr> indices;
};

/** Creates a load expression `buffer[indices...]`. */
inline PrimExpr
bufferLoad(Buffer buffer, std::vector<PrimExpr> indices)
{
    return std::make_shared<BufferLoadNode>(std::move(buffer),
                                            std::move(indices));
}

class StmtNode;
using Stmt = std::shared_ptr<const StmtNode>;

/** Discriminator for statement nodes. */
enum class StmtKind : uint8_t {
    kFor,
    kBufferStore,
    kIfThenElse,
    kSeq,
    kAllocBuffer
};

/** Base class of all statements; immutable after construction. */
class StmtNode
{
  public:
    explicit StmtNode(StmtKind kind) : kind_(kind) {}
    virtual ~StmtNode() = default;

    StmtKind kind() const { return kind_; }

  private:
    StmtKind kind_;
};

/** `for var in range(extent): body` — all loops start at zero. */
class ForNode : public StmtNode
{
  public:
    ForNode(Var loop_var, PrimExpr extent, Stmt body)
        : StmtNode(StmtKind::kFor), loopVar(std::move(loop_var)),
          extent(std::move(extent)), body(std::move(body)) {}

    Var loopVar;
    PrimExpr extent;
    Stmt body;
};

/** `buffer[indices...] = value`. */
class BufferStoreNode : public StmtNode
{
  public:
    BufferStoreNode(Buffer buffer, std::vector<PrimExpr> indices,
                    PrimExpr value)
        : StmtNode(StmtKind::kBufferStore), buffer(std::move(buffer)),
          indices(std::move(indices)), value(std::move(value)) {}

    Buffer buffer;
    std::vector<PrimExpr> indices;
    PrimExpr value;
};

/** Conditional; elseBody may be null. */
class IfThenElseNode : public StmtNode
{
  public:
    IfThenElseNode(PrimExpr cond, Stmt then_body, Stmt else_body = nullptr)
        : StmtNode(StmtKind::kIfThenElse), cond(std::move(cond)),
          thenBody(std::move(then_body)), elseBody(std::move(else_body)) {}

    PrimExpr cond;
    Stmt thenBody;
    Stmt elseBody;
};

/** Sequential composition. */
class SeqStmtNode : public StmtNode
{
  public:
    explicit SeqStmtNode(std::vector<Stmt> seq)
        : StmtNode(StmtKind::kSeq), seq(std::move(seq)) {}

    std::vector<Stmt> seq;
};

/**
 * Scoped buffer allocation. `scope` is "global" for device-memory
 * workspaces — the lifting candidates of §4.4 — or "local" for
 * fusion-internal intermediates that stay inside the kernel.
 */
class AllocBufferNode : public StmtNode
{
  public:
    AllocBufferNode(Buffer buffer, std::string scope, Stmt body)
        : StmtNode(StmtKind::kAllocBuffer), buffer(std::move(buffer)),
          scope(std::move(scope)), body(std::move(body)) {}

    Buffer buffer;
    std::string scope;
    Stmt body;
};

inline Stmt
makeFor(Var loop_var, PrimExpr extent, Stmt body)
{
    return std::make_shared<ForNode>(std::move(loop_var), std::move(extent),
                                     std::move(body));
}

inline Stmt
makeStore(Buffer buffer, std::vector<PrimExpr> indices, PrimExpr value)
{
    return std::make_shared<BufferStoreNode>(
        std::move(buffer), std::move(indices), std::move(value));
}

inline Stmt
makeIf(PrimExpr cond, Stmt then_body, Stmt else_body = nullptr)
{
    return std::make_shared<IfThenElseNode>(
        std::move(cond), std::move(then_body), std::move(else_body));
}

inline Stmt
makeSeq(std::vector<Stmt> seq)
{
    if (seq.size() == 1) return seq[0];
    return std::make_shared<SeqStmtNode>(std::move(seq));
}

inline Stmt
makeAllocBuffer(Buffer buffer, std::string scope, Stmt body)
{
    return std::make_shared<AllocBufferNode>(std::move(buffer),
                                             std::move(scope),
                                             std::move(body));
}

// ---------------------------------------------------------------------------
// Traversal. relax::operands lists a scalar node's operands; the helpers
// below are the only other code that spells out a node's children, so
// walkers keep just their kind-specific rules.
// ---------------------------------------------------------------------------

/** relax::operands extended to a BufferLoad's indices. */
inline Operands
operandsAndIndices(const PrimExpr& expr)
{
    if (expr && expr->kind() == ExprKind::kBufferLoad) {
        return Operands(
            static_cast<const BufferLoadNode*>(expr.get())->indices);
    }
    return operands(expr);
}

/**
 * Calls `on_expr` on each expression child and `on_stmt` on each statement
 * child of `stmt`, in field order: extent, body (kFor); indices, value
 * (kBufferStore); cond, thenBody, elseBody when present (kIfThenElse); seq
 * (kSeq); body (kAllocBuffer). Buffers and loop variables are not children.
 */
template <typename ExprFn, typename StmtFn>
void
forEachChild(const Stmt& stmt, ExprFn&& on_expr, StmtFn&& on_stmt)
{
    switch (stmt->kind()) {
      case StmtKind::kFor: {
        const auto* node = static_cast<const ForNode*>(stmt.get());
        on_expr(node->extent);
        on_stmt(node->body);
        return;
      }
      case StmtKind::kBufferStore: {
        const auto* node = static_cast<const BufferStoreNode*>(stmt.get());
        for (const auto& index : node->indices) on_expr(index);
        on_expr(node->value);
        return;
      }
      case StmtKind::kIfThenElse: {
        const auto* node = static_cast<const IfThenElseNode*>(stmt.get());
        on_expr(node->cond);
        on_stmt(node->thenBody);
        if (node->elseBody) on_stmt(node->elseBody);
        return;
      }
      case StmtKind::kSeq:
        for (const auto& sub :
             static_cast<const SeqStmtNode*>(stmt.get())->seq) {
            on_stmt(sub);
        }
        return;
      case StmtKind::kAllocBuffer:
        on_stmt(static_cast<const AllocBufferNode*>(stmt.get())->body);
        return;
    }
}

/** forEachChild over the statement children only. */
template <typename StmtFn>
void
forEachSubStmt(const Stmt& stmt, StmtFn&& on_stmt)
{
    forEachChild(stmt, [](const PrimExpr&) {}, on_stmt);
}

/** Calls `fn` on `stmt` and on every statement nested in it, parents
 *  first. */
template <typename Fn>
void
forEachStmt(const Stmt& stmt, Fn&& fn)
{
    fn(stmt);
    forEachSubStmt(stmt, [&](const Stmt& sub) { forEachStmt(sub, fn); });
}

/**
 * Rebuilds `stmt` over new children, given in forEachChild order (a
 * kIfThenElse takes an else body iff `stmts` has two entries); buffers,
 * loop variables and scopes are kept.
 */
Stmt withChildren(const Stmt& stmt, std::vector<PrimExpr> exprs,
                  std::vector<Stmt> stmts);

/**
 * Maps `expr_fn` over the expression children and `stmt_fn` over the
 * statement children of `stmt`, in forEachChild order, and rebuilds it
 * through withChildren. Returns `stmt` itself when no child changed.
 */
template <typename ExprFn, typename StmtFn>
Stmt
mapChildren(const Stmt& stmt, ExprFn&& expr_fn, StmtFn&& stmt_fn)
{
    std::vector<PrimExpr> exprs;
    std::vector<Stmt> stmts;
    bool changed = false;
    forEachChild(
        stmt,
        [&](const PrimExpr& expr) {
            exprs.push_back(expr_fn(expr));
            changed |= exprs.back() != expr;
        },
        [&](const Stmt& sub) {
            stmts.push_back(stmt_fn(sub));
            changed |= stmts.back() != sub;
        });
    return changed ? withChildren(stmt, std::move(exprs), std::move(stmts))
                   : stmt;
}

/**
 * A loop-level tensor program in destination-passing style: buffer
 * parameters (outputs last), optional extra scalar symbolic parameters
 * (the paper's `sym_args`, Fig. 8), and a statement body.
 */
class PrimFuncNode
{
  public:
    PrimFuncNode(std::string name, std::vector<Buffer> params, Stmt body,
                 std::vector<Var> sym_params = {})
        : name(std::move(name)), params(std::move(params)),
          symParams(std::move(sym_params)), body(std::move(body)) {}

    std::string name;
    std::vector<Buffer> params;
    /** Extra scalar parameters carrying symbolic shape values. */
    std::vector<Var> symParams;
    Stmt body;
    /** Free-form attributes, e.g. the analyzed "compute_pattern". */
    std::map<std::string, std::string> attrs;

    /** Number of trailing params that are outputs (DPS convention). */
    int numOutputs = 1;
};

using PrimFunc = std::shared_ptr<PrimFuncNode>;

/** Creates a tensor program function. */
inline PrimFunc
makePrimFunc(std::string name, std::vector<Buffer> params, Stmt body,
             std::vector<Var> sym_params = {}, int num_outputs = 1)
{
    auto func = std::make_shared<PrimFuncNode>(
        std::move(name), std::move(params), std::move(body),
        std::move(sym_params));
    func->numOutputs = num_outputs;
    return func;
}

/** Renders the statement as indented pseudo-code. */
std::string toString(const Stmt& stmt, int indent = 0);

/** Renders the whole tensor program. */
std::string toString(const PrimFunc& func);

} // namespace tir
} // namespace relax

#endif // RELAX_TIR_STMT_H_
