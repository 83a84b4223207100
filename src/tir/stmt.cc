/**
 * @file
 * Text rendering of tensor programs — statements, scalar expressions,
 * and whole PrimFuncs — behind the Fig. 9-style listings printed by
 * tests and examples; and withChildren, the statement rebuild behind
 * mapChildren.
 */
#include "tir/stmt.h"

#include <sstream>

namespace relax {
namespace tir {

namespace {

std::string
indexString(const std::vector<PrimExpr>& indices)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < indices.size(); ++i) {
        if (i) os << ", ";
        os << relax::toString(indices[i]);
    }
    os << "]";
    return os.str();
}

/** Prints an expression, expanding BufferLoad nodes. */
std::string
exprString(const PrimExpr& expr);

void
printStmt(std::ostream& os, const Stmt& stmt, int indent)
{
    std::string pad(indent * 2, ' ');
    switch (stmt->kind()) {
      case StmtKind::kFor: {
        const auto* node = static_cast<const ForNode*>(stmt.get());
        os << pad << "for " << node->loopVar->name << " in range("
           << exprString(node->extent) << "):\n";
        printStmt(os, node->body, indent + 1);
        return;
      }
      case StmtKind::kBufferStore: {
        const auto* node = static_cast<const BufferStoreNode*>(stmt.get());
        os << pad << node->buffer->name << indexString(node->indices)
           << " = " << exprString(node->value) << "\n";
        return;
      }
      case StmtKind::kIfThenElse: {
        const auto* node = static_cast<const IfThenElseNode*>(stmt.get());
        os << pad << "if " << exprString(node->cond) << ":\n";
        printStmt(os, node->thenBody, indent + 1);
        if (node->elseBody) {
            os << pad << "else:\n";
            printStmt(os, node->elseBody, indent + 1);
        }
        return;
      }
      case StmtKind::kSeq: {
        for (const auto& s : static_cast<const SeqStmtNode*>(stmt.get())->seq) {
            printStmt(os, s, indent);
        }
        return;
      }
      case StmtKind::kAllocBuffer: {
        const auto* node = static_cast<const AllocBufferNode*>(stmt.get());
        os << pad << node->buffer->name << " = alloc_buffer("
           << relax::toString(node->buffer->shape) << ", \""
           << node->buffer->dtype.toString() << "\", \"" << node->scope
           << "\")\n";
        printStmt(os, node->body, indent);
        return;
      }
    }
}

std::string
exprString(const PrimExpr& expr)
{
    if (expr->kind() == ExprKind::kBufferLoad) {
        const auto* node = static_cast<const BufferLoadNode*>(expr.get());
        return node->buffer->name + indexString(node->indices);
    }
    // arith's printer cannot see a load's fields (it prints "<load>"), so
    // every kind that can hold a load is rendered here, fully
    // parenthesized; leaves fall back to the arith printer.
    switch (expr->kind()) {
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kDiv:
      case ExprKind::kFloorDiv:
      case ExprKind::kFloorMod:
      case ExprKind::kMin:
      case ExprKind::kMax:
      case ExprKind::kEQ:
      case ExprKind::kNE:
      case ExprKind::kLT:
      case ExprKind::kLE:
      case ExprKind::kGT:
      case ExprKind::kGE:
      case ExprKind::kAnd:
      case ExprKind::kOr: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        const char* sym = nullptr;
        switch (expr->kind()) {
          case ExprKind::kAdd: sym = " + "; break;
          case ExprKind::kSub: sym = " - "; break;
          case ExprKind::kMul: sym = " * "; break;
          case ExprKind::kDiv: sym = " / "; break;
          case ExprKind::kFloorDiv: sym = " // "; break;
          case ExprKind::kFloorMod: sym = " % "; break;
          case ExprKind::kMin: sym = nullptr; break;
          case ExprKind::kMax: sym = nullptr; break;
          case ExprKind::kEQ: sym = " == "; break;
          case ExprKind::kNE: sym = " != "; break;
          case ExprKind::kLT: sym = " < "; break;
          case ExprKind::kLE: sym = " <= "; break;
          case ExprKind::kGT: sym = " > "; break;
          case ExprKind::kGE: sym = " >= "; break;
          case ExprKind::kAnd: sym = " and "; break;
          case ExprKind::kOr: sym = " or "; break;
          default: break;
        }
        if (!sym) {
            return std::string(expr->kind() == ExprKind::kMin ? "min" : "max") +
                   "(" + exprString(node->a) + ", " + exprString(node->b) + ")";
        }
        return "(" + exprString(node->a) + sym + exprString(node->b) + ")";
      }
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        return "select(" + exprString(node->cond) + ", " +
               exprString(node->trueValue) + ", " +
               exprString(node->falseValue) + ")";
      }
      case ExprKind::kCall: {
        const auto* node = static_cast<const CallNode*>(expr.get());
        std::string out = node->op + "(";
        for (size_t i = 0; i < node->args.size(); ++i) {
            if (i) out += ", ";
            out += exprString(node->args[i]);
        }
        return out + ")";
      }
      case ExprKind::kCast: {
        const auto* node = static_cast<const UnaryNode*>(expr.get());
        return expr->dtype().toString() + "(" + exprString(node->a) + ")";
      }
      case ExprKind::kNot:
        return "not " +
               exprString(static_cast<const UnaryNode*>(expr.get())->a);
      default:
        return relax::toString(expr);
    }
}

} // namespace

Stmt
withChildren(const Stmt& stmt, std::vector<PrimExpr> exprs,
             std::vector<Stmt> stmts)
{
    switch (stmt->kind()) {
      case StmtKind::kFor:
        return makeFor(static_cast<const ForNode*>(stmt.get())->loopVar,
                       std::move(exprs[0]), std::move(stmts[0]));
      case StmtKind::kBufferStore: {
        PrimExpr value = std::move(exprs.back());
        exprs.pop_back();
        return makeStore(static_cast<const BufferStoreNode*>(stmt.get())
                             ->buffer,
                         std::move(exprs), std::move(value));
      }
      case StmtKind::kIfThenElse:
        return makeIf(std::move(exprs[0]), std::move(stmts[0]),
                      stmts.size() > 1 ? std::move(stmts[1]) : nullptr);
      case StmtKind::kSeq:
        return makeSeq(std::move(stmts));
      case StmtKind::kAllocBuffer: {
        const auto* node = static_cast<const AllocBufferNode*>(stmt.get());
        return makeAllocBuffer(node->buffer, node->scope,
                               std::move(stmts[0]));
      }
    }
    return stmt;
}

std::string
toString(const Stmt& stmt, int indent)
{
    std::ostringstream os;
    printStmt(os, stmt, indent);
    return os.str();
}

std::string
toString(const PrimFunc& func)
{
    std::ostringstream os;
    os << "@tensorir_function\ndef " << func->name << "(";
    bool first = true;
    for (const auto& buffer : func->params) {
        if (!first) os << ", ";
        first = false;
        os << buffer->name << ": Buffer(" << relax::toString(buffer->shape)
           << ", \"" << buffer->dtype.toString() << "\")";
    }
    for (const auto& v : func->symParams) {
        if (!first) os << ", ";
        first = false;
        os << v->name << ": i64";
    }
    os << "):\n";
    for (const auto& [key, value] : func->attrs) {
        os << "  func_attr(\"" << key << "\", \"" << value << "\")\n";
    }
    printStmt(os, func->body, 1);
    return os.str();
}

} // namespace tir
} // namespace relax
