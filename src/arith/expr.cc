/**
 * @file
 * Smart constructors for the scalar AST. Binary construction folds
 * constant integer operands on the spot (tryFoldInt) so trivial
 * identities never materialize; floordiv/floormod use Euclidean (floor)
 * semantics matching TIR, not C++ truncation.
 */
#include "arith/expr.h"

#include <cmath>
#include <sstream>

namespace relax {

namespace {

PrimExpr
makeBinary(ExprKind kind, PrimExpr a, PrimExpr b)
{
    DataType dtype = a->dtype();
    switch (kind) {
      case ExprKind::kEQ:
      case ExprKind::kNE:
      case ExprKind::kLT:
      case ExprKind::kLE:
      case ExprKind::kGT:
      case ExprKind::kGE:
      case ExprKind::kAnd:
      case ExprKind::kOr:
        dtype = DataType::boolean();
        break;
      default:
        break;
    }
    return std::make_shared<BinaryNode>(kind, std::move(a), std::move(b),
                                        dtype);
}

/** Constant folds integer binaries when both sides are immediates. */
const PrimExpr*
tryFoldInt(ExprKind kind, const PrimExpr& a, const PrimExpr& b,
           PrimExpr* result)
{
    const int64_t* va = asIntImm(a);
    const int64_t* vb = asIntImm(b);
    if (!va || !vb) return nullptr;
    int64_t value = 0;
    switch (kind) {
      case ExprKind::kAdd: value = *va + *vb; break;
      case ExprKind::kSub: value = *va - *vb; break;
      case ExprKind::kMul: value = *va * *vb; break;
      case ExprKind::kFloorDiv: value = floorDiv(*va, *vb); break;
      case ExprKind::kFloorMod: value = floorMod(*va, *vb); break;
      case ExprKind::kMin: value = std::min(*va, *vb); break;
      case ExprKind::kMax: value = std::max(*va, *vb); break;
      default: return nullptr;
    }
    *result = intImm(value, a->dtype());
    return result;
}

} // namespace

int64_t
floorDiv(int64_t a, int64_t b)
{
    RELAX_ICHECK(b != 0) << "floordiv by zero";
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
}

int64_t
floorMod(int64_t a, int64_t b)
{
    return a - floorDiv(a, b) * b;
}

PrimExpr
intImm(int64_t value, DataType dtype)
{
    return std::make_shared<IntImmNode>(value, dtype);
}

PrimExpr
floatImm(double value, DataType dtype)
{
    return std::make_shared<FloatImmNode>(value, dtype);
}

Var
var(const std::string& name, DataType dtype)
{
    return std::make_shared<VarNode>(name, dtype);
}

PrimExpr
add(PrimExpr a, PrimExpr b)
{
    PrimExpr folded;
    if (tryFoldInt(ExprKind::kAdd, a, b, &folded)) return folded;
    if (isConstInt(a, 0)) return b;
    if (isConstInt(b, 0)) return a;
    return makeBinary(ExprKind::kAdd, std::move(a), std::move(b));
}

PrimExpr
sub(PrimExpr a, PrimExpr b)
{
    PrimExpr folded;
    if (tryFoldInt(ExprKind::kSub, a, b, &folded)) return folded;
    if (isConstInt(b, 0)) return a;
    return makeBinary(ExprKind::kSub, std::move(a), std::move(b));
}

PrimExpr
mul(PrimExpr a, PrimExpr b)
{
    PrimExpr folded;
    if (tryFoldInt(ExprKind::kMul, a, b, &folded)) return folded;
    if (isConstInt(a, 1)) return b;
    if (isConstInt(b, 1)) return a;
    if (isConstInt(a, 0)) return a;
    if (isConstInt(b, 0)) return b;
    return makeBinary(ExprKind::kMul, std::move(a), std::move(b));
}

PrimExpr
floordiv(PrimExpr a, PrimExpr b)
{
    PrimExpr folded;
    if (tryFoldInt(ExprKind::kFloorDiv, a, b, &folded)) return folded;
    if (isConstInt(b, 1)) return a;
    return makeBinary(ExprKind::kFloorDiv, std::move(a), std::move(b));
}

PrimExpr
floormod(PrimExpr a, PrimExpr b)
{
    PrimExpr folded;
    if (tryFoldInt(ExprKind::kFloorMod, a, b, &folded)) return folded;
    if (isConstInt(b, 1)) return intImm(0, a->dtype());
    return makeBinary(ExprKind::kFloorMod, std::move(a), std::move(b));
}

PrimExpr
div(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kDiv, std::move(a), std::move(b));
}

PrimExpr
minExpr(PrimExpr a, PrimExpr b)
{
    PrimExpr folded;
    if (tryFoldInt(ExprKind::kMin, a, b, &folded)) return folded;
    return makeBinary(ExprKind::kMin, std::move(a), std::move(b));
}

PrimExpr
maxExpr(PrimExpr a, PrimExpr b)
{
    PrimExpr folded;
    if (tryFoldInt(ExprKind::kMax, a, b, &folded)) return folded;
    return makeBinary(ExprKind::kMax, std::move(a), std::move(b));
}

PrimExpr eq(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kEQ, std::move(a), std::move(b));
}
PrimExpr ne(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kNE, std::move(a), std::move(b));
}
PrimExpr lt(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kLT, std::move(a), std::move(b));
}
PrimExpr le(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kLE, std::move(a), std::move(b));
}
PrimExpr gt(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kGT, std::move(a), std::move(b));
}
PrimExpr ge(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kGE, std::move(a), std::move(b));
}
PrimExpr logicalAnd(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kAnd, std::move(a), std::move(b));
}
PrimExpr logicalOr(PrimExpr a, PrimExpr b)
{
    return makeBinary(ExprKind::kOr, std::move(a), std::move(b));
}

PrimExpr
logicalNot(PrimExpr a)
{
    return std::make_shared<UnaryNode>(ExprKind::kNot, std::move(a),
                                       DataType::boolean());
}

PrimExpr
select(PrimExpr cond, PrimExpr tv, PrimExpr fv)
{
    return std::make_shared<SelectNode>(std::move(cond), std::move(tv),
                                        std::move(fv));
}

PrimExpr
cast(PrimExpr value, DataType dtype)
{
    if (value->dtype() == dtype) return value;
    if (const int64_t* v = asIntImm(value); v && dtype.isInt()) {
        return intImm(*v, dtype);
    }
    return std::make_shared<UnaryNode>(ExprKind::kCast, std::move(value),
                                       dtype);
}

PrimExpr
callIntrin(const std::string& op, std::vector<PrimExpr> args, DataType dtype)
{
    return std::make_shared<CallNode>(op, std::move(args), dtype);
}

Operands
operands(const PrimExpr& expr)
{
    if (!expr) return {};
    switch (expr->kind()) {
      case ExprKind::kIntImm:
      case ExprKind::kFloatImm:
      case ExprKind::kVar:
      case ExprKind::kBufferLoad:
        return {};
      case ExprKind::kNot:
      case ExprKind::kCast:
        return {&static_cast<const UnaryNode*>(expr.get())->a};
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        return {&node->cond, &node->trueValue, &node->falseValue};
      }
      case ExprKind::kCall:
        return Operands(static_cast<const CallNode*>(expr.get())->args);
      default: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        return {&node->a, &node->b};
      }
    }
}

PrimExpr
withOperands(const PrimExpr& expr, std::vector<PrimExpr> ops)
{
    RELAX_ICHECK(ops.size() == operands(expr).size())
        << "operand count mismatch rebuilding " << toString(expr);
    switch (expr->kind()) {
      case ExprKind::kIntImm:
      case ExprKind::kFloatImm:
      case ExprKind::kVar:
      case ExprKind::kBufferLoad:
        return expr;
      case ExprKind::kNot: return logicalNot(ops[0]);
      case ExprKind::kCast: return cast(ops[0], expr->dtype());
      case ExprKind::kSelect: return select(ops[0], ops[1], ops[2]);
      case ExprKind::kCall:
        return callIntrin(static_cast<const CallNode*>(expr.get())->op,
                          std::move(ops), expr->dtype());
      case ExprKind::kAdd: return add(ops[0], ops[1]);
      case ExprKind::kSub: return sub(ops[0], ops[1]);
      case ExprKind::kMul: return mul(ops[0], ops[1]);
      case ExprKind::kDiv: return div(ops[0], ops[1]);
      case ExprKind::kFloorDiv: return floordiv(ops[0], ops[1]);
      case ExprKind::kFloorMod: return floormod(ops[0], ops[1]);
      case ExprKind::kMin: return minExpr(ops[0], ops[1]);
      case ExprKind::kMax: return maxExpr(ops[0], ops[1]);
      case ExprKind::kEQ: return eq(ops[0], ops[1]);
      case ExprKind::kNE: return ne(ops[0], ops[1]);
      case ExprKind::kLT: return lt(ops[0], ops[1]);
      case ExprKind::kLE: return le(ops[0], ops[1]);
      case ExprKind::kGT: return gt(ops[0], ops[1]);
      case ExprKind::kGE: return ge(ops[0], ops[1]);
      case ExprKind::kAnd: return logicalAnd(ops[0], ops[1]);
      case ExprKind::kOr: return logicalOr(ops[0], ops[1]);
    }
    return expr;
}

const int64_t*
asIntImm(const PrimExpr& expr)
{
    if (expr && expr->kind() == ExprKind::kIntImm) {
        return &static_cast<const IntImmNode*>(expr.get())->value;
    }
    return nullptr;
}

bool
isConstInt(const PrimExpr& expr, int64_t value)
{
    const int64_t* v = asIntImm(expr);
    return v && *v == value;
}

namespace {

/** Operator precedence for minimal-parenthesis printing. */
int
precedence(ExprKind kind)
{
    switch (kind) {
      case ExprKind::kMul:
      case ExprKind::kDiv:
      case ExprKind::kFloorDiv:
      case ExprKind::kFloorMod:
        return 3;
      case ExprKind::kAdd:
      case ExprKind::kSub:
        return 2;
      case ExprKind::kEQ:
      case ExprKind::kNE:
      case ExprKind::kLT:
      case ExprKind::kLE:
      case ExprKind::kGT:
      case ExprKind::kGE:
        return 1;
      case ExprKind::kAnd:
      case ExprKind::kOr:
        return 0;
      default:
        return 4;
    }
}

const char*
opSymbol(ExprKind kind)
{
    switch (kind) {
      case ExprKind::kAdd: return " + ";
      case ExprKind::kSub: return " - ";
      case ExprKind::kMul: return " * ";
      case ExprKind::kDiv: return " / ";
      case ExprKind::kFloorDiv: return " // ";
      case ExprKind::kFloorMod: return " % ";
      case ExprKind::kEQ: return " == ";
      case ExprKind::kNE: return " != ";
      case ExprKind::kLT: return " < ";
      case ExprKind::kLE: return " <= ";
      case ExprKind::kGT: return " > ";
      case ExprKind::kGE: return " >= ";
      case ExprKind::kAnd: return " and ";
      case ExprKind::kOr: return " or ";
      default: return " ? ";
    }
}

void
printExpr(std::ostream& os, const PrimExpr& expr, int parent_prec)
{
    switch (expr->kind()) {
      case ExprKind::kIntImm:
        os << static_cast<const IntImmNode*>(expr.get())->value;
        return;
      case ExprKind::kFloatImm:
        os << static_cast<const FloatImmNode*>(expr.get())->value;
        return;
      case ExprKind::kVar:
        os << static_cast<const VarNode*>(expr.get())->name;
        return;
      case ExprKind::kMin:
      case ExprKind::kMax: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        os << (expr->kind() == ExprKind::kMin ? "min(" : "max(");
        printExpr(os, node->a, 0);
        os << ", ";
        printExpr(os, node->b, 0);
        os << ")";
        return;
      }
      case ExprKind::kNot: {
        os << "not ";
        printExpr(os, static_cast<const UnaryNode*>(expr.get())->a, 4);
        return;
      }
      case ExprKind::kCast: {
        const auto* node = static_cast<const UnaryNode*>(expr.get());
        os << expr->dtype().toString() << "(";
        printExpr(os, node->a, 0);
        os << ")";
        return;
      }
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        os << "select(";
        printExpr(os, node->cond, 0);
        os << ", ";
        printExpr(os, node->trueValue, 0);
        os << ", ";
        printExpr(os, node->falseValue, 0);
        os << ")";
        return;
      }
      case ExprKind::kCall: {
        const auto* node = static_cast<const CallNode*>(expr.get());
        os << node->op << "(";
        for (size_t i = 0; i < node->args.size(); ++i) {
            if (i) os << ", ";
            printExpr(os, node->args[i], 0);
        }
        os << ")";
        return;
      }
      case ExprKind::kBufferLoad:
        // tir prints BufferLoad itself; fall back to opaque form here.
        os << "<load>";
        return;
      default: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        int prec = precedence(expr->kind());
        bool paren = prec < parent_prec;
        if (paren) os << "(";
        printExpr(os, node->a, prec);
        os << opSymbol(expr->kind());
        printExpr(os, node->b, prec + 1);
        if (paren) os << ")";
        return;
      }
    }
}

} // namespace

std::string
toString(const PrimExpr& expr)
{
    if (!expr) return "<null>";
    std::ostringstream os;
    printExpr(os, expr, 0);
    return os.str();
}

std::string
toString(const std::vector<PrimExpr>& shape)
{
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < shape.size(); ++i) {
        if (i) os << ", ";
        os << toString(shape[i]);
    }
    os << ")";
    return os.str();
}

} // namespace relax
