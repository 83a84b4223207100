/**
 * @file
 * Scalar expression AST shared by symbolic shapes and tensor programs.
 *
 * Symbolic shape dimensions in Relax annotations (the paper's first-class
 * symbolic shapes, §3.2) are PrimExprs of dtype i64: variables, constants and
 * integer arithmetic over them. The same AST doubles as the scalar compute
 * language of loop-level tensor programs (§3.3), where float immediates,
 * comparisons, selects and math intrinsics also appear. This mirrors the
 * paper's decision to "reuse the loop-level tensor program expression system"
 * for shape annotations.
 */
#ifndef RELAX_ARITH_EXPR_H_
#define RELAX_ARITH_EXPR_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "arith/dtype.h"
#include "support/error.h"

namespace relax {

class PrimExprNode;

/** Shared immutable handle to an expression node. */
using PrimExpr = std::shared_ptr<const PrimExprNode>;

/** Discriminator for every scalar expression node. */
enum class ExprKind : uint8_t {
    kIntImm,
    kFloatImm,
    kVar,
    kAdd,
    kSub,
    kMul,
    kDiv,      //!< float division
    kFloorDiv, //!< integer floor division
    kFloorMod, //!< integer floor modulo
    kMin,
    kMax,
    kEQ,
    kNE,
    kLT,
    kLE,
    kGT,
    kGE,
    kAnd,
    kOr,
    kNot,
    kSelect,
    kCast,
    kCall,      //!< math intrinsic call, e.g. exp/sqrt/erf
    kBufferLoad //!< defined in tir/; reserved here so visitors can dispatch
};

/** Base class of all scalar expression nodes; immutable after creation. */
class PrimExprNode : public std::enable_shared_from_this<PrimExprNode>
{
  public:
    PrimExprNode(ExprKind kind, DataType dtype) : kind_(kind), dtype_(dtype) {}
    virtual ~PrimExprNode() = default;

    ExprKind kind() const { return kind_; }
    DataType dtype() const { return dtype_; }

    /** Recovers an owning handle from a raw node pointer (nodes are always
     *  owned by shared_ptr). */
    PrimExpr sharedFromThis() const { return shared_from_this(); }

  private:
    ExprKind kind_;
    DataType dtype_;
};

/** Integer immediate. */
class IntImmNode : public PrimExprNode
{
  public:
    IntImmNode(int64_t value, DataType dtype)
        : PrimExprNode(ExprKind::kIntImm, dtype), value(value) {}

    int64_t value;
};

/** Floating-point immediate. */
class FloatImmNode : public PrimExprNode
{
  public:
    FloatImmNode(double value, DataType dtype)
        : PrimExprNode(ExprKind::kFloatImm, dtype), value(value) {}

    double value;
};

/**
 * A scalar variable. Symbolic shape variables (the paper's `sym_var()`) are
 * i64 Vars. Identity is by node address; two Vars with the same name are
 * distinct variables.
 */
class VarNode : public PrimExprNode
{
  public:
    VarNode(std::string name, DataType dtype)
        : PrimExprNode(ExprKind::kVar, dtype), name(std::move(name)) {}

    std::string name;
};

using Var = std::shared_ptr<const VarNode>;

/** Binary operation; kind() distinguishes which one. */
class BinaryNode : public PrimExprNode
{
  public:
    BinaryNode(ExprKind kind, PrimExpr a, PrimExpr b, DataType dtype)
        : PrimExprNode(kind, dtype), a(std::move(a)), b(std::move(b)) {}

    PrimExpr a;
    PrimExpr b;
};

/** Logical or arithmetic unary operation (kNot, kCast). */
class UnaryNode : public PrimExprNode
{
  public:
    UnaryNode(ExprKind kind, PrimExpr a, DataType dtype)
        : PrimExprNode(kind, dtype), a(std::move(a)) {}

    PrimExpr a;
};

/** Ternary select: cond ? true_value : false_value. */
class SelectNode : public PrimExprNode
{
  public:
    SelectNode(PrimExpr cond, PrimExpr tv, PrimExpr fv)
        : PrimExprNode(ExprKind::kSelect, tv->dtype()), cond(std::move(cond)),
          trueValue(std::move(tv)), falseValue(std::move(fv)) {}

    PrimExpr cond;
    PrimExpr trueValue;
    PrimExpr falseValue;
};

/** Math intrinsic call by name (exp, sqrt, erf, tanh, log, sigmoid, ...). */
class CallNode : public PrimExprNode
{
  public:
    CallNode(std::string op, std::vector<PrimExpr> args, DataType dtype)
        : PrimExprNode(ExprKind::kCall, dtype), op(std::move(op)),
          args(std::move(args)) {}

    std::string op;
    std::vector<PrimExpr> args;
};

// ---------------------------------------------------------------------------
// Factory helpers. Arithmetic factories constant-fold immediates eagerly.
// ---------------------------------------------------------------------------

/** Creates an i64 integer immediate. */
PrimExpr intImm(int64_t value, DataType dtype = DataType::i64());

/** Creates a float immediate. */
PrimExpr floatImm(double value, DataType dtype = DataType::f32());

/** Creates a fresh symbolic variable (i64 by default, as for shapes). */
Var var(const std::string& name, DataType dtype = DataType::i64());

PrimExpr add(PrimExpr a, PrimExpr b);
PrimExpr sub(PrimExpr a, PrimExpr b);
PrimExpr mul(PrimExpr a, PrimExpr b);
PrimExpr floordiv(PrimExpr a, PrimExpr b);
PrimExpr floormod(PrimExpr a, PrimExpr b);
PrimExpr div(PrimExpr a, PrimExpr b);
PrimExpr minExpr(PrimExpr a, PrimExpr b);
PrimExpr maxExpr(PrimExpr a, PrimExpr b);
PrimExpr eq(PrimExpr a, PrimExpr b);
PrimExpr ne(PrimExpr a, PrimExpr b);
PrimExpr lt(PrimExpr a, PrimExpr b);
PrimExpr le(PrimExpr a, PrimExpr b);
PrimExpr gt(PrimExpr a, PrimExpr b);
PrimExpr ge(PrimExpr a, PrimExpr b);
PrimExpr logicalAnd(PrimExpr a, PrimExpr b);
PrimExpr logicalOr(PrimExpr a, PrimExpr b);
PrimExpr logicalNot(PrimExpr a);
PrimExpr select(PrimExpr cond, PrimExpr tv, PrimExpr fv);
PrimExpr cast(PrimExpr value, DataType dtype);
PrimExpr callIntrin(const std::string& op, std::vector<PrimExpr> args,
                    DataType dtype);

inline PrimExpr operator+(PrimExpr a, PrimExpr b) { return add(a, b); }
inline PrimExpr operator-(PrimExpr a, PrimExpr b) { return sub(a, b); }
inline PrimExpr operator*(PrimExpr a, PrimExpr b) { return mul(a, b); }
inline PrimExpr operator+(PrimExpr a, int64_t b) { return add(a, intImm(b)); }
inline PrimExpr operator-(PrimExpr a, int64_t b) { return sub(a, intImm(b)); }
inline PrimExpr operator*(PrimExpr a, int64_t b) { return mul(a, intImm(b)); }
inline PrimExpr operator*(int64_t a, PrimExpr b) { return mul(intImm(a), b); }

/** Integer floor division and modulo (Python semantics for negative
 *  operands); a zero divisor fails an internal check. */
int64_t floorDiv(int64_t a, int64_t b);
int64_t floorMod(int64_t a, int64_t b);

// ---------------------------------------------------------------------------
// Traversal. operands() and withOperands() are the only code that spells
// out which fields of a node are its operands; walkers keep just their
// kind-specific rules.
// ---------------------------------------------------------------------------

/**
 * A node's operands in field order, viewed in place (the node must
 * outlive the view): a, b for the binary kinds; a for kNot and kCast;
 * cond, trueValue, falseValue for kSelect; args for kCall. Immediates,
 * Vars and kBufferLoad have none: arith cannot see a load's fields
 * (tir::operandsAndIndices adds its indices).
 */
class Operands
{
  public:
    Operands() = default;
    /** Views a list of operands, e.g. a call's args. */
    explicit Operands(const std::vector<PrimExpr>& list)
        : list_(list.data()), size_(list.size()) {}
    /** Views up to three operand fields. */
    Operands(std::initializer_list<const PrimExpr*> fields)
        : size_(fields.size())
    {
        std::copy(fields.begin(), fields.end(), fields_);
    }

    size_t size() const { return size_; }
    const PrimExpr&
    operator[](size_t i) const
    {
        return list_ ? list_[i] : *fields_[i];
    }

    class Iterator
    {
      public:
        Iterator(const Operands* ops, size_t i) : ops_(ops), i_(i) {}
        const PrimExpr& operator*() const { return (*ops_)[i_]; }
        Iterator&
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const Iterator& other) const { return i_ != other.i_; }

      private:
        const Operands* ops_;
        size_t i_;
    };
    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, size_}; }

  private:
    const PrimExpr* list_ = nullptr;
    const PrimExpr* fields_[3] = {};
    size_t size_ = 0;
};

/** The operands of `expr` (none for a null handle). */
Operands operands(const PrimExpr& expr);

/**
 * Rebuilds `expr` over new operands, given in operands() order, through
 * the folding factories above (so the result may be a folded constant).
 */
PrimExpr withOperands(const PrimExpr& expr, std::vector<PrimExpr> ops);

/**
 * Maps `fn` over the operands of `expr` and rebuilds it through
 * withOperands. Returns `expr` itself when no operand changed: the
 * factories fold, so rebuilding an unchanged node could alter it.
 */
template <typename Fn>
PrimExpr
mapOperands(const PrimExpr& expr, Fn&& fn)
{
    Operands old = operands(expr);
    if (old.size() == 0) return expr;
    std::vector<PrimExpr> ops;
    ops.reserve(old.size());
    bool changed = false;
    for (const PrimExpr& op : old) {
        ops.push_back(fn(op));
        changed |= ops.back() != op;
    }
    return changed ? withOperands(expr, std::move(ops)) : expr;
}

/** Returns the value if the expression is an integer immediate. */
const int64_t* asIntImm(const PrimExpr& expr);

/** True iff the expression is the integer constant `value`. */
bool isConstInt(const PrimExpr& expr, int64_t value);

/** Renders the expression, e.g. "n * 4 + 1". */
std::string toString(const PrimExpr& expr);

/** Renders a shape tuple, e.g. "(n, 4)". */
std::string toString(const std::vector<PrimExpr>& shape);

} // namespace relax

#endif // RELAX_ARITH_EXPR_H_
