/**
 * @file
 * Unit tests for the scalar expression AST: factories, constant folding,
 * printing, structural equality/hash, operand traversal, substitution
 * and evaluation.
 */
#include <gtest/gtest.h>

#include <set>

#include "arith/expr.h"
#include "arith/structural.h"
#include "arith/substitute.h"

namespace relax {
namespace {

TEST(DataTypeTest, RoundTripsText)
{
    EXPECT_EQ(DataType::f16().toString(), "f16");
    EXPECT_EQ(DataType::i64().toString(), "i64");
    EXPECT_EQ(DataType::u32().toString(), "u32");
    EXPECT_EQ(DataType::boolean().toString(), "bool");
    EXPECT_EQ(DataType::fromString("f32"), DataType::f32());
    EXPECT_EQ(DataType::fromString("u4"), DataType::u4());
    EXPECT_EQ(DataType::fromString("bool"), DataType::boolean());
    EXPECT_THROW(DataType::fromString("x8"), TypeError);
}

TEST(DataTypeTest, ByteSizes)
{
    EXPECT_EQ(DataType::f16().bytes(), 2);
    EXPECT_EQ(DataType::f32().bytes(), 4);
    EXPECT_EQ(DataType::u4().bytes(), 1); // rounds up to one byte per scalar
    EXPECT_EQ(DataType::i64().bytes(), 8);
}

TEST(ExprTest, ConstantFoldingInFactories)
{
    PrimExpr e = add(intImm(3), intImm(4));
    ASSERT_NE(asIntImm(e), nullptr);
    EXPECT_EQ(*asIntImm(e), 7);

    EXPECT_EQ(*asIntImm(mul(intImm(6), intImm(7))), 42);
    EXPECT_EQ(*asIntImm(floordiv(intImm(-7), intImm(2))), -4);
    EXPECT_EQ(*asIntImm(floormod(intImm(-7), intImm(2))), 1);
    EXPECT_EQ(*asIntImm(minExpr(intImm(3), intImm(-5))), -5);
    EXPECT_EQ(*asIntImm(maxExpr(intImm(3), intImm(-5))), 3);
}

TEST(ExprTest, IdentityRules)
{
    Var n = var("n");
    EXPECT_EQ(add(n, intImm(0)).get(), n.get());
    EXPECT_EQ(mul(n, intImm(1)).get(), n.get());
    EXPECT_TRUE(isConstInt(mul(n, intImm(0)), 0));
    EXPECT_EQ(sub(n, intImm(0)).get(), n.get());
    EXPECT_EQ(floordiv(n, intImm(1)).get(), n.get());
    EXPECT_TRUE(isConstInt(floormod(n, intImm(1)), 0));
}

TEST(ExprTest, PrintingMatchesPaperNotation)
{
    Var n = var("n");
    EXPECT_EQ(toString(mul(n, intImm(4))), "n * 4");
    EXPECT_EQ(toString(add(mul(intImm(2), n), intImm(1))), "2 * n + 1");
    EXPECT_EQ(toString(mul(add(n, intImm(1)), intImm(4))), "(n + 1) * 4");
    EXPECT_EQ(toString(std::vector<PrimExpr>{n, intImm(4)}), "(n, 4)");
    EXPECT_EQ(toString(minExpr(n, intImm(8))), "min(n, 8)");
    EXPECT_EQ(toString(floordiv(n, intImm(8))), "n // 8");
}

TEST(ExprTest, VarsAreIdentityDistinct)
{
    Var n1 = var("n");
    Var n2 = var("n");
    EXPECT_FALSE(structuralEqual(n1, n2));
    EXPECT_TRUE(structuralEqual(n1, n1));
}

TEST(StructuralTest, EqualAndHashAgree)
{
    Var n = var("n");
    Var m = var("m");
    PrimExpr a = add(mul(n, intImm(4)), m);
    PrimExpr b = add(mul(n, intImm(4)), m);
    PrimExpr c = add(mul(n, intImm(5)), m);
    EXPECT_TRUE(structuralEqual(a, b));
    EXPECT_EQ(structuralHash(a), structuralHash(b));
    EXPECT_FALSE(structuralEqual(a, c));
}

TEST(StructuralTest, DistinguishesKinds)
{
    Var n = var("n");
    EXPECT_FALSE(structuralEqual(add(n, intImm(1)), sub(n, intImm(1))));
    EXPECT_FALSE(structuralEqual(minExpr(n, intImm(1)), maxExpr(n, intImm(1))));
    EXPECT_FALSE(
        structuralEqual(intImm(1, DataType::i64()), intImm(1, DataType::i32())));
}

TEST(SubstituteTest, ReplacesVariables)
{
    Var n = var("n");
    Var m = var("m");
    PrimExpr e = add(mul(n, intImm(4)), m);
    VarMap map;
    map[n.get()] = intImm(3);
    PrimExpr result = substitute(e, map);
    // 3*4 + m folds the product.
    EXPECT_EQ(toString(result), "12 + m");
    map[m.get()] = intImm(5);
    EXPECT_EQ(*asIntImm(substitute(e, map)), 17);
}

TEST(SubstituteTest, SharesUnchangedSubtrees)
{
    Var n = var("n");
    Var m = var("m");
    PrimExpr e = add(n, m);
    VarMap empty;
    EXPECT_EQ(substitute(e, empty).get(), e.get());
}

TEST(SubstituteTest, CollectVarsFindsAll)
{
    Var n = var("n");
    Var m = var("m");
    PrimExpr e = add(mul(n, intImm(2)), minExpr(m, n));
    std::unordered_set<const VarNode*> vars;
    collectVars(e, &vars);
    EXPECT_EQ(vars.size(), 2u);
    EXPECT_TRUE(vars.count(n.get()));
    EXPECT_TRUE(vars.count(m.get()));
}

/** One node of every arith kind over distinct leaves, with the operands
 *  it holds in field order. kBufferLoad is tir's and is tested there. */
std::vector<std::pair<PrimExpr, std::vector<PrimExpr>>>
nodeOfEveryKind(const PrimExpr& a, const PrimExpr& b, const PrimExpr& c)
{
    return {
        {intImm(1), {}},
        {floatImm(0.5), {}},
        {var("v"), {}},
        {add(a, b), {a, b}},
        {sub(a, b), {a, b}},
        {mul(a, b), {a, b}},
        {div(a, b), {a, b}},
        {floordiv(a, b), {a, b}},
        {floormod(a, b), {a, b}},
        {minExpr(a, b), {a, b}},
        {maxExpr(a, b), {a, b}},
        {eq(a, b), {a, b}},
        {ne(a, b), {a, b}},
        {lt(a, b), {a, b}},
        {le(a, b), {a, b}},
        {gt(a, b), {a, b}},
        {ge(a, b), {a, b}},
        {logicalAnd(a, b), {a, b}},
        {logicalOr(a, b), {a, b}},
        {logicalNot(a), {a}},
        {cast(a, DataType::f32()), {a}},
        {select(a, b, c), {a, b, c}},
        {callIntrin("fma", {a, b, c}, DataType::i64()), {a, b, c}},
    };
}

std::vector<const PrimExprNode*>
operandNodes(const PrimExpr& expr)
{
    std::vector<const PrimExprNode*> out;
    for (const PrimExpr& operand : operands(expr)) out.push_back(operand.get());
    return out;
}

TEST(TraversalTest, OperandsOfEveryKindInFieldOrder)
{
    Var a = var("a"), b = var("b"), c = var("c");
    auto cases = nodeOfEveryKind(a, b, c);
    std::set<ExprKind> kinds;
    for (const auto& [expr, expected] : cases) {
        SCOPED_TRACE(toString(expr));
        kinds.insert(expr->kind());
        std::vector<const PrimExprNode*> want;
        for (const auto& operand : expected) want.push_back(operand.get());
        EXPECT_EQ(operandNodes(expr), want);
    }
    EXPECT_EQ(kinds.size(), cases.size());
    EXPECT_EQ(kinds.size(), static_cast<size_t>(ExprKind::kBufferLoad));
    EXPECT_EQ(operands(nullptr).size(), 0u);
}

TEST(TraversalTest, IdentityRebuildReturnsTheSameNode)
{
    Var a = var("a"), b = var("b"), c = var("c");
    for (const auto& [expr, expected] : nodeOfEveryKind(a, b, c)) {
        SCOPED_TRACE(toString(expr));
        PrimExpr same =
            mapOperands(expr, [](const PrimExpr& operand) { return operand; });
        EXPECT_EQ(same.get(), expr.get());
    }
}

TEST(TraversalTest, RebuildKeepsKindDtypeAndOperandOrder)
{
    Var a = var("a"), b = var("b"), c = var("c");
    Var x = var("x"), y = var("y"), z = var("z");
    VarMap map{{a.get(), x}, {b.get(), y}, {c.get(), z}};
    for (const auto& [expr, expected] : nodeOfEveryKind(a, b, c)) {
        if (expected.empty()) continue;
        SCOPED_TRACE(toString(expr));
        PrimExpr rebuilt = mapOperands(expr, [&](const PrimExpr& operand) {
            return map.at(static_cast<const VarNode*>(operand.get()));
        });
        ASSERT_NE(rebuilt.get(), expr.get());
        EXPECT_EQ(rebuilt->kind(), expr->kind());
        EXPECT_EQ(rebuilt->dtype(), expr->dtype());
        std::vector<const PrimExprNode*> want{x.get(), y.get(), z.get()};
        want.resize(expected.size());
        EXPECT_EQ(operandNodes(rebuilt), want);
    }
    // The rebuild goes through the folding factories.
    PrimExpr folded = mapOperands(
        add(a, b), [](const PrimExpr&) { return intImm(2); });
    EXPECT_TRUE(isConstInt(folded, 4));
}

TEST(EvalTest, EvaluatesArithmetic)
{
    Var n = var("n");
    VarBinding binding{{n.get(), 7}};
    EXPECT_EQ(evalInt(add(mul(n, intImm(4)), intImm(2)), binding), 30);
    EXPECT_EQ(evalInt(floordiv(n, intImm(2)), binding), 3);
    EXPECT_EQ(evalInt(floormod(n, intImm(4)), binding), 3);
    EXPECT_EQ(evalInt(minExpr(n, intImm(5)), binding), 5);
    EXPECT_EQ(evalInt(maxExpr(n, intImm(5)), binding), 7);
    EXPECT_EQ(evalInt(select(gt(n, intImm(0)), intImm(1), intImm(-1)), binding),
              1);
}

TEST(EvalTest, UnboundVariableFails)
{
    Var n = var("n");
    VarBinding binding;
    EXPECT_FALSE(tryEvalInt(n, binding).has_value());
    EXPECT_THROW(evalInt(n, binding), ShapeError);
}

TEST(EvalTest, ComparisonsAndLogic)
{
    Var n = var("n");
    VarBinding binding{{n.get(), 4}};
    EXPECT_EQ(evalInt(eq(n, intImm(4)), binding), 1);
    EXPECT_EQ(evalInt(ne(n, intImm(4)), binding), 0);
    EXPECT_EQ(evalInt(logicalAnd(gt(n, intImm(0)), lt(n, intImm(10))),
                      binding),
              1);
    EXPECT_EQ(evalInt(logicalOr(lt(n, intImm(0)), ge(n, intImm(4))), binding),
              1);
    EXPECT_EQ(evalInt(logicalNot(gt(n, intImm(0))), binding), 0);
}

} // namespace
} // namespace relax
