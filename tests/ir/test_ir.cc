/**
 * @file
 * Tests for the Relax graph IR: StructInfo annotations (Table 1),
 * expressions, modules, printing and the well-formed checker.
 */
#include <gtest/gtest.h>

#include "arith/structural.h"
#include "ir/module.h"
#include "ir/utils.h"
#include "tir/builder.h"

namespace relax {
namespace ir {
namespace {

TEST(StructInfoTest, PrintsPaperNotation)
{
    SymVar n = var("n");
    EXPECT_EQ(toString(objectSInfo()), "Object");
    EXPECT_EQ(toString(shapeSInfo({n, intImm(4)})), "Shape((n, 4))");
    EXPECT_EQ(toString(shapeSInfoNDim(2)), "Shape(ndim=2)");
    EXPECT_EQ(toString(tensorSInfo({n, intImm(4)}, DataType::f32())),
              "Tensor((n, 4), \"f32\")");
    EXPECT_EQ(toString(tensorSInfoNDim(kUnknownNDim, DataType::f32())),
              "Tensor(ndim=None, \"f32\")");
    EXPECT_EQ(toString(tupleSInfo({tensorSInfo({n}, DataType::f32()),
                                   objectSInfo()})),
              "Tuple[Tensor((n), \"f32\"), Object]");
    EXPECT_EQ(
        toString(callableSInfo({tensorSInfo({n}, DataType::f32())},
                               tensorSInfo({mul(n, intImm(4))},
                                           DataType::f32()))),
        "Callable([Tensor((n), \"f32\")], Tensor((n * 4), \"f32\"))");
}

TEST(StructInfoTest, EqualityIsStructuralOverSymbolicDims)
{
    SymVar n = var("n");
    StructInfo a = tensorSInfo({n, intImm(4)}, DataType::f32());
    StructInfo b = tensorSInfo({n, intImm(4)}, DataType::f32());
    StructInfo c = tensorSInfo({n, intImm(8)}, DataType::f32());
    EXPECT_TRUE(sInfoEqual(a, b));
    EXPECT_FALSE(sInfoEqual(a, c));
    EXPECT_FALSE(sInfoEqual(a, tensorSInfo({n, intImm(4)},
                                           DataType::f16())));
    EXPECT_FALSE(sInfoEqual(a, tensorSInfoNDim(2, DataType::f32())));
}

TEST(StructInfoTest, CompatibilityAllowsCoarseToFine)
{
    SymVar n = var("n");
    StructInfo fine = tensorSInfo({n, intImm(4)}, DataType::f32());
    StructInfo coarse = tensorSInfoNDim(2, DataType::f32());
    // Coarse values may flow into specific slots (runtime checked, §4.1).
    EXPECT_TRUE(sInfoCompatible(fine, coarse));
    EXPECT_TRUE(sInfoCompatible(coarse, fine));
    EXPECT_FALSE(sInfoCompatible(fine,
                                 tensorSInfoNDim(3, DataType::f32())));
    EXPECT_FALSE(sInfoCompatible(fine,
                                 tensorSInfoNDim(2, DataType::f16())));
    EXPECT_TRUE(sInfoCompatible(objectSInfo(), fine));
}

TEST(StructInfoTest, SubstituteAndCollectSymVars)
{
    SymVar n = var("n");
    StructInfo sinfo = tensorSInfo({n, mul(n, intImm(2))}, DataType::f32());
    std::unordered_set<const ::relax::VarNode*> vars;
    collectSymVars(sinfo, &vars);
    EXPECT_EQ(vars.size(), 1u);

    VarMap vmap{{n.get(), intImm(3)}};
    StructInfo substituted = substituteSInfo(sinfo, vmap);
    const auto* tensor = asTensor(substituted);
    ASSERT_NE(tensor, nullptr);
    EXPECT_TRUE(isConstInt((*tensor->shape)[0], 3));
    EXPECT_TRUE(isConstInt((*tensor->shape)[1], 6));
}

TEST(ExprTest, ConstantCarriesStaticShape)
{
    NDArray data = NDArray::zeros({2, 3}, DataType::f32());
    Expr constant = makeConstant(data);
    const auto* tensor = asTensor(constant->structInfo());
    ASSERT_NE(tensor, nullptr);
    EXPECT_TRUE(isConstInt((*tensor->shape)[0], 2));
    EXPECT_TRUE(isConstInt((*tensor->shape)[1], 3));
}

TEST(ExprTest, CallTIRCarriesOutputAnnotation)
{
    SymVar n = var("n");
    GlobalVar gv = makeGlobalVar("mm");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    StructInfo out = tensorSInfo({n, intImm(8)}, DataType::f32());
    Call call = callTIR(gv, {x}, out);
    EXPECT_TRUE(isOpCall(call, "relax.call_tir"));
    EXPECT_TRUE(sInfoEqual(call->structInfo(), out));
    ASSERT_EQ(call->sinfoArgs.size(), 1u);
}

TEST(ExprTest, OpsAreInterned)
{
    EXPECT_EQ(getOp("relax.add").get(), getOp("relax.add").get());
    EXPECT_NE(getOp("relax.add").get(), getOp("relax.multiply").get());
}

TEST(ModuleTest, AddLookupAndUniqueNames)
{
    auto module = IRModule::create();
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n}, DataType::f32()));
    auto block = std::make_shared<BindingBlockNode>(true);
    Function func = makeFunction({x}, makeSeqExpr({block}, x),
                                 x->structInfo());
    module->addFunction("main", func);
    EXPECT_NE(module->getFunction("main"), nullptr);
    EXPECT_EQ(module->getFunction("missing"), nullptr);
    EXPECT_EQ(module->uniqueName("main"), "main_1");
    EXPECT_EQ(module->uniqueName("fresh"), "fresh");
    // Each name is the first free suffix, and a freed name is issued
    // again.
    module->addFunction(module->uniqueName("main"), func);
    module->addFunction(module->uniqueName("main"), func);
    EXPECT_EQ(module->uniqueName("main"), "main_3");
    module->removeFunction("main_1");
    EXPECT_EQ(module->uniqueName("main"), "main_1");
    module->removeFunction("main");
    EXPECT_EQ(module->uniqueName("main"), "main");
    EXPECT_EQ(module->getGlobalVar("main").get(),
              module->getGlobalVar("main").get());
}

TEST(WellFormedTest, AcceptsMinimalFunction)
{
    auto module = IRModule::create();
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n}, DataType::f32()));
    auto block = std::make_shared<BindingBlockNode>(false);
    module->addFunction("main",
                        makeFunction({x}, makeSeqExpr({block}, x),
                                     x->structInfo()));
    EXPECT_NO_THROW(wellFormed(module));
}

TEST(WellFormedTest, RejectsUndefinedVariableUse)
{
    auto module = IRModule::create();
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n}, DataType::f32()));
    Var ghost = makeVar("ghost", x->structInfo());
    auto block = std::make_shared<BindingBlockNode>(false);
    module->addFunction("main",
                        makeFunction({x}, makeSeqExpr({block}, ghost),
                                     x->structInfo()));
    EXPECT_THROW(wellFormed(module), IRError);
}

TEST(WellFormedTest, RejectsDataflowVarEscape)
{
    auto module = IRModule::create();
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n}, DataType::f32()));
    Var lv = makeVar("lv", x->structInfo(), /*is_dataflow=*/true);
    auto block = std::make_shared<BindingBlockNode>(true);
    block->bindings.push_back({lv, x, false, nullptr});
    // lv escapes via the seq result: ill-formed.
    module->addFunction("main",
                        makeFunction({x}, makeSeqExpr({block}, lv),
                                     x->structInfo()));
    EXPECT_THROW(wellFormed(module), IRError);
}

TEST(WellFormedTest, RejectsMissingStructInfoOnBinding)
{
    auto module = IRModule::create();
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n}, DataType::f32()));
    Var lv = std::make_shared<VarNode>("lv", false); // no annotation
    auto block = std::make_shared<BindingBlockNode>(false);
    block->bindings.push_back({lv, x, false, nullptr});
    module->addFunction("main",
                        makeFunction({x}, makeSeqExpr({block}, x),
                                     x->structInfo()));
    EXPECT_THROW(wellFormed(module), IRError);
}

TEST(WellFormedTest, RejectsCallTIRToMissingFunc)
{
    auto module = IRModule::create();
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n}, DataType::f32()));
    Call call = callTIR(module->getGlobalVar("nonexistent"), {x},
                        x->structInfo());
    Var lv = makeVar("lv", x->structInfo());
    auto block = std::make_shared<BindingBlockNode>(false);
    block->bindings.push_back({lv, call, false, nullptr});
    module->addFunction("main",
                        makeFunction({x}, makeSeqExpr({block}, lv),
                                     x->structInfo()));
    EXPECT_THROW(wellFormed(module), IRError);
}

TEST(UtilsTest, SubstituteVarsRewritesUses)
{
    SymVar n = var("n");
    Var a = makeVar("a", tensorSInfo({n}, DataType::f32()));
    Var b = makeVar("b", a->structInfo());
    Call call = makeCall(getOp("relax.add"), {a, a});
    RxVarMap map{{a.get(), b}};
    Expr rewritten = substituteVars(call, map);
    const auto* rewritten_call = static_cast<const CallNode*>(rewritten.get());
    EXPECT_EQ(rewritten_call->args[0].get(), b.get());
    EXPECT_EQ(rewritten_call->args[1].get(), b.get());
}

TEST(UtilsTest, CollectVarUsesTraversesStructures)
{
    SymVar n = var("n");
    Var a = makeVar("a", tensorSInfo({n}, DataType::f32()));
    Var b = makeVar("b", a->structInfo());
    Expr tuple = makeTuple({a, makeTupleGetItem(makeTuple({b}), 0)});
    std::unordered_set<const VarNode*> uses;
    collectVarUses(tuple, &uses);
    EXPECT_EQ(uses.size(), 2u);
}

TEST(PrinterTest, RendersDataflowFunction)
{
    auto module = IRModule::create();
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var lv = makeVar("lv0", x->structInfo(), true);
    Var out = makeVar("gv0", x->structInfo());
    auto block = std::make_shared<BindingBlockNode>(true);
    block->bindings.push_back(
        {lv, makeCall(getOp("relax.exp"), {x}), false, nullptr});
    block->bindings.push_back({out, lv, false, nullptr});
    module->addFunction("main",
                        makeFunction({x}, makeSeqExpr({block}, out),
                                     x->structInfo()));
    std::string text = module->toString();
    EXPECT_NE(text.find("def main(x: Tensor((n, 4), \"f32\"))"),
              std::string::npos);
    EXPECT_NE(text.find("with dataflow():"), std::string::npos);
    EXPECT_NE(text.find("lv0: Tensor((n, 4), \"f32\") = exp(x)"),
              std::string::npos);
    EXPECT_NE(text.find("return gv0"), std::string::npos);
}

} // namespace
} // namespace relax
} // namespace ir
