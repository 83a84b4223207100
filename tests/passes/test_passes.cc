/**
 * @file
 * Tests for the basic passes: normalize, DCE, legalize, pattern
 * annotation and partial library lowering.
 */
#include <gtest/gtest.h>

#include "op/ops.h"
#include "passes/passes.h"
#include "shape/block_builder.h"
#include "tir/analysis.h"
#include "frontend/compile.h"
#include "vm/vm.h"

namespace relax {
namespace passes {
namespace {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

/** Builds main(x: (n, 8)) = exp(x) |> relu |> add(x') chain for tests. */
IRModulePtr
buildChainModule(bool with_dead_binding = false)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(8)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));
    Var lv1 = builder.emit(op::relu(lv0));
    if (with_dead_binding) {
        builder.emit(op::negative(lv0)); // unused
    }
    Var out = builder.emitOutput(op::add(lv1, x));
    builder.endBlock();
    module->addFunction(
        "main", makeFunction({x}, builder.finish(out), out->structInfo()));
    wellFormed(module);
    return module;
}

size_t
countBindings(const IRModulePtr& module, const std::string& fn)
{
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction(fn)->body.get());
    size_t count = 0;
    for (const auto& block : seq->blocks) count += block->bindings.size();
    return count;
}

TEST(DCETest, RemovesUnusedDataflowBindings)
{
    auto module = buildChainModule(true);
    EXPECT_EQ(countBindings(module, "main"), 4u);
    module = deadCodeEliminationPass().run(module);
    EXPECT_EQ(countBindings(module, "main"), 3u);
    wellFormed(module);
}

TEST(DCETest, KeepsEverythingLive)
{
    auto module = buildChainModule(false);
    module = deadCodeEliminationPass().run(module);
    EXPECT_EQ(countBindings(module, "main"), 3u);
}

TEST(LegalizeTest, LowersOpsToCallTIR)
{
    auto module = buildChainModule(false);
    module = legalizeOpsPass().run(module);
    wellFormed(module);
    // Three kernels generated: exp, relu, add.
    EXPECT_EQ(module->tirFuncs().size(), 3u);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            EXPECT_TRUE(isOpCall(binding.value, "relax.call_tir"));
        }
    }
}

TEST(LegalizeTest, DataDependentOpBecomesPackedCall)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n}, DataType::f32()));
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(op::unique(x));
    builder.endBlock();
    module->addFunction(
        "main", makeFunction({x}, builder.finish(out), out->structInfo()));
    module = legalizeOpsPass().run(module);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    EXPECT_TRUE(isOpCall(seq->blocks[0]->bindings[0].value,
                         "relax.call_packed"));
}

TEST(AnnotateTest, TagsPatternKinds)
{
    auto module = buildChainModule(false);
    module = legalizeOpsPass().run(module);
    module = annotateTIRPatternsPass().run(module);
    for (const auto& [name, func] : module->tirFuncs()) {
        ASSERT_TRUE(func->attrs.count(tir::kComputePatternAttr)) << name;
        EXPECT_EQ(func->attrs.at(tir::kComputePatternAttr), "ElementWise")
            << name;
    }
}

TEST(LibLowerTest, MatmulGoesToGemmLibrary)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(64)}, DataType::f16()));
    Var w = makeVar("w", tensorSInfo({intImm(64), intImm(32)},
                                     DataType::f16()));
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(op::matmul(x, w));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    TargetInfo target;
    target.gemmLibrary = "cublas";
    module = partialLibraryLoweringPass(target).run(module);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    const auto& binding = seq->blocks[0]->bindings[0];
    ASSERT_TRUE(isOpCall(binding.value, "relax.call_dps_library"));
    const auto* call = static_cast<const CallNode*>(binding.value.get());
    EXPECT_EQ(static_cast<const ExternFuncNode*>(call->args[0].get())->name,
              "cublas.matmul");
}

TEST(LibLowerTest, SkinnyMatmulStaysOnCompilerPath)
{
    // Batch-1 decode: 1 row -> compiler-generated kernel (§5.1).
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    Var x = makeVar("x", tensorSInfo({intImm(1), intImm(64)},
                                     DataType::f16()));
    Var w = makeVar("w", tensorSInfo({intImm(64), intImm(32)},
                                     DataType::f16()));
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(op::matmul(x, w));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    TargetInfo target;
    target.gemmLibrary = "cublas";
    module = partialLibraryLoweringPass(target).run(module);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    EXPECT_TRUE(isOpCall(seq->blocks[0]->bindings[0].value, "relax.matmul"));
}

TEST(LibLowerTest, NoLibraryMeansNoChange)
{
    auto module = buildChainModule(false);
    TargetInfo target; // no libraries at all
    module = partialLibraryLoweringPass(target).run(module);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    EXPECT_TRUE(isOpCall(seq->blocks[0]->bindings[0].value, "relax.exp"));
}

TEST(PipelineTest, RunsAllStagesWellFormed)
{
    // The standard pipeline is frontend::compile's: every stage on, for
    // a device with vendor libraries and execution graphs.
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    options.bounds = {{"n", 128}};
    IRModulePtr module =
        frontend::compile(buildChainModule(true), options)->module;
    EXPECT_NO_THROW(wellFormed(module));
    // After lowering, main's bindings are memory + kernel ops only.
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    bool saw_kernel = false;
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            saw_kernel |= isOpCall(binding.value, "relax.vm.kernel_call");
            EXPECT_FALSE(isOpCall(binding.value, "relax.exp"));
            EXPECT_FALSE(isOpCall(binding.value, "relax.call_tir"));
        }
    }
    EXPECT_TRUE(saw_kernel);
    // Static plan recorded for graph offloading.
    EXPECT_EQ(module->getFunction("main")->attrs.at("static_plan"), "1");
}

TEST(ConstantFoldTest, FoldsPureConstantSubgraphs)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    NDArray a = NDArray::fromVector({2}, DataType::f32(), {1, 2});
    NDArray b = NDArray::fromVector({2}, DataType::f32(), {10, 20});
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(2)}, DataType::f32()));
    builder.beginDataflowBlock();
    // add(const, const) then relu(const) folds away entirely; the final
    // add against the runtime input stays.
    Var folded = builder.emit(op::add(makeConstant(a), makeConstant(b)));
    Var folded2 = builder.emit(op::relu(folded));
    Var out = builder.emitOutput(op::add(x, folded2));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));
    module = constantFoldPass().run(module);
    wellFormed(module);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    // Only the data-dependent add remains.
    ASSERT_EQ(seq->blocks[0]->bindings.size(), 1u);
    const auto& binding = seq->blocks[0]->bindings[0];
    EXPECT_TRUE(isOpCall(binding.value, "relax.add"));
    const auto* call = static_cast<const CallNode*>(binding.value.get());
    ASSERT_EQ(call->args[1]->kind(), RxKind::kConstant);
    const auto& data =
        static_cast<const ConstantNode*>(call->args[1].get())->data;
    EXPECT_EQ(data.data(), (std::vector<double>{11, 22}));
}

TEST(ConstantFoldTest, LeavesDynamicOperandsAlone)
{
    auto module = buildChainModule(false);
    std::string before = module->toString();
    module = constantFoldPass().run(module);
    EXPECT_EQ(module->toString(), before);
}

TEST(ConstantFoldTest, FoldedProgramStillExecutesCorrectly)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    NDArray w = NDArray::fromVector({2, 2}, DataType::f32(), {1, 2, 3, 4});
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(2)}, DataType::f32()));
    builder.beginDataflowBlock();
    // transpose(const) folds; matmul(x, folded) stays.
    Var wt = builder.emit(op::permuteDims(makeConstant(w), {1, 0}));
    Var out = builder.emitOutput(op::matmul(x, wt));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));
    module = constantFoldPass().run(module);

    frontend::CompileOptions options;
    options.device.name = "host";
    options.device.backend = "cpu";
    auto exec = frontend::compile(module, options);
    auto dev = std::make_shared<device::SimDevice>(options.device);
    vm::VirtualMachine machine(exec, dev, true);
    NDArray input = NDArray::fromVector({1, 2}, DataType::f32(), {1, 1});
    NDArray result = std::get<NDArray>(machine.invoke("main", {input}));
    // x @ w^T = [1+2, 3+4].
    EXPECT_EQ(result.data(), (std::vector<double>{3, 7}));
}

} // namespace
} // namespace passes
} // namespace relax
