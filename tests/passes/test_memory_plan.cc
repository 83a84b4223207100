/**
 * @file
 * Tests for dynamic shape-aware memory planning (Algorithm 3),
 * reproducing the Figure 10 example: four intermediate tensors of shapes
 * (2, n) and (n, 2) reuse two storage chunks. Also covers upper-bound
 * static planning (§4.3) and workspace lifting (Fig. 11) feeding into it.
 */
#include <gtest/gtest.h>

#include "op/ops.h"
#include "op/tir_kernels.h"
#include "passes/passes.h"
#include "shape/block_builder.h"
#include "tir/analysis.h"

namespace relax {
namespace passes {
namespace {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

/** Figure 10: x:(2,n) -> exp -> transpose -> relu -> transpose. */
IRModulePtr
buildFigure10Module()
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({intImm(2), n}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));
    Var lv1 = builder.emit(op::permuteDims(lv0, {1, 0}));
    Var lv2 = builder.emit(op::relu(lv1));
    Var lv3 = builder.emitOutput(op::permuteDims(lv2, {1, 0}));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(lv3),
                                             lv3->structInfo()));
    wellFormed(module);
    return module;
}

struct PlanStats
{
    size_t allocStorages = 0;
    size_t allocTensors = 0;
    size_t kernelCalls = 0;
};

PlanStats
statsOf(const IRModulePtr& module, const std::string& fn = "main")
{
    PlanStats stats;
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction(fn)->body.get());
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            stats.allocStorages +=
                isOpCall(binding.value, "relax.memory.alloc_storage");
            stats.allocTensors +=
                isOpCall(binding.value, "relax.memory.alloc_tensor");
            stats.kernelCalls +=
                isOpCall(binding.value, "relax.vm.kernel_call");
        }
    }
    return stats;
}

IRModulePtr
lowerForPlanning(IRModulePtr module)
{
    module = legalizeOpsPass().run(module);
    module = lowerCallTIRPass().run(module);
    return module;
}

TEST(MemoryPlanTest, Figure10ReusesTwoStorages)
{
    auto module = lowerForPlanning(buildFigure10Module());
    module = staticMemoryPlanPass().run(module);
    wellFormed(module);
    PlanStats stats = statsOf(module);
    // Four intermediates, two storages: lv0 (2,n) is dead when lv2 (n,2)
    // allocates, and the analyzer proves 2*n*4 == n*2*4 bytes.
    EXPECT_EQ(stats.allocTensors, 4u);
    EXPECT_EQ(stats.allocStorages, 2u);
    EXPECT_EQ(stats.kernelCalls, 4u);
    // Fully symbolic sizes: not a static plan.
    EXPECT_EQ(module->getFunction("main")->attrs.at("static_plan"), "0");
}

TEST(MemoryPlanTest, UpperBoundMakesPlanStatic)
{
    auto module = lowerForPlanning(buildFigure10Module());
    module = staticMemoryPlanPass({{"n", 1024}}).run(module);
    Function main_fn = module->getFunction("main");
    EXPECT_EQ(main_fn->attrs.at("static_plan"), "1");
    // Two storages of 2*1024*4 bytes each.
    EXPECT_EQ(main_fn->attrs.at("planned.total_bytes"),
              std::to_string(2 * 2 * 1024 * 4));
    EXPECT_EQ(main_fn->attrs.at("planned.num_storages"), "2");
}

TEST(MemoryPlanTest, DifferentSizesDoNotAlias)
{
    // exp (n,4) then matmul to (n,8): sizes differ, two live at once.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(4), intImm(8)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));
    Var out = builder.emitOutput(op::matmul(lv0, w));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    module = lowerForPlanning(module);
    module = staticMemoryPlanPass().run(module);
    EXPECT_EQ(statsOf(module).allocStorages, 2u);
}

TEST(MemoryPlanTest, LiveTensorsNeverShareStorage)
{
    // add(exp(x), relu(x)): both intermediates live simultaneously.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var a = builder.emit(op::exp(x));
    Var b = builder.emit(op::relu(x));
    Var out = builder.emitOutput(op::add(a, b));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));
    module = lowerForPlanning(module);
    module = staticMemoryPlanPass().run(module);
    // a and b overlap, and both stay live while add writes its output
    // (no in-place aliasing), so three distinct storages are required.
    EXPECT_EQ(statsOf(module).allocStorages, 3u);
}

TEST(WorkspaceLiftTest, Figure11LiftsSplitKWorkspace)
{
    // main calls a split-K matmul whose workspace is inside the kernel.
    auto module = IRModule::create();
    tir::PrimFunc splitk = op::makeSplitKMatmulFunc(
        "mm_split_k", {intImm(8), intImm(16)}, {intImm(16), intImm(8)}, 4,
        DataType::f32());
    GlobalVar gv = module->addTIRFunc(splitk);
    shape::BlockBuilder builder(module);
    Var x = makeVar("x", tensorSInfo({intImm(8), intImm(16)},
                                     DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(16), intImm(8)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(
        callTIR(gv, {x, w},
                tensorSInfo({intImm(8), intImm(8)}, DataType::f32())));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    wellFormed(module);

    module = workspaceLiftingPass().run(module);
    wellFormed(module);

    // The kernel now takes the workspace as a parameter...
    tir::PrimFunc lifted = module->getTIRFunc("mm_split_k");
    EXPECT_EQ(lifted->params.size(), 4u); // A, B, workspace, Y
    EXPECT_FALSE(tir::findGlobalWorkspace(lifted).has_value());
    EXPECT_EQ(lifted->attrs.at("lifted_workspace"), "1");

    // ...allocated at graph level right before the call (Fig. 11).
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    const auto& bindings = seq->blocks[0]->bindings;
    ASSERT_EQ(bindings.size(), 2u);
    EXPECT_TRUE(
        isOpCall(bindings[0].value, "relax.builtin.alloc_tensor"));
    EXPECT_TRUE(isOpCall(bindings[1].value, "relax.call_tir"));
    const auto* call =
        static_cast<const CallNode*>(bindings[1].value.get());
    // callee + A + B + workspace = 4 args.
    EXPECT_EQ(call->args.size(), 4u);
}

TEST(WorkspaceLiftTest, LiftsWorkspaceNestedInALoop)
{
    // for b in range(4):
    //   workspace = alloc_buffer((8), "f32", "global")
    //   for i in range(8): workspace[i] = A[b, i] * 2
    //   for i in range(8): Y[b, i] = workspace[i]
    tir::Buffer a = tir::makeBuffer("A", DataType::f32(),
                                    {intImm(4), intImm(8)});
    tir::Buffer y = tir::makeBuffer("Y", DataType::f32(),
                                    {intImm(4), intImm(8)});
    tir::Buffer ws = tir::makeBuffer("workspace", DataType::f32(),
                                     {intImm(8)});
    ::relax::Var b = var("b"), i = var("i"), j = var("j");
    tir::Stmt fill = tir::makeFor(
        i, intImm(8),
        tir::makeStore(ws, {i},
                       mul(tir::bufferLoad(a, {b, i}), floatImm(2.0))));
    tir::Stmt drain = tir::makeFor(
        j, intImm(8), tir::makeStore(y, {b, j}, tir::bufferLoad(ws, {j})));
    tir::Stmt body = tir::makeFor(
        b, intImm(4),
        tir::makeAllocBuffer(ws, "global", tir::makeSeq({fill, drain})));
    auto module = IRModule::create();
    GlobalVar gv =
        module->addTIRFunc(tir::makePrimFunc("scaled_copy", {a, y}, body));
    shape::BlockBuilder builder(module);
    Var x = makeVar("x", tensorSInfo({intImm(4), intImm(8)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(
        callTIR(gv, {x}, tensorSInfo({intImm(4), intImm(8)},
                                     DataType::f32())));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));

    module = workspaceLiftingPass().run(module);
    wellFormed(module);

    // The kernel reads the workspace it is passed, not a private copy.
    tir::PrimFunc lifted = module->getTIRFunc("scaled_copy");
    EXPECT_EQ(lifted->params.size(), 3u); // A, workspace, Y
    EXPECT_FALSE(tir::findGlobalWorkspace(lifted).has_value());
}

TEST(WorkspaceLiftTest, LiftedWorkspaceJoinsMemoryPlan)
{
    // After lifting, the workspace participates in storage reuse: it can
    // share the pool with equally-sized intermediates.
    auto module = IRModule::create();
    tir::PrimFunc splitk = op::makeSplitKMatmulFunc(
        "mm_split_k", {intImm(8), intImm(16)}, {intImm(16), intImm(8)}, 4,
        DataType::f32());
    GlobalVar gv = module->addTIRFunc(splitk);
    shape::BlockBuilder builder(module);
    Var x = makeVar("x", tensorSInfo({intImm(8), intImm(16)},
                                     DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(16), intImm(8)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Var mm = builder.emit(
        callTIR(gv, {x, w},
                tensorSInfo({intImm(8), intImm(8)}, DataType::f32())));
    Var out = builder.emitOutput(op::relu(mm));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    module = workspaceLiftingPass().run(module);
    module = lowerForPlanning(module);
    module = staticMemoryPlanPass().run(module);
    wellFormed(module);
    PlanStats stats = statsOf(module);
    // workspace (4*8*8 f32 = 1024B), mm out (256B), relu out (256B):
    // relu out reuses... workspace still live during mm, mm out live
    // until relu. Expect 3 tensors but <= 3 storages with reuse of the
    // mm-out-sized chunk.
    EXPECT_EQ(stats.allocTensors, 3u);
    EXPECT_LE(stats.allocStorages, 3u);
    EXPECT_EQ(module->getFunction("main")->attrs.at("static_plan"), "1");
}

TEST(GraphOffloadTest, WrapsStaticKernelRuns)
{
    auto module = buildFigure10Module();
    TargetInfo target;
    target.supportsExecutionGraphs = true;
    module = legalizeOpsPass().run(module);
    module = lowerCallTIRPass().run(module);
    module = staticMemoryPlanPass({{"n", 64}}).run(module);
    module = graphOffloadPass(target).run(module);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    size_t begins = 0, ends = 0;
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            begins += isOpCall(binding.value, "relax.vm.graph_begin");
            ends += isOpCall(binding.value, "relax.vm.graph_end");
        }
    }
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
}

TEST(GraphOffloadTest, SkipsDynamicPlans)
{
    auto module = buildFigure10Module();
    TargetInfo target;
    target.supportsExecutionGraphs = true;
    module = legalizeOpsPass().run(module);
    module = lowerCallTIRPass().run(module);
    module = staticMemoryPlanPass().run(module); // no bounds -> dynamic
    module = graphOffloadPass(target).run(module);
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            EXPECT_FALSE(isOpCall(binding.value, "relax.vm.graph_begin"));
        }
    }
}

} // namespace
} // namespace passes
} // namespace relax
