/**
 * @file
 * Reproduces the Figure 9 case study: a custom 4-bit quantization decode
 * written directly as a tensor program is classified Injective by
 * analysis feedback, fused with the consuming matmul by FuseOps, and
 * merged into a single fused_decode_q4_mm kernel by FuseTensorIR — the
 * cross-level capability traditional operator-level fusers lack.
 * Correctness of every stage is validated against the interpreter.
 */
#include <gtest/gtest.h>

#include "op/ops.h"
#include "op/tir_kernels.h"
#include "passes/passes.h"
#include "shape/block_builder.h"
#include "tir/analysis.h"
#include "tir/interpreter.h"

namespace relax {
namespace passes {
namespace {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

/** Builds the Fig. 9 initial program: decode_q4 (custom TIR) + matmul. */
IRModulePtr
buildDecodeMatmulModule(int64_t k_dim, int64_t n_out)
{
    auto module = IRModule::create();
    // Custom tensor program for the quantized decode.
    tir::PrimFunc decode = op::makeDecodeQ4Func(
        "decode_q4", intImm(k_dim), intImm(n_out), DataType::f32());
    GlobalVar decode_gv = module->addTIRFunc(decode);

    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(k_dim)}, DataType::f32()));
    Var wdata = makeVar(
        "Wdata", tensorSInfo({intImm(k_dim), intImm((n_out + 7) / 8)},
                             DataType::u32()));
    Var wscale = makeVar(
        "Wscale", tensorSInfo({intImm(k_dim), intImm((n_out + 31) / 32)},
                              DataType::f32()));
    builder.beginDataflowBlock();
    Var w = builder.emit(callTIR(
        decode_gv, {wdata, wscale},
        tensorSInfo({intImm(k_dim), intImm(n_out)}, DataType::f32())));
    Var out = builder.emitOutput(op::matmul(x, w));
    builder.endBlock();
    module->addFunction("main",
                        makeFunction({x, wdata, wscale},
                                     builder.finish(out),
                                     out->structInfo()));
    wellFormed(module);
    return module;
}

/** Runs main through the interpreter given lowered call_tir bindings. */
NDArray
evalMain(const IRModulePtr& module, const std::vector<NDArray>& inputs)
{
    Function main_fn = module->getFunction("main");
    const auto* seq = static_cast<const SeqExprNode*>(main_fn->body.get());
    std::unordered_map<const VarNode*, NDArray> env;
    for (size_t i = 0; i < inputs.size(); ++i) {
        env[main_fn->params[i].get()] = inputs[i];
    }
    VarBinding sym_env;
    // Bind function-level symbolic vars from input shapes.
    for (size_t i = 0; i < inputs.size(); ++i) {
        const auto* tensor = asTensor(main_fn->params[i]->structInfo());
        for (size_t d = 0; d < tensor->shape->size(); ++d) {
            if ((*tensor->shape)[d]->kind() == ExprKind::kVar) {
                sym_env[static_cast<const ::relax::VarNode*>(
                    (*tensor->shape)[d].get())] = inputs[i].shape()[d];
            }
        }
    }
    NDArray result;
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            RELAX_ICHECK(isOpCall(binding.value, "relax.call_tir"))
                << "evalMain expects call_tir bindings";
            const auto* call =
                static_cast<const CallNode*>(binding.value.get());
            const auto* gv =
                static_cast<const GlobalVarNode*>(call->args[0].get());
            tir::PrimFunc callee = module->getTIRFunc(gv->name);
            int64_t num_sym = 0;
            if (auto it = call->attrs.find("num_sym_args");
                it != call->attrs.end()) {
                num_sym = std::get<int64_t>(it->second);
            }
            std::vector<NDArray> args;
            for (size_t i = 1; i < call->args.size() - num_sym; ++i) {
                args.push_back(env.at(
                    static_cast<const VarNode*>(call->args[i].get())));
            }
            // Output allocation from the annotation.
            const auto* out_info = asTensor(call->sinfoArgs[0]);
            std::vector<int64_t> out_shape;
            for (const auto& dim : *out_info->shape) {
                out_shape.push_back(evalInt(dim, sym_env));
            }
            NDArray out = NDArray::zeros(out_shape, out_info->dtype);
            args.push_back(out);
            std::vector<int64_t> sym_args;
            for (size_t i = call->args.size() - num_sym;
                 i < call->args.size(); ++i) {
                const auto* pv = static_cast<const PrimValueNode*>(
                    call->args[i].get());
                sym_args.push_back(evalInt(pv->value, sym_env));
            }
            tir::run(callee, args, sym_args);
            env[binding.var.get()] = out;
            result = out;
        }
    }
    return result;
}

std::vector<NDArray>
makeDecodeInputs(int64_t rows, int64_t k_dim, int64_t n_out)
{
    NDArray x = NDArray::zeros({rows, k_dim}, DataType::f32());
    for (int64_t i = 0; i < x.numel(); ++i) {
        x.set(i, 0.25 * (double)((i * 7) % 5) - 0.5);
    }
    NDArray wdata = NDArray::zeros({k_dim, (n_out + 7) / 8},
                                   DataType::u32());
    for (int64_t i = 0; i < wdata.numel(); ++i) {
        uint64_t word = 0;
        for (uint64_t j = 0; j < 8; ++j) {
            word |= ((i * 31 + j * 5) % 16) << (4 * j);
        }
        wdata.set(i, (double)word);
    }
    NDArray wscale = NDArray::zeros({k_dim, (n_out + 31) / 32},
                                    DataType::f32());
    for (int64_t i = 0; i < wscale.numel(); ++i) {
        wscale.set(i, 0.5 + 0.125 * (double)(i % 3));
    }
    return {x, wdata, wscale};
}

TEST(FusionPipelineTest, Figure9DecodeMatmulFusion)
{
    const int64_t k_dim = 16, n_out = 32;
    auto module = buildDecodeMatmulModule(k_dim, n_out);

    // Stage 0 reference result (decode + matmul as separate kernels).
    module = legalizeOpsPass().run(module);
    auto inputs = makeDecodeInputs(/*rows=*/3, k_dim, n_out);
    NDArray reference = evalMain(module, inputs);

    // Compute pattern analysis classifies decode Injective, matmul OEF.
    module = annotateTIRPatternsPass().run(module);
    EXPECT_EQ(module->getTIRFunc("decode_q4")->attrs.at(
                  tir::kComputePatternAttr),
              "Injective");
    std::string mm_name;
    for (const auto& [name, func] : module->tirFuncs()) {
        if (name.rfind("matmul", 0) == 0) mm_name = name;
    }
    ASSERT_FALSE(mm_name.empty());
    EXPECT_EQ(module->getTIRFunc(mm_name)->attrs.at(
                  tir::kComputePatternAttr),
              "OutputEwiseFusible");

    // FuseOps groups them into a subgraph function.
    module = fuseOpsPass().run(module);
    wellFormed(module);
    Function fused;
    std::string fused_name;
    for (const auto& [name, func] : module->functions()) {
        if (func->attrs.count("primitive")) {
            fused = func;
            fused_name = name;
        }
    }
    ASSERT_NE(fused, nullptr) << "FuseOps did not create a subgraph";
    EXPECT_NE(fused_name.find("fused"), std::string::npos);
    EXPECT_NE(fused_name.find("decode_q4"), std::string::npos);

    // FuseTensorIR merges the two kernels and inlines the call.
    module = fuseTensorIRPass().run(module);
    wellFormed(module);
    EXPECT_EQ(module->getFunction(fused_name), nullptr);
    tir::PrimFunc merged = module->getTIRFunc(fused_name);
    ASSERT_NE(merged, nullptr);
    // No call_tir names the two merged programs any more: both are gone.
    EXPECT_EQ(module->getTIRFunc("decode_q4"), nullptr);
    EXPECT_EQ(module->getTIRFunc(mm_name), nullptr);
    EXPECT_EQ(module->tirFuncs().size(), 1u);
    // The merged kernel holds the intermediate decode output as a local
    // allocation (Fig. 9's alloc_buffer W).
    EXPECT_FALSE(tir::collectAllocations(merged->body).empty());

    // main now calls the merged kernel directly.
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    size_t call_count = 0;
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            EXPECT_TRUE(isOpCall(binding.value, "relax.call_tir"));
            ++call_count;
        }
    }
    EXPECT_EQ(call_count, 1u);

    // Fused execution matches the unfused reference bit-for-bit.
    NDArray fused_result = evalMain(module, inputs);
    EXPECT_EQ(fused_result.data(), reference.data());
}

TEST(FusionPipelineTest, Figure8AddReluFusionWithSymbolicParam)
{
    // flatten(x) -> add -> relu over (2n,): the fused function needs the
    // extra symbolic Shape parameter of Fig. 8.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(2)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::flatten(x));
    Var lv1 = builder.emit(op::add(lv0, lv0));
    Var out = builder.emitOutput(op::relu(lv1));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));

    module = legalizeOpsPass().run(module);
    module = annotateTIRPatternsPass().run(module);

    // Reference before fusion.
    NDArray input = NDArray::fromVector({3, 2}, DataType::f32(),
                                        {-1, 2, -3, 4, -5, 6});
    NDArray reference = evalMain(module, {input});

    module = fuseOpsPass().run(module);
    wellFormed(module);

    // One fused subgraph containing add + relu (flatten is injective and
    // may fuse in too); find it and check for a Shape param when needed.
    Function fused;
    for (const auto& [name, func] : module->functions()) {
        if (func->attrs.count("primitive")) fused = func;
    }
    ASSERT_NE(fused, nullptr);

    module = fuseTensorIRPass().run(module);
    wellFormed(module);
    NDArray fused_result = evalMain(module, {input});
    EXPECT_EQ(fused_result.data(), reference.data());
    // Expected values: relu(2 * flatten(x)).
    EXPECT_EQ(fused_result.data(),
              (std::vector<double>{0, 4, 0, 8, 0, 12}));
}

TEST(FusionPipelineTest, MatmulEpilogueFusion)
{
    // matmul + relu: the classic OutputEwiseFusible + ElementWise case.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(4), intImm(4)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Var mm = builder.emit(op::matmul(x, w));
    Var out = builder.emitOutput(op::relu(mm));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));

    module = legalizeOpsPass().run(module);
    module = annotateTIRPatternsPass().run(module);

    NDArray xv = NDArray::zeros({2, 4}, DataType::f32());
    NDArray wv = NDArray::zeros({4, 4}, DataType::f32());
    for (int64_t i = 0; i < 8; ++i) xv.set(i, (double)(i % 3) - 1.0);
    for (int64_t i = 0; i < 16; ++i) wv.set(i, (double)(i % 5) - 2.0);
    NDArray reference = evalMain(module, {xv, wv});

    module = fuseOpsPass().run(module);
    module = fuseTensorIRPass().run(module);
    wellFormed(module);
    // Exactly one kernel call remains.
    const auto* seq = static_cast<const SeqExprNode*>(
        module->getFunction("main")->body.get());
    size_t calls = 0;
    for (const auto& block : seq->blocks) calls += block->bindings.size();
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(evalMain(module, {xv, wv}).data(), reference.data());
}

TEST(FusionPipelineTest, TwoAnchorsDoNotFuse)
{
    // matmul -> matmul must stay two kernels (one anchor per group).
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var w1 = makeVar("w1", tensorSInfo({intImm(4), intImm(4)},
                                       DataType::f32()));
    Var w2 = makeVar("w2", tensorSInfo({intImm(4), intImm(4)},
                                       DataType::f32()));
    builder.beginDataflowBlock();
    Var mm1 = builder.emit(op::matmul(x, w1));
    Var out = builder.emitOutput(op::matmul(mm1, w2));
    builder.endBlock();
    module->addFunction(
        "main", makeFunction({x, w1, w2}, builder.finish(out),
                             out->structInfo()));
    module = legalizeOpsPass().run(module);
    module = annotateTIRPatternsPass().run(module);
    module = fuseOpsPass().run(module);
    for (const auto& [name, func] : module->functions()) {
        EXPECT_FALSE(func->attrs.count("primitive"))
            << "two matmuls must not fuse";
    }
}

} // namespace
} // namespace passes
} // namespace relax
