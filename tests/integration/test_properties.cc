/**
 * @file
 * Randomized property suites over the whole compiler:
 *  - fusion/planning/library toggles never change program results;
 *  - deduced symbolic shapes always agree with runtime shapes;
 *  - the memory planner never lets two simultaneously-live tensors share
 *    a storage.
 */
#include <gtest/gtest.h>

#include <random>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "ir/utils.h"
#include "passes/passes.h"
#include "op/ops.h"
#include "shape/block_builder.h"
#include "vm/vm.h"

namespace relax {
namespace integration {
namespace {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

std::shared_ptr<device::SimDevice>
hostDevice()
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(64) << 30;
    return std::make_shared<device::SimDevice>(spec);
}

/** Builds a random elementwise/matmul/reshape chain over (n, 8). */
IRModulePtr
randomChain(std::mt19937& rng, int length)
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(8)}, DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(8), intImm(8)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Expr cursor = x;
    std::uniform_int_distribution<int> pick(0, 6);
    for (int i = 0; i < length; ++i) {
        switch (pick(rng)) {
          case 0: cursor = builder.emit(op::relu(cursor)); break;
          case 1: cursor = builder.emit(op::exp(cursor)); break;
          case 2: cursor = builder.emit(op::add(cursor, cursor)); break;
          case 3: cursor = builder.emit(op::matmul(cursor, w)); break;
          case 4: cursor = builder.emit(op::softmax(cursor)); break;
          case 5:
            cursor = builder.emit(op::multiplyScalar(cursor, 0.5));
            break;
          default: cursor = builder.emit(op::sigmoid(cursor)); break;
        }
    }
    Var out = builder.emitOutput(op::add(cursor, x));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    return module;
}

class PipelinePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelinePropertyTest, OptimizationsPreserveSemantics)
{
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> len(2, 7);
    std::uniform_real_distribution<double> val(-1.0, 1.0);
    for (int trial = 0; trial < 4; ++trial) {
        int length = len(rng);
        unsigned chain_seed = rng();
        NDArray x = NDArray::zeros({3, 8}, DataType::f32());
        NDArray w = NDArray::zeros({8, 8}, DataType::f32());
        for (int64_t i = 0; i < x.numel(); ++i) x.set(i, val(rng));
        for (int64_t i = 0; i < w.numel(); ++i) w.set(i, val(rng));

        auto run = [&](bool fusion, bool planning, bool lib) {
            std::mt19937 chain_rng(chain_seed);
            auto module = randomChain(chain_rng, length);
            frontend::CompileOptions options;
            options.device = lib ? device::rtx4090() : hostDevice()->spec();
            options.enableFusion = fusion;
            options.enableMemoryPlanning = planning;
            options.enableLibraryLowering = lib;
            auto exec = frontend::compile(module, options);
            vm::VirtualMachine machine(exec, hostDevice(), true);
            return std::get<NDArray>(machine.invoke("main", {x, w}));
        };
        NDArray base = run(false, false, false);
        NDArray optimized = run(true, true, false);
        NDArray with_lib = run(true, true, true);
        ASSERT_EQ(base.shape(), optimized.shape());
        for (int64_t i = 0; i < base.numel(); ++i) {
            EXPECT_NEAR(base.at(i), optimized.at(i), 1e-9)
                << "seed=" << chain_seed << " i=" << i;
            EXPECT_NEAR(base.at(i), with_lib.at(i), 1e-9)
                << "seed=" << chain_seed << " i=" << i;
        }
    }
}

TEST_P(PipelinePropertyTest, DeducedShapesMatchRuntimeShapes)
{
    std::mt19937 rng(GetParam() + 500);
    std::uniform_int_distribution<int> len(2, 6);
    std::uniform_int_distribution<int64_t> rows(1, 9);
    for (int trial = 0; trial < 4; ++trial) {
        auto module = randomChain(rng, len(rng));
        // Deduce the symbolic output shape and compare against execution.
        Function main_fn = module->getFunction("main");
        const auto* out_info = asTensor(
            static_cast<const SeqExprNode*>(main_fn->body.get())
                ->body->structInfo());
        ASSERT_NE(out_info, nullptr);
        ASSERT_TRUE(out_info->shape.has_value());

        int64_t n_rows = rows(rng);
        frontend::CompileOptions options;
        options.device = hostDevice()->spec();
        auto exec = frontend::compile(module, options);
        vm::VirtualMachine machine(exec, hostDevice(), true);
        NDArray x = NDArray::zeros({n_rows, 8}, DataType::f32());
        NDArray w = NDArray::zeros({8, 8}, DataType::f32());
        NDArray out = std::get<NDArray>(machine.invoke("main", {x, w}));

        // Evaluate the symbolic dims with n bound to the runtime value.
        const auto* n_var = static_cast<const ::relax::VarNode*>(
            (*asTensor(main_fn->params[0]->structInfo())->shape)[0].get());
        VarBinding binding{{n_var, n_rows}};
        ASSERT_EQ(out.shape().size(), out_info->shape->size());
        for (size_t d = 0; d < out.shape().size(); ++d) {
            EXPECT_EQ(out.shape()[d],
                      evalInt((*out_info->shape)[d], binding))
                << "dim " << d;
        }
    }
}

TEST_P(PipelinePropertyTest, PlannerNeverAliasesLiveTensors)
{
    // Structural check on planned modules: walk the lowered bindings and
    // verify that between a tensor's instantiation from a storage and its
    // last use, no other tensor instantiates from the same storage.
    std::mt19937 rng(GetParam() + 900);
    std::uniform_int_distribution<int> len(3, 8);
    for (int trial = 0; trial < 5; ++trial) {
        auto module = randomChain(rng, len(rng));
        module = passes::legalizeOpsPass().run(module);
        module = passes::lowerCallTIRPass().run(module);
        module = passes::staticMemoryPlanPass().run(module);
        Function main_fn = module->getFunction("main");
        const auto* seq =
            static_cast<const SeqExprNode*>(main_fn->body.get());
        const auto& bindings = seq->blocks[0]->bindings;

        // tensor var -> storage var, and last-use indices.
        std::unordered_map<const VarNode*, const VarNode*> storage_of;
        std::unordered_map<const VarNode*, size_t> last_use;
        for (size_t i = 0; i < bindings.size(); ++i) {
            std::unordered_set<const VarNode*> used;
            collectVarUses(bindings[i].value, &used);
            for (const auto* v : used) last_use[v] = i;
        }
        std::unordered_map<const VarNode*, size_t> live_until; // by storage
        for (size_t i = 0; i < bindings.size(); ++i) {
            if (!isOpCall(bindings[i].value, "relax.memory.alloc_tensor")) {
                continue;
            }
            const auto* call =
                static_cast<const CallNode*>(bindings[i].value.get());
            const auto* storage =
                static_cast<const VarNode*>(call->args[0].get());
            auto it = live_until.find(storage);
            if (it != live_until.end()) {
                EXPECT_GE(i, it->second)
                    << "storage " << storage->name
                    << " reused while its previous tensor is live";
            }
            size_t death = last_use.count(bindings[i].var.get())
                               ? last_use[bindings[i].var.get()]
                               : i;
            live_until[storage] = death;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(IntegrationTest, WhisperShapedModuleCompilesEverywhere)
{
    // The Fig. 19 encoder-decoder configuration compiles for every device
    // in the catalog (the §5.3 universal-deployment claim, in miniature).
    frontend::LlamaConfig whisper;
    whisper.name = "whisper-mini";
    whisper.hiddenSize = 64;
    whisper.numLayers = 2;
    whisper.numHeads = 4;
    whisper.headDim = 16;
    whisper.ffnSize = 128;
    whisper.vocabSize = 128;
    whisper.maxContext = 64;
    for (const char* name : {"rtx4090", "m2ultra", "s24", "webgpu_m3max"}) {
        frontend::CompileOptions options;
        options.device = device::deviceByName(name);
        options.bounds = {{"b", 2}, {"n", 64}, {"m", 64}};
        auto exec =
            frontend::compile(frontend::buildDenseLlama(whisper), options);
        EXPECT_TRUE(exec->functions.count("prefill")) << name;
        EXPECT_TRUE(exec->functions.count("decode")) << name;
    }
}

} // namespace
} // namespace integration
} // namespace relax
