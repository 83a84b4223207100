/**
 * @file
 * End-to-end model tests: the tiny Llama variant's dense pair compiles
 * through the full pipeline and executes correctly on real data; prefill
 * and decode are consistent; quantized models exercise the Fig. 9
 * fusion; optimization toggles preserve results; and the serving
 * function and the dense pair take one weight list.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "vm/vm.h"

namespace relax {
namespace frontend {
namespace {

using vm::Value;

std::shared_ptr<device::SimDevice>
hostDevice()
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(64) << 30;
    return std::make_shared<device::SimDevice>(spec);
}

std::vector<Value>
toValues(const NDArray& ids, const std::vector<NDArray>& caches,
         const std::vector<NDArray>& weights)
{
    std::vector<Value> args{ids};
    for (const auto& c : caches) args.emplace_back(c);
    for (const auto& w : weights) args.emplace_back(w);
    return args;
}

struct StepResult
{
    NDArray logits;
    std::vector<NDArray> caches;
};

StepResult
unpack(const Value& value, int64_t num_layers)
{
    StepResult result;
    auto tuple = std::get<vm::TupleValuePtr>(value);
    result.logits = std::get<NDArray>(tuple->fields[0]);
    for (int64_t i = 0; i < 2 * num_layers; ++i) {
        result.caches.push_back(std::get<NDArray>(tuple->fields[1 + i]));
    }
    return result;
}

TEST(LlamaTest, TinyModelPrefillsAndDecodes)
{
    LlamaConfig config = LlamaConfig::tiny();
    auto module = buildDenseLlama(config);
    CompileOptions options;
    options.device = hostDevice()->spec();
    auto exec = compile(module, options);
    vm::VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);
    auto weights = makeLlamaWeights(config, /*with_data=*/true);

    // Prefill 3 tokens (batch 1).
    NDArray ids = NDArray::fromVector({1, 3}, DataType::i64(), {1, 2, 3});
    Value prefill_out = machine.invoke("prefill", toValues(ids, {}, weights));
    StepResult prefill = unpack(prefill_out, config.numLayers);
    EXPECT_EQ(prefill.logits.shape(),
              (std::vector<int64_t>{1, 3, config.vocabSize}));
    EXPECT_EQ(prefill.caches[0].shape(),
              (std::vector<int64_t>{1, config.numHeads, 3,
                                    config.headDim}));

    // Decode one token with the produced caches: m grows to 4.
    NDArray next = NDArray::fromVector({1, 1}, DataType::i64(), {4});
    Value decode_out =
        machine.invoke("decode", toValues(next, prefill.caches, weights));
    StepResult decode = unpack(decode_out, config.numLayers);
    EXPECT_EQ(decode.logits.shape(),
              (std::vector<int64_t>{1, 1, config.vocabSize}));
    EXPECT_EQ(decode.caches[0].shape()[2], 4);

    // Logits are finite (sanity on the numerics).
    for (int64_t i = 0; i < decode.logits.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(decode.logits.at(i)));
    }
}

TEST(LlamaTest, DecodeMatchesPrefillLastPosition)
{
    // Decoding token t with cache(prefix) must equal prefilling the full
    // prefix+t at the last position — KV-cache correctness.
    LlamaConfig config = LlamaConfig::tiny();
    CompileOptions options;
    options.device = hostDevice()->spec();
    auto exec = compile(buildDenseLlama(config), options);
    vm::VirtualMachine machine(exec, hostDevice(), true);
    auto weights = makeLlamaWeights(config, true);

    NDArray prefix = NDArray::fromVector({1, 2}, DataType::i64(), {5, 9});
    StepResult first =
        unpack(machine.invoke("prefill", toValues(prefix, {}, weights)),
               config.numLayers);
    NDArray next = NDArray::fromVector({1, 1}, DataType::i64(), {7});
    StepResult stepped =
        unpack(machine.invoke("decode", toValues(next, first.caches,
                                                 weights)),
               config.numLayers);

    NDArray full = NDArray::fromVector({1, 3}, DataType::i64(), {5, 9, 7});
    StepResult reference =
        unpack(machine.invoke("prefill", toValues(full, {}, weights)),
               config.numLayers);

    for (int64_t v = 0; v < config.vocabSize; ++v) {
        double decoded = stepped.logits.at(v); // [0, 0, v]
        double prefilled =
            reference.logits.at(2 * config.vocabSize + v); // [0, 2, v]
        EXPECT_NEAR(decoded, prefilled, 1e-9) << "vocab " << v;
    }
}

TEST(LlamaTest, BatchedDecodeWorks)
{
    LlamaConfig config = LlamaConfig::tiny();
    CompileOptions options;
    options.device = hostDevice()->spec();
    auto exec = compile(buildDenseLlama(config), options);
    vm::VirtualMachine machine(exec, hostDevice(), true);
    auto weights = makeLlamaWeights(config, true);

    // Batch 2 prefill then decode: both dynamic dims (b, n/m) exercised.
    NDArray ids = NDArray::fromVector({2, 2}, DataType::i64(),
                                      {1, 2, 3, 4});
    StepResult prefill =
        unpack(machine.invoke("prefill", toValues(ids, {}, weights)),
               config.numLayers);
    NDArray next = NDArray::fromVector({2, 1}, DataType::i64(), {5, 6});
    StepResult decode =
        unpack(machine.invoke("decode", toValues(next, prefill.caches,
                                                 weights)),
               config.numLayers);
    EXPECT_EQ(decode.logits.shape(),
              (std::vector<int64_t>{2, 1, config.vocabSize}));
}

TEST(LlamaTest, QuantizedModelFusesDecodeIntoMatmul)
{
    LlamaConfig config = LlamaConfig::tiny().withQuant(Quant::kQ4);
    // Use dims compatible with q4 packing (multiples of 8).
    config.hiddenSize = 8;
    config.ffnSize = 16;
    auto module = buildDenseLlama(config);
    CompileOptions options;
    options.device = hostDevice()->spec();
    auto exec = compile(module, options);
    // Every decode_q4 kernel is gone as a standalone launch: fused into
    // its consumer matmul (Fig. 9 at model scale).
    bool has_fused = false;
    for (const auto& [name, func] : exec->module->tirFuncs()) {
        if (name.find("fused") != std::string::npos &&
            name.find("decode_q4") != std::string::npos) {
            has_fused = true;
        }
    }
    EXPECT_TRUE(has_fused);

    // And it still runs.
    vm::VirtualMachine machine(exec, hostDevice(), true);
    auto weights = makeLlamaWeights(config, true);
    NDArray ids = NDArray::fromVector({1, 2}, DataType::i64(), {1, 2});
    Value out = machine.invoke("prefill", toValues(ids, {}, weights));
    StepResult result = unpack(out, config.numLayers);
    for (int64_t i = 0; i < result.logits.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(result.logits.at(i)));
    }
}

TEST(LlamaTest, OptimizationTogglesPreserveResults)
{
    LlamaConfig config = LlamaConfig::tiny();
    auto weights = makeLlamaWeights(config, true);
    NDArray ids = NDArray::fromVector({1, 2}, DataType::i64(), {3, 1});

    auto run = [&](bool fusion, bool planning) {
        CompileOptions options;
        options.device = hostDevice()->spec();
        options.enableFusion = fusion;
        options.enableMemoryPlanning = planning;
        auto exec = compile(buildDenseLlama(config), options);
        vm::VirtualMachine machine(exec, hostDevice(), true);
        return unpack(machine.invoke("prefill",
                                     toValues(ids, {}, weights)),
                      config.numLayers)
            .logits;
    };
    NDArray base = run(true, true);
    NDArray no_fusion = run(false, true);
    NDArray no_planning = run(true, false);
    for (int64_t i = 0; i < base.numel(); ++i) {
        EXPECT_NEAR(base.at(i), no_fusion.at(i), 1e-9);
        EXPECT_NEAR(base.at(i), no_planning.at(i), 1e-9);
    }
}

TEST(LlamaTest, ServingFunctionAndDensePairShareOneWeightList)
{
    // makeLlamaWeights reads decode_ragged's weights; the figure harness
    // and the sequential oracles pass that list to the dense pair. So
    // all three functions must end in the same weight parameters (name,
    // shape, dtype, order), right after their last data input.
    for (const LlamaConfig& config :
         {LlamaConfig::tiny(), LlamaConfig::tiny().withQuant(Quant::kQ4),
          LlamaConfig::llama3_8b()}) {
        std::vector<NDArray> weights =
            makeLlamaWeights(config, /*with_data=*/false);
        ir::Function ragged =
            buildLlama(config)->getFunction("decode_ragged");
        ir::IRModulePtr dense = buildDenseLlama(config);
        std::string last_layer = std::to_string(config.numLayers - 1);
        size_t ragged_first = ragged->params.size() - weights.size();
        for (const auto& [fn, last_input] :
             std::vector<std::pair<ir::Function, std::string>>{
                 {ragged, "v_pool" + last_layer},
                 {dense->getFunction("prefill"), "ids"},
                 {dense->getFunction("decode"), "v_cache" + last_layer}}) {
            ASSERT_GT(fn->params.size(), weights.size()) << config.name;
            size_t first = fn->params.size() - weights.size();
            EXPECT_EQ(fn->params[first - 1]->name, last_input)
                << config.name;
            for (size_t i = 0; i < weights.size(); ++i) {
                const ir::Var& param = fn->params[first + i];
                EXPECT_EQ(param->name, ragged->params[ragged_first + i]->name)
                    << config.name << " weight " << i;
                const auto* tensor = ir::asTensor(param->structInfo());
                ASSERT_TRUE(tensor && tensor->shape) << param->name;
                std::vector<int64_t> shape;
                for (const auto& dim : *tensor->shape) {
                    shape.push_back(*asIntImm(dim));
                }
                EXPECT_EQ(shape, weights[i].shape()) << param->name;
                EXPECT_EQ(tensor->dtype, weights[i].dtype()) << param->name;
            }
        }
    }
}

TEST(LlamaTest, ConfigsReportPlausibleWeightSizes)
{
    // Llama3-8B fp16 ~ 16 GB; q4 ~ 4.5 GB.
    double fp16_gb = (double)LlamaConfig::llama3_8b().weightBytes() / 1e9;
    EXPECT_GT(fp16_gb, 13.0);
    EXPECT_LT(fp16_gb, 18.0);
    double q4_gb = (double)LlamaConfig::llama3_8b()
                       .withQuant(Quant::kQ4)
                       .weightBytes() /
                   1e9;
    EXPECT_GT(q4_gb, 3.5);
    EXPECT_LT(q4_gb, 6.0);
}

} // namespace
} // namespace frontend
} // namespace relax
