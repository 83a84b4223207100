/**
 * @file
 * ShardPass: Megatron splits on decode_ragged — column/row/vocab weight
 * division, per-shard KV pools, exactly two all-reduces per layer plus
 * one logits all-gather, full-shape results at the collective sites, and
 * clear errors for non-divisible or quantized models.
 */
#include <gtest/gtest.h>

#include <map>

#include "frontend/llama.h"
#include "passes/passes.h"

namespace relax {
namespace passes {
namespace {

using namespace ir;
using Var = ir::Var;
using CallNode = ir::CallNode;
using frontend::LlamaConfig;

/** Collects `name -> count` of call_dps_library callees in a function. */
std::map<std::string, int>
libraryCallCounts(const Function& func)
{
    std::map<std::string, int> counts;
    const auto* seq = static_cast<const SeqExprNode*>(func->body.get());
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            if (!isOpCall(binding.value, "relax.call_dps_library")) {
                continue;
            }
            const auto* call =
                static_cast<const CallNode*>(binding.value.get());
            const auto* callee =
                static_cast<const ExternFuncNode*>(call->args[0].get());
            ++counts[callee->name];
        }
    }
    return counts;
}

int64_t
literalDim(const StructInfo& sinfo, size_t dim)
{
    const auto* tensor = asTensor(sinfo);
    EXPECT_TRUE(tensor && tensor->shape);
    return *asIntImm((*tensor->shape)[dim]);
}

TEST(ShardPassTest, DividesWeightsPoolsAndInsertsCollectives)
{
    LlamaConfig config = LlamaConfig::tiny();
    // The serving function next to the dense pair: only decode_ragged
    // may be sharded.
    IRModulePtr module = frontend::buildDenseLlama(config);
    module->addFunction(
        "decode_ragged",
        frontend::buildLlama(config)->getFunction("decode_ragged"));
    module = shardPass(2).run(module);

    Function func = module->getFunction("decode_ragged");
    ASSERT_TRUE(func);

    // Per-shard parameter shapes: pools halve their head axis, column
    // weights halve dim 0, row weights halve dim 1, norms replicate.
    std::map<std::string, Var> params;
    for (const auto& p : func->params) params[p->name] = p;
    EXPECT_EQ(literalDim(params.at("k_pool0")->structInfo(), 1),
              config.numHeads / 2);
    EXPECT_EQ(literalDim(params.at("v_pool1")->structInfo(), 1),
              config.numHeads / 2);
    int64_t proj = config.numHeads * config.headDim;
    EXPECT_EQ(literalDim(params.at("l0_wq")->structInfo(), 0), proj / 2);
    EXPECT_EQ(literalDim(params.at("l0_wq")->structInfo(), 1),
              config.hiddenSize);
    EXPECT_EQ(literalDim(params.at("l0_wo")->structInfo(), 0),
              config.hiddenSize);
    EXPECT_EQ(literalDim(params.at("l0_wo")->structInfo(), 1), proj / 2);
    EXPECT_EQ(literalDim(params.at("l1_w_gate")->structInfo(), 0),
              config.ffnSize / 2);
    EXPECT_EQ(literalDim(params.at("l1_w_down")->structInfo(), 1),
              config.ffnSize / 2);
    EXPECT_EQ(literalDim(params.at("lm_head")->structInfo(), 0),
              config.vocabSize / 2);
    EXPECT_EQ(literalDim(params.at("l0_attn_norm")->structInfo(), 0),
              config.hiddenSize);
    EXPECT_EQ(literalDim(params.at("tok_embeddings")->structInfo(), 0),
              config.vocabSize);

    // The sharding contract: one all-reduce after wo and one after
    // w_down per layer, one logits all-gather for the whole function.
    std::map<std::string, int> calls = libraryCallCounts(func);
    EXPECT_EQ(calls["ccl.all_reduce"], 2 * (int)config.numLayers);
    EXPECT_EQ(calls["ccl.all_gather"], 1);
    EXPECT_EQ(calls["kv.append_ragged"], 2 * (int)config.numLayers);

    // Collective outputs carry FULL shapes: the function returns the
    // complete logits while the pool outputs stay shard-local.
    const auto* ret = asTuple(func->retSInfo);
    ASSERT_TRUE(ret);
    EXPECT_EQ(literalDim(ret->fields[0], 2), config.vocabSize);
    EXPECT_EQ(literalDim(ret->fields[1], 1), config.numHeads / 2);

    // The untouched functions keep their full shapes.
    Function decode = module->getFunction("decode");
    std::map<std::string, Var> decode_params;
    for (const auto& p : decode->params) decode_params[p->name] = p;
    EXPECT_EQ(literalDim(decode_params.at("l0_wq")->structInfo(), 0),
              proj);
}

TEST(ShardPassTest, SingleShardAndAbsentFunctionAreNoOps)
{
    IRModulePtr module = frontend::buildLlama(LlamaConfig::tiny());
    Function before = module->getFunction("decode_ragged");
    module = shardPass(1).run(module);
    EXPECT_EQ(module->getFunction("decode_ragged").get(), before.get());
    EXPECT_TRUE(libraryCallCounts(before).count("ccl.all_reduce") == 0);

    IRModulePtr empty = IRModule::create();
    EXPECT_NO_THROW(shardPass(4).run(empty));
}

TEST(ShardPassTest, IndivisibleHeadCountThrows)
{
    // tiny has 2 heads: proj = 8 divides by 4 but the head reshape does
    // not — the error must name the offending dimension.
    IRModulePtr module = frontend::buildLlama(LlamaConfig::tiny());
    try {
        shardPass(4).run(module);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("not divisible by 4"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardPassTest, QuantizedModelThrows)
{
    IRModulePtr module = frontend::buildLlama(
        LlamaConfig::tiny().withQuant(frontend::Quant::kQ4));
    try {
        shardPass(2).run(module);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("no tensor-parallel"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardWeightsTest, SlicesMatchTheMegatronLayout)
{
    // Slices follow the dims ShardPass divided in decode_ragged.
    LlamaConfig config = LlamaConfig::tiny();
    Function sharded =
        shardPass(2).run(frontend::buildLlama(config))->getFunction(
            "decode_ragged");
    std::vector<NDArray> full =
        frontend::makeLlamaWeights(config, /*with_data=*/true);
    std::vector<NDArray> s0 =
        frontend::shardLlamaWeights(sharded, full, 0, 2);
    std::vector<NDArray> s1 =
        frontend::shardLlamaWeights(sharded, full, 1, 2);
    ASSERT_EQ(s0.size(), full.size());

    std::vector<std::string> names;
    for (size_t i = sharded->params.size() - full.size();
         i < sharded->params.size(); ++i) {
        names.push_back(sharded->params[i]->name);
    }
    int64_t proj = config.numHeads * config.headDim;
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == "l0_wq") {
            // Column-parallel: shard 0 takes the first proj/2 rows.
            EXPECT_EQ(s0[i].shape()[0], proj / 2);
            EXPECT_EQ(s0[i].at(0), full[i].at(0));
            EXPECT_EQ(s1[i].at(0),
                      full[i].at(proj / 2 * config.hiddenSize));
        } else if (names[i] == "l0_wo") {
            // Row-parallel: shard 1 takes the second half of each row.
            EXPECT_EQ(s1[i].shape()[1], proj / 2);
            EXPECT_EQ(s1[i].at(0), full[i].at(proj / 2));
        } else if (names[i] == "final_norm") {
            // Replicated by handle.
            EXPECT_EQ(&s0[i].data(), &full[i].data());
        }
    }

    // Metadata-only weights slice shape-only (timing mode).
    std::vector<NDArray> meta =
        frontend::makeLlamaWeights(config, /*with_data=*/false);
    std::vector<NDArray> meta0 =
        frontend::shardLlamaWeights(sharded, meta, 0, 2);
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_FALSE(meta0[i].hasData());
    }

    // A shard count the compiled split does not divide into throws.
    try {
        frontend::shardLlamaWeights(sharded, full, 0, 3);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("not divisible"),
                  std::string::npos);
    }
}

} // namespace
} // namespace passes
} // namespace relax
