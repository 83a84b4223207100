/**
 * @file
 * Tensor-parallel serving tests: the sharding contract of DESIGN.md §10.
 * A tp=N engine must emit token-for-token what the tp=1 engine emits on
 * the same trace (scheduling state is kept in logical full-model bytes,
 * so admission/eviction decisions are bit-identical and the only numeric
 * difference is f64 reassociation at the reduce sites — invisible to
 * greedy argmax), while `decodeBatches == steps` survives sharding and
 * the ring collectives are genuinely priced on the group clock.
 */
#include <gtest/gtest.h>

#include "serve/engine.h"

namespace relax {
namespace serve {
namespace {

using frontend::LlamaConfig;

frontend::CompileOptions
hostOptions(int64_t vram = int64_t(8) << 30)
{
    frontend::CompileOptions options;
    options.device.name = "host";
    options.device.backend = "cpu";
    options.device.vramBytes = vram;
    return options;
}

/** tiny() has numHeads == 2; tp=4 needs a width-4-divisible model. */
LlamaConfig
tiny4()
{
    LlamaConfig config = LlamaConfig::tiny();
    config.name = "tiny4";
    config.hiddenSize = 16;
    config.numLayers = 2;
    config.numHeads = 4;
    config.headDim = 4;
    config.ffnSize = 32;
    config.vocabSize = 64;
    config.maxContext = 64;
    return config;
}

std::vector<FinishedRequest>
runTrace(const LlamaConfig& config, int64_t tp, EngineStats* stats_out,
         Engine** engine_out = nullptr,
         std::unique_ptr<Engine>* keep_alive = nullptr)
{
    std::vector<std::vector<int64_t>> prompts = {
        {3, 1, 4, 1, 5, 9, 2}, {2, 7}, {6, 1, 8, 3, 1}, {4, 4, 4}};
    EngineOptions options;
    options.tensorParallel = tp;
    auto engine =
        Engine::build(config, hostOptions(), /*data_mode=*/true, options);
    for (const auto& prompt : prompts) engine->addRequest(prompt, 6);
    *stats_out = engine->run();
    auto results = engine->collect();
    if (engine_out) *engine_out = engine.get();
    if (keep_alive) *keep_alive = std::move(engine);
    return results;
}

TEST(TensorParallelTest, ShardedTokensMatchSingleDevice)
{
    // The TP oracle: for each model, tp=1 vs tp=N on the identical trace
    // — same requests, same tokens, decodeBatches == steps at every N.
    struct Case
    {
        LlamaConfig config;
        int64_t tp;
    };
    std::vector<Case> cases = {{LlamaConfig::tiny(), 2},
                               {tiny4(), 2},
                               {tiny4(), 4}};
    for (const auto& c : cases) {
        EngineStats base_stats;
        auto base = runTrace(c.config, 1, &base_stats);
        EngineStats tp_stats;
        Engine* engine = nullptr;
        std::unique_ptr<Engine> keep;
        auto sharded = runTrace(c.config, c.tp, &tp_stats, &engine, &keep);

        ASSERT_EQ(sharded.size(), base.size());
        for (size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(sharded[i].outputTokens, base[i].outputTokens)
                << c.config.name << " tp=" << c.tp << " request " << i;
        }
        // One packed call per step on every shard, in lockstep.
        EXPECT_EQ(tp_stats.decodeBatches, tp_stats.steps);
        EXPECT_EQ(tp_stats.steps, base_stats.steps);

        // The collectives are real: two all_reduces per layer plus the
        // logits all_gather, on every packed call (prefill included).
        ASSERT_NE(engine->deviceGroup(), nullptr);
        EXPECT_EQ(engine->tensorParallel(), (int)c.tp);
        int64_t per_call = 2 * c.config.numLayers + 1;
        EXPECT_EQ(engine->deviceGroup()->collectiveCount(),
                  tp_stats.steps * per_call);
        EXPECT_GT(engine->deviceGroup()->collectiveUs(), 0.0);
        EXPECT_GT(engine->deviceGroup()->collectiveBytes(), 0);
    }
}

TEST(TensorParallelTest, SingleDeviceEngineIsAOneDeviceGroup)
{
    // tp=1 takes the sharded engine's call path over a group of one:
    // the group is always there, and its only device is the one the
    // engine's VM, clock and trace run on.
    auto engine = Engine::build(LlamaConfig::tiny(), hostOptions(),
                                /*data_mode=*/true);
    ASSERT_NE(engine->deviceGroup(), nullptr);
    EXPECT_EQ(engine->deviceGroup()->size(), 1);
    EXPECT_EQ(engine->tensorParallel(), 1);
    EXPECT_EQ(&engine->deviceGroup()->device(0), &engine->machine().dev());
}

TEST(TensorParallelTest, PerDeviceGaugesCoverEveryShard)
{
    EngineStats stats;
    Engine* engine = nullptr;
    std::unique_ptr<Engine> keep;
    runTrace(LlamaConfig::tiny(), 2, &stats, &engine, &keep);

    for (int i = 0; i < 2; ++i) {
        std::string prefix = "device." + std::to_string(i) + ".";
        const auto& gauges = engine->metrics().gauges();
        auto alloc = gauges.find(prefix + "alloc_bytes");
        auto peak = gauges.find(prefix + "peak_bytes");
        ASSERT_NE(alloc, gauges.end()) << prefix;
        ASSERT_NE(peak, gauges.end()) << prefix;
        EXPECT_EQ(alloc->second.samples(), stats.steps);
        // Every shard holds its slice of the KV pool persistently.
        EXPECT_GT(alloc->second.last(), 0.0);
        EXPECT_GE(peak->second.last(), alloc->second.last());
    }
    // tp=1 engines emit the same lanes for device 0 only.
    EngineStats solo_stats;
    Engine* solo = nullptr;
    std::unique_ptr<Engine> solo_keep;
    runTrace(LlamaConfig::tiny(), 1, &solo_stats, &solo, &solo_keep);
    const auto& gauges = solo->metrics().gauges();
    EXPECT_NE(gauges.find("device.0.alloc_bytes"), gauges.end());
    EXPECT_EQ(gauges.find("device.1.alloc_bytes"), gauges.end());
}

TEST(TensorParallelTest, TimingModeShardsFasterThanSingleDevice)
{
    // The perf contract on a compute-heavy config: tp=4 finishes the
    // same trace in under half the single-device wall-clock. tiny() is
    // launch-overhead-bound, so use an 8-layer llama3-8b-dims variant
    // in timing mode (metaOnly weights, no data).
    LlamaConfig config = LlamaConfig::llama3_8b();
    config.name = "llama3-8b-8l";
    config.numLayers = 8;
    config.maxContext = 512;

    auto runUs = [&](int64_t tp) {
        EngineOptions options;
        options.tensorParallel = tp;
        auto engine = Engine::build(config, hostOptions(int64_t(80) << 30),
                                    /*data_mode=*/false, options);
        for (int i = 0; i < 8; ++i) {
            engine->addRequest(std::vector<int64_t>(64, 3), 32);
        }
        return engine->run().busyUs;
    };
    double tp1 = runUs(1);
    double tp4 = runUs(4);
    EXPECT_LT(tp4 * 2.0, tp1) << "tp4=" << tp4 << "us tp1=" << tp1 << "us";
}

} // namespace
} // namespace serve
} // namespace relax
