/**
 * @file
 * Bucketed execution-graph capture/replay tests: equivalence (the same
 * program produces bit-identical data-mode outputs with bucketed capture
 * on and off), counter-based hit-rate assertions for steady-state decode
 * (no wall-clock dependence), padded-pricing determinism (every shape
 * in a bucket is priced at the bucket ceiling on the virtual clock), and
 * per-VM ownership of captured graphs on a shared device.
 */
#include <gtest/gtest.h>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "op/ops.h"
#include "shape/block_builder.h"
#include "vm/vm.h"

namespace relax {
namespace vm {
namespace {

using namespace ir;
using Var = ir::Var;

/** x:(n,4) -> exp -> relu -> add(x), a 3-kernel graph region when
 *  compiled without fusion. */
ir::IRModulePtr
buildChain()
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));
    Var lv1 = builder.emit(op::relu(lv0));
    Var out = builder.emitOutput(op::add(lv1, x));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));
    return module;
}

/** A CPU-like data-capable device that also supports execution graphs,
 *  so data-mode runs exercise capture/replay. */
device::DeviceSpec
graphCapableHost()
{
    device::DeviceSpec spec;
    spec.name = "host-graphs";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(64) << 30;
    spec.supportsExecutionGraphs = true;
    return spec;
}

frontend::CompileOptions
chainOptions(int64_t bucket_tokens)
{
    frontend::CompileOptions options;
    options.device = graphCapableHost();
    options.bounds = {{"n", 64}};      // static plan enables capture
    options.enableFusion = false;      // keep a multi-kernel region
    options.graphBucketTokens = bucket_tokens;
    return options;
}

TEST(GraphReplayTest, BucketedCaptureMatchesExactExecution)
{
    // The padding-correctness invariant, observed end to end: for every
    // shape in a bucket, the bucketed executable must produce exactly
    // the bytes the exact-signature executable produces.
    auto bucketed_dev = std::make_shared<device::SimDevice>(graphCapableHost());
    auto exact_dev = std::make_shared<device::SimDevice>(graphCapableHost());
    VirtualMachine bucketed(frontend::compile(buildChain(), chainOptions(16)),
                            bucketed_dev, /*data_mode=*/true);
    VirtualMachine exact(frontend::compile(buildChain(), chainOptions(1)),
                         exact_dev, /*data_mode=*/true);

    int64_t regions = -1; // graph regions per invoke (shape-independent)
    for (int64_t rows : {3, 5, 9, 16, 17, 31}) {
        NDArray x = NDArray::zeros({rows, 4}, DataType::f32());
        for (int64_t i = 0; i < x.numel(); ++i) {
            x.set(i, 0.25 * (double)(i % 11) - 1.0);
        }
        NDArray a = std::get<NDArray>(bucketed.invoke("main", {x}));
        NDArray b = std::get<NDArray>(exact.invoke("main", {x}));
        if (regions < 0) {
            regions = bucketed.lastRunStats().graphBegins;
            ASSERT_GT(regions, 0) << "no capturable graph region compiled";
        }
        ASSERT_EQ(a.shape(), b.shape()) << "rows=" << rows;
        EXPECT_EQ(a.data(), b.data()) << "rows=" << rows;
    }

    // Counter-based replay accounting against the bucket ceilings
    // (next block multiple, or next power of two when smaller):
    // 3 -> 4, 5 -> 8, 9 and 16 -> 16, 17 and 31 -> 32. Four fresh
    // buckets capture; 16 and 31 replay.
    EXPECT_EQ(bucketed.graphStats().begins, 6 * regions);
    EXPECT_EQ(bucketed.graphStats().captures, 4 * regions);
    EXPECT_EQ(bucketed.graphStats().replays, 2 * regions);
    // Exact signatures never coincide across distinct shapes: no replays.
    EXPECT_EQ(exact.graphStats().begins, 6 * regions);
    EXPECT_EQ(exact.graphStats().captures, 6 * regions);
    EXPECT_EQ(exact.graphStats().replays, 0);
}

TEST(GraphReplayTest, BucketPricesAtCeilingDeterministically)
{
    // Every shape within one bucket (rows 9..16 -> ceiling 16) executes
    // the same padded graph, so the virtual clock must charge the same
    // latency for each of them (first capture excluded). No libraries on
    // this host device, so every kernel is generated and priced through
    // the padded binding.
    auto dev = std::make_shared<device::SimDevice>(graphCapableHost());
    VirtualMachine machine(frontend::compile(buildChain(), chainOptions(16)),
                           dev, /*data_mode=*/false);
    machine.invoke("main", {NDArray::metaOnly({9, 4}, DataType::f32())});
    double replay_latency = -1.0;
    for (int64_t rows : {10, 12, 14, 16}) {
        machine.invoke("main",
                       {NDArray::metaOnly({rows, 4}, DataType::f32())});
        EXPECT_EQ(machine.lastRunStats().graphCaptures, 0)
            << "rows=" << rows;
        EXPECT_GT(machine.lastRunStats().graphReplays, 0)
            << "rows=" << rows;
        if (replay_latency < 0) {
            replay_latency = machine.lastRunStats().latencyUs;
        } else {
            EXPECT_DOUBLE_EQ(machine.lastRunStats().latencyUs,
                             replay_latency)
                << "rows=" << rows;
        }
    }
}

/** x:(n,8) @ w:(8,8) -> add(x): a library GEMM (symbolic row count
 *  dispatches to cublas) followed by a generated kernel — one region. */
ir::IRModulePtr
buildLibChain()
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(8)}, DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(8), intImm(8)},
                                     DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::matmul(x, w));
    Var out = builder.emitOutput(op::add(lv0, x));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    return module;
}

TEST(GraphReplayTest, LibraryKernelsPriceAtPaddedBindingInsideRegions)
{
    // The padding-correctness invariant for library callees: inside a
    // bucketed region every kernel conceptually launches at the bucket
    // ceiling, so a cublas GEMM must be priced at the padded shapes —
    // its live-shape cost would be cheaper (the PR-3 bounded optimism
    // this closes). Every shape in the 9..16 bucket must therefore
    // charge exactly what the ceiling shape n=16 charges.
    device::DeviceSpec spec = graphCapableHost();
    spec.backend = "cuda";
    spec.hasGemmLibrary = true;
    frontend::CompileOptions options;
    options.device = spec;
    options.bounds = {{"n", 64}};
    options.enableFusion = false;
    options.graphBucketTokens = 16;
    auto exec = frontend::compile(buildLibChain(), options);
    ASSERT_NE(toString(exec->functions.at("main")).find("[lib]"),
              std::string::npos)
        << "matmul did not dispatch to the library";

    auto dev = std::make_shared<device::SimDevice>(spec);
    VirtualMachine machine(exec, dev, /*data_mode=*/false);
    auto invoke = [&](int64_t rows) {
        machine.invoke("main",
                       {NDArray::metaOnly({rows, 8}, DataType::f32()),
                        NDArray::metaOnly({8, 8}, DataType::f32())});
        return machine.lastRunStats();
    };

    invoke(16); // capture the 9..16 bucket at its ceiling
    double ceiling_latency = invoke(16).latencyUs; // replay at the ceiling
    ASSERT_GT(machine.lastRunStats().graphReplays, 0);
    for (int64_t rows : {9, 11, 13, 15}) {
        RunStats stats = invoke(rows);
        EXPECT_EQ(stats.graphCaptures, 0) << "rows=" << rows;
        EXPECT_GT(stats.graphReplays, 0) << "rows=" << rows;
        EXPECT_DOUBLE_EQ(stats.latencyUs, ceiling_latency)
            << "rows=" << rows;
    }
}

/** Decode-step arguments for a tiny Llama (metadata-only, timing mode). */
std::vector<Value>
tinyDecodeArgs(const frontend::LlamaConfig& config, int64_t batch,
               int64_t ctx)
{
    std::vector<Value> args;
    args.emplace_back(NDArray::metaOnly({batch, 1}, DataType::i64()));
    for (int64_t layer = 0; layer < config.numLayers; ++layer) {
        for (int kv = 0; kv < 2; ++kv) {
            args.emplace_back(NDArray::metaOnly(
                {batch, config.numHeads, ctx, config.headDim},
                DataType::f16()));
        }
    }
    for (auto& w :
         frontend::makeLlamaWeights(config, /*with_data=*/false)) {
        args.emplace_back(std::move(w));
    }
    return args;
}

TEST(GraphReplayTest, SteadyStateDecodeReportsReplayHits)
{
    // The serving decode pattern: the context length m grows by one every
    // step. With the signature bucketed to the KV block size, only the
    // step that crosses a block boundary captures; every other step is a
    // replay hit. Counter-based — no wall-clock assertions.
    const int64_t block = 16;
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = graphCapableHost();
    options.bounds = {{"b", 4}, {"n", 32}, {"m", 64}};
    options.graphBucketTokens = block;
    auto exec = frontend::compile(frontend::buildDenseLlama(config), options);
    auto dev = std::make_shared<device::SimDevice>(options.device);
    VirtualMachine machine(exec, dev, /*data_mode=*/false);

    // Warm the first bucket.
    machine.invoke("decode", tinyDecodeArgs(config, 2, 17));
    ASSERT_GT(machine.lastRunStats().graphBegins, 0)
        << "decode compiled without a capturable graph region";
    EXPECT_EQ(machine.lastRunStats().graphReplays, 0);

    int64_t boundary_crossings = 0;
    for (int64_t m = 18; m <= 48; ++m) {
        machine.invoke("decode", tinyDecodeArgs(config, 2, m));
        const RunStats& stats = machine.lastRunStats();
        if ((m - 1) / block != (m - 1 - 1) / block) {
            // First step inside a fresh bucket: captures, no hits.
            EXPECT_EQ(stats.graphReplays, 0) << "m=" << m;
            EXPECT_EQ(stats.graphCaptures, stats.graphBegins) << "m=" << m;
            ++boundary_crossings;
        } else {
            // Steady state: every graph region replays.
            EXPECT_EQ(stats.graphCaptures, 0) << "m=" << m;
            EXPECT_EQ(stats.graphReplays, stats.graphBegins) << "m=" << m;
        }
    }
    // Buckets are ceil(m/16)*16: m=17..32 -> 32, m=33..48 -> 48. The one
    // boundary crossing in 18..48 is m=33.
    EXPECT_EQ(boundary_crossings, 1);
    EXPECT_GE(machine.graphStats().hitRate(), 0.8);
}

TEST(GraphReplayTest, EachVMReplaysOnlyGraphsItCaptured)
{
    // Two VMs run one executable on one shared device. A VM owns the
    // graphs it captured, so the second VM's first call captures its own
    // (paying the instantiation again) instead of replaying the first
    // VM's; then each replays its own.
    auto dev = std::make_shared<device::SimDevice>(graphCapableHost());
    ExecutablePtr exec = frontend::compile(buildChain(), chainOptions(16));
    VirtualMachine first(exec, dev, /*data_mode=*/false);
    VirtualMachine second(exec, dev, /*data_mode=*/false);
    std::vector<Value> args{NDArray::metaOnly({9, 4}, DataType::f32())};
    first.invoke("main", args);
    ASSERT_GT(first.lastRunStats().graphCaptures, 0);
    second.invoke("main", args);
    EXPECT_EQ(second.lastRunStats().graphCaptures,
              first.lastRunStats().graphCaptures);
    EXPECT_EQ(second.lastRunStats().graphReplays, 0);
    EXPECT_DOUBLE_EQ(second.lastRunStats().latencyUs,
                     first.lastRunStats().latencyUs);
    for (VirtualMachine* machine : {&first, &second}) {
        machine->invoke("main", args);
        EXPECT_EQ(machine->lastRunStats().graphCaptures, 0);
        EXPECT_GT(machine->lastRunStats().graphReplays, 0);
        EXPECT_EQ(machine->graphStats().captures,
                  machine->graphStats().replays);
    }
}

TEST(GraphReplayTest, ExactSignaturesNeverReplayGrowingDecode)
{
    // Control: without bucketing, the growing context length makes every
    // decode step a fresh signature — replay never engages, which is the
    // serving-path gap this PR closes.
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = graphCapableHost();
    options.bounds = {{"b", 4}, {"n", 32}, {"m", 64}};
    options.graphBucketTokens = 1;
    auto exec = frontend::compile(frontend::buildDenseLlama(config), options);
    auto dev = std::make_shared<device::SimDevice>(options.device);
    VirtualMachine machine(exec, dev, /*data_mode=*/false);
    for (int64_t m = 17; m <= 32; ++m) {
        machine.invoke("decode", tinyDecodeArgs(config, 2, m));
    }
    EXPECT_GT(machine.graphStats().begins, 0);
    EXPECT_EQ(machine.graphStats().replays, 0);
}

} // namespace
} // namespace vm
} // namespace relax
