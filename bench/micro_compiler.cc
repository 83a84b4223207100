/**
 * @file
 * google-benchmark micro measurements of compiler infrastructure: forward
 * shape deduction, canonical simplification / equality proof, and the
 * full pipeline on a transformer module — the "deduction runs for every
 * pass" efficiency concern of §4.1 — plus the host clock of serving: one
 * timing-mode decode step through the VM, and one serving engine build.
 */
#include <benchmark/benchmark.h>

#include "arith/analyzer.h"
#include "frontend/compile.h"
#include "frontend/llama.h"
#include "op/ops.h"
#include "serve/engine.h"
#include "shape/block_builder.h"
#include "vm/vm.h"

namespace {

using namespace relax;

void
BM_SimplifyPolynomial(benchmark::State& state)
{
    Var n = var("n");
    Var m = var("m");
    PrimExpr e = mul(add(mul(n, intImm(4)), m), sub(mul(m, intImm(2)), n));
    Analyzer analyzer;
    for (auto _ : state) {
        benchmark::DoNotOptimize(analyzer.simplify(e));
    }
}
BENCHMARK(BM_SimplifyPolynomial);

void
BM_ProveEqual(benchmark::State& state)
{
    Var n = var("n");
    PrimExpr a = mul(mul(n, intImm(2)), intImm(2));
    PrimExpr b = mul(intImm(4), n);
    Analyzer analyzer;
    for (auto _ : state) {
        benchmark::DoNotOptimize(analyzer.proveEqual(a, b));
    }
}
BENCHMARK(BM_ProveEqual);

void
BM_ForwardDeduction(benchmark::State& state)
{
    auto module = ir::IRModule::create();
    Var n = var("n");
    ir::Var x = ir::makeVar(
        "x", ir::tensorSInfo({PrimExpr(n), intImm(128)}, DataType::f32()));
    ir::Var w = ir::makeVar(
        "w", ir::tensorSInfo({intImm(128), intImm(256)}, DataType::f32()));
    ir::Call call = op::matmul(x, w);
    for (auto _ : state) {
        benchmark::DoNotOptimize(shape::deduceStructInfo(call, module));
    }
}
BENCHMARK(BM_ForwardDeduction);

void
BM_CompileTinyLlama(benchmark::State& state)
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            frontend::compile(frontend::buildLlama(config), options));
    }
}
BENCHMARK(BM_CompileTinyLlama)->Unit(benchmark::kMillisecond);

void
BM_CompileLlama8BModule(benchmark::State& state)
{
    // Full 32-layer module: the AOT compilation cost a deployment pays.
    frontend::LlamaConfig config = frontend::LlamaConfig::llama3_8b();
    config.fixedBatch = 1;
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    options.bounds = {{"b", 64}, {"n", 1024}, {"m", 192}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            frontend::compile(frontend::buildLlama(config), options));
    }
}
BENCHMARK(BM_CompileLlama8BModule)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void
BM_DecodeRaggedStep(benchmark::State& state)
{
    // Eight decode rows in a bucket already captured: the host cost of
    // one steady-state serving step (Llama3-8B on rtx4090, bounds b=8,
    // n=288, 16-token buckets).
    frontend::LlamaConfig config = frontend::LlamaConfig::llama3_8b();
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    options.bounds = {{"b", 8}, {"n", 288}};
    options.graphBucketTokens = 16;
    auto dev = std::make_shared<device::SimDevice>(device::rtx4090());
    vm::VirtualMachine machine(
        frontend::compile(frontend::buildLlama(config), options), dev,
        /*data_mode=*/false);
    const int64_t rows = 8, width = 8, pages = 64, block = 16;
    std::vector<double> lens{37, 60, 75, 90, 101, 110, 118, 125};
    std::vector<double> cu(rows + 1);
    std::vector<double> table(rows * width);
    for (int64_t r = 0; r <= rows; ++r) cu[r] = (double)r;
    for (int64_t i = 0; i < rows * width; ++i) table[i] = (double)i;
    std::vector<vm::Value> args{
        NDArray::metaOnly({1, rows}, DataType::i64()),
        NDArray::fromVector({rows}, DataType::i64(), lens),
        NDArray::fromVector({rows + 1}, DataType::i64(), cu),
        NDArray::fromVector({rows, width}, DataType::i64(), table)};
    for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
        args.emplace_back(NDArray::metaOnly(
            {pages, config.numHeads, block, config.headDim},
            DataType::f16()));
    }
    for (NDArray& w : frontend::makeLlamaWeights(config, false)) {
        args.emplace_back(std::move(w));
    }
    machine.invoke("decode_ragged", args); // capture the bucket
    for (auto _ : state) {
        benchmark::DoNotOptimize(machine.invoke("decode_ragged", args));
    }
}
BENCHMARK(BM_DecodeRaggedStep)->Unit(benchmark::kMicrosecond);

void
BM_EngineBuild(benchmark::State& state)
{
    // The serving deployment perf/'s `chat` workload builds.
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    options.bounds = {{"b", 8}, {"n", 288}};
    serve::EngineOptions engine;
    engine.scheduler.maxBatchSize = 8;
    engine.scheduler.maxPrefillTokensPerStep = 256;
    engine.kvBlockTokens = 16;
    engine.interconnect = "nvlink";
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            serve::Engine::build(frontend::LlamaConfig::llama3_8b(), options,
                                 /*data_mode=*/false, engine));
    }
}
BENCHMARK(BM_EngineBuild)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
