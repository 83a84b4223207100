/**
 * @file
 * VM tests: codegen of lowered modules (rebindings share their value's
 * register), execution in data and timing modes, runtime shape and rank
 * checks (a match_cast checks variables bound before it), the refusal
 * of a call past its compiled bounds or of a tensor past its planned
 * storage, static storage caching, graph capture/replay, library
 * dispatch equivalence, the refusal of a collective outside a device
 * group, and the kernel cost cache's lifetime.
 */
#include <gtest/gtest.h>

#include <cmath>

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

/** x:(n,4) -> exp -> relu -> add(x) on a chosen device/options. */
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

std::shared_ptr<device::SimDevice>
hostDevice()
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(64) << 30;
    return std::make_shared<device::SimDevice>(spec);
}

TEST(VMTest, ExecutesChainWithRealData)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);

    NDArray x = NDArray::fromVector({2, 4}, DataType::f32(),
                                    {0, 1, -1, 2, 0, 0, 0, 0});
    Value result = machine.invoke("main", {x});
    const NDArray& out = std::get<NDArray>(result);
    // add(relu(exp(x)), x): exp always positive so relu is identity.
    EXPECT_NEAR(out.at(0), 1.0 + 0.0, 1e-6);
    EXPECT_NEAR(out.at(1), std::exp(1.0) + 1.0, 1e-6);
    EXPECT_NEAR(out.at(2), std::exp(-1.0) - 1.0, 1e-6);
}

TEST(VMTest, ServesMultipleDynamicShapesFromOneExecutable)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    VirtualMachine machine(exec, hostDevice(), true);
    for (int64_t rows : {1, 3, 8}) {
        NDArray x = NDArray::zeros({rows, 4}, DataType::f32());
        Value result = machine.invoke("main", {x});
        EXPECT_EQ(std::get<NDArray>(result).shape()[0], rows);
    }
}

TEST(VMTest, RuntimeShapeCheckRejectsBadInput)
{
    // Function annotated (n, 4): passing (2, 5) must fail the MatchShape
    // check inserted from the signature (§4.1 lightweight runtime checks).
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    VirtualMachine machine(exec, hostDevice(), true);
    NDArray bad = NDArray::zeros({2, 5}, DataType::f32());
    EXPECT_THROW(machine.invoke("main", {bad}), ShapeError);
}

/** x:(n,8) @ w:(8,4), lowered to the GEMM library where one exists. */
ir::IRModulePtr
buildMatmul()
{
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    Var x = makeVar("x", tensorSInfo({n, intImm(8)}, DataType::f32()));
    Var w = makeVar("w", tensorSInfo({intImm(8), intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var out = builder.emitOutput(op::matmul(x, w));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, w}, builder.finish(out),
                                             out->structInfo()));
    return module;
}

TEST(VMTest, RuntimeShapeCheckRejectsWrongRank)
{
    // Every dim of an annotated parameter is bound or checked, so a
    // tensor of any other rank fails its MatchShape. A lower rank must
    // fail before a dim past its shape is read.
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    VirtualMachine chain(frontend::compile(buildChain(), options),
                         hostDevice(), /*data_mode=*/true);
    try {
        chain.invoke("main", {NDArray::zeros({3}, DataType::f32())});
        FAIL() << "expected ShapeError";
    } catch (const ShapeError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("main"), std::string::npos) << what;
        EXPECT_NE(what.find("expected rank 2, got 1"), std::string::npos)
            << what;
    }
    // A higher rank whose leading dims match must not reach a library
    // kernel, which would price it as given in timing mode.
    frontend::CompileOptions lib_options;
    lib_options.device = device::rtx4090(); // cublas path
    VirtualMachine matmul(
        frontend::compile(buildMatmul(), lib_options),
        std::make_shared<device::SimDevice>(device::rtx4090()),
        /*data_mode=*/false);
    EXPECT_THROW(matmul.invoke("main",
                               {NDArray::metaOnly({3, 8, 5}, DataType::f32()),
                                NDArray::metaOnly({8, 4}, DataType::f32())}),
                 ShapeError);
}

TEST(VMTest, RebindingsShareTheProducersRegister)
{
    // lv1 = lv0 and a match_cast rename one value: codegen gives the new
    // names lv0's register, so relu reads exactly what exp wrote.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    SymVar m = var("m");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv0 = builder.emit(op::exp(x));
    Var lv1 = builder.emit(lv0);
    Var lv2 = builder.emitMatchCast(
        lv1, tensorSInfo({m, intImm(4)}, DataType::f32()));
    Var out = builder.emitOutput(op::relu(lv2));
    builder.endBlock();
    module->addFunction("main", makeFunction({x}, builder.finish(out),
                                             out->structInfo()));

    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    options.enableFusion = false; // exp and relu stay two kernel calls
    ExecutablePtr exec = frontend::compile(module, options);
    // The lowered function still holds both rebindings.
    bool rebind = false, cast = false;
    const auto* seq = static_cast<const SeqExprNode*>(
        exec->module->getFunction("main")->body.get());
    for (const auto& block : seq->blocks) {
        for (const auto& binding : block->bindings) {
            rebind |= binding.var->name == lv1->name &&
                      binding.value->kind() == RxKind::kVar;
            cast |= binding.var->name == lv2->name && binding.isMatchCast;
        }
    }
    EXPECT_TRUE(rebind);
    EXPECT_TRUE(cast);

    const Instr* exp_call = nullptr;
    const Instr* relu_call = nullptr;
    for (const Instr& instr : exec->functions.at("main").instrs) {
        if (instr.op != Instr::Op::kKernelCall) continue;
        if (instr.callee.rfind("exp", 0) == 0) exp_call = &instr;
        if (instr.callee.rfind("relu", 0) == 0) relu_call = &instr;
    }
    ASSERT_NE(exp_call, nullptr);
    ASSERT_NE(relu_call, nullptr);
    EXPECT_EQ(relu_call->args[0], exp_call->args.back());

    VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);
    NDArray input = NDArray::fromVector({2, 4}, DataType::f32(),
                                        {0, 1, -1, 2, 0.5, 0, 0, -2});
    NDArray result = std::get<NDArray>(machine.invoke("main", {input}));
    ASSERT_EQ(result.shape(), input.shape());
    for (int64_t i = 0; i < input.numel(); ++i) {
        EXPECT_NEAR(result.at(i), std::exp(input.at(i)), 1e-6) << i;
    }
}

TEST(VMTest, MatchCastChecksBoundVariables)
{
    // match_cast only defines new variables: n is already bound by x, so
    // casting y to (n, 4) checks y's rows against n instead of silently
    // rebinding n to them.
    auto module = IRModule::create();
    shape::BlockBuilder builder(module);
    SymVar n = var("n");
    SymVar m = var("m");
    Var x = makeVar("x", tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var y = makeVar("y", tensorSInfo({m, intImm(4)}, DataType::f32()));
    builder.beginDataflowBlock();
    Var lv = builder.emitMatchCast(
        y, tensorSInfo({n, intImm(4)}, DataType::f32()));
    Var out = builder.emitOutput(op::exp(lv));
    builder.endBlock();
    module->addFunction("main", makeFunction({x, y}, builder.finish(out),
                                             out->structInfo()));

    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    VirtualMachine machine(frontend::compile(module, options), hostDevice(),
                           /*data_mode=*/true);
    NDArray two = NDArray::zeros({2, 4}, DataType::f32());
    Value agreed = machine.invoke("main", {two, two});
    EXPECT_EQ(std::get<NDArray>(agreed).shape()[0], 2);
    try {
        machine.invoke("main", {two, NDArray::zeros({3, 4}, DataType::f32())});
        FAIL() << "expected ShapeError";
    } catch (const ShapeError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("main: runtime shape check failed: dim 0 "
                            "expected n = 2, got 3"),
                  std::string::npos)
            << what;
    }
}

TEST(VMTest, TimingModeTracksClockWithoutData)
{
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = std::make_shared<device::SimDevice>(device::rtx4090());
    VirtualMachine machine(exec, dev, /*data_mode=*/false);
    NDArray x = NDArray::metaOnly({1024, 4}, DataType::f32());
    machine.invoke("main", {x});
    EXPECT_GT(machine.lastRunStats().latencyUs, 0.0);
    EXPECT_GT(machine.lastRunStats().kernelLaunches, 0);
}

TEST(VMTest, StaticPlanAllocatesOnceAcrossCalls)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    options.bounds = {{"n", 64}};
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = hostDevice();
    VirtualMachine machine(exec, dev, true);
    NDArray x = NDArray::zeros({8, 4}, DataType::f32());
    machine.invoke("main", {x});
    int64_t first_call = machine.lastRunStats().bytesAllocated;
    EXPECT_GT(first_call, 0);
    machine.invoke("main", {x});
    // Pre-allocated static storages are reused: no new device memory.
    EXPECT_EQ(machine.lastRunStats().bytesAllocated, 0);
    // Different shape, same executable, still no new memory (upper bound).
    NDArray y = NDArray::zeros({64, 4}, DataType::f32());
    machine.invoke("main", {y});
    EXPECT_EQ(machine.lastRunStats().bytesAllocated, 0);
}

TEST(VMTest, CallPastCompiledBoundThrows)
{
    // The plan sized every storage for n <= 64, so a call binding n = 65
    // is refused where n binds, before any storage is used.
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    options.bounds = {{"n", 64}};
    VirtualMachine machine(frontend::compile(buildChain(), options),
                           hostDevice(), /*data_mode=*/true);
    machine.invoke("main", {NDArray::zeros({64, 4}, DataType::f32())});
    try {
        machine.invoke("main", {NDArray::zeros({65, 4}, DataType::f32())});
        FAIL() << "expected ShapeError";
    } catch (const ShapeError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("main: n = 65 exceeds its compiled bound 64"),
                  std::string::npos)
            << what;
    }
}

TEST(VMTest, TensorPastItsPlannedStorageThrows)
{
    // A lowered function that instantiates an (n, 4) f32 tensor in a
    // 64-byte storage, with no bound on n: four rows fit, and five would
    // overrun the storage, which the VM refuses.
    auto module = IRModule::create();
    SymVar n = var("n");
    StructInfo sinfo = tensorSInfo({n, intImm(4)}, DataType::f32());
    Var x = makeVar("x", sinfo);
    Call alloc = makeCall(getOp("relax.memory.alloc_storage"),
                          {makePrimValue(intImm(64))});
    alloc->setStructInfo(objectSInfo());
    Var storage = makeVar("storage0", objectSInfo());
    Call tensor = makeCall(getOp("relax.memory.alloc_tensor"), {storage}, {},
                           {sinfo});
    tensor->setStructInfo(sinfo);
    Var out = makeVar("out", sinfo);
    auto block = std::make_shared<BindingBlockNode>(false);
    block->bindings.push_back({storage, alloc, false, nullptr});
    block->bindings.push_back({out, tensor, false, nullptr});
    module->addFunction("main",
                        makeFunction({x}, makeSeqExpr({block}, out), sinfo));

    VirtualMachine machine(buildExecutable(module), hostDevice(),
                           /*data_mode=*/true);
    machine.invoke("main", {NDArray::zeros({4, 4}, DataType::f32())});
    try {
        machine.invoke("main", {NDArray::zeros({5, 4}, DataType::f32())});
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("main: a tensor of 80 bytes exceeds its planned "
                            "storage of 64 bytes"),
                  std::string::npos)
            << what;
    }
}

TEST(VMTest, RuntimePoolRecyclesExactSizes)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    options.enableMemoryPlanning = false; // runtime allocator path
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = hostDevice();
    VirtualMachine machine(exec, dev, true);
    NDArray x = NDArray::zeros({8, 4}, DataType::f32());
    machine.invoke("main", {x});
    EXPECT_GT(machine.lastRunStats().bytesAllocated, 0);
    machine.invoke("main", {x});
    EXPECT_EQ(machine.lastRunStats().bytesAllocated, 0); // pool hit
    // A new shape misses the exact-size pool: fresh allocations.
    NDArray y = NDArray::zeros({16, 4}, DataType::f32());
    machine.invoke("main", {y});
    EXPECT_GT(machine.lastRunStats().bytesAllocated, 0);
}

TEST(VMTest, GraphReplayReducesLaunchOverhead)
{
    frontend::CompileOptions options;
    options.device = device::rtx4090();
    options.bounds = {{"n", 64}};
    // Keep the three elementwise kernels separate so a multi-kernel graph
    // region exists to capture.
    options.enableFusion = false;
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    auto dev = std::make_shared<device::SimDevice>(device::rtx4090());
    VirtualMachine machine(exec, dev, /*data_mode=*/false);
    NDArray x = NDArray::metaOnly({8, 4}, DataType::f32());
    machine.invoke("main", {x}); // capture
    double first = machine.lastRunStats().latencyUs;
    machine.invoke("main", {x}); // replay
    double second = machine.lastRunStats().latencyUs;
    EXPECT_LT(second, first);
}

TEST(VMTest, LibraryDispatchMatchesGeneratedKernels)
{
    // matmul through cublas-sim == matmul through generated kernel.
    NDArray x = NDArray::zeros({3, 8}, DataType::f32());
    NDArray w = NDArray::zeros({8, 4}, DataType::f32());
    for (int64_t i = 0; i < x.numel(); ++i) x.set(i, 0.1 * (double)(i % 7));
    for (int64_t i = 0; i < w.numel(); ++i) w.set(i, 0.2 * (double)(i % 5));

    frontend::CompileOptions gen_options;
    gen_options.device = hostDevice()->spec(); // no libraries
    VirtualMachine gen_machine(frontend::compile(buildMatmul(), gen_options),
                               hostDevice(), true);
    NDArray gen_out = std::get<NDArray>(gen_machine.invoke("main", {x, w}));

    frontend::CompileOptions lib_options;
    lib_options.device = device::rtx4090(); // cublas path
    auto dev = std::make_shared<device::SimDevice>(device::rtx4090());
    VirtualMachine lib_machine(frontend::compile(buildMatmul(), lib_options),
                               dev, true);
    NDArray lib_out = std::get<NDArray>(lib_machine.invoke("main", {x, w}));
    EXPECT_EQ(gen_out.data(), lib_out.data());
}

TEST(VMTest, RaggedAttentionLibraryPricesPerSequence)
{
    // The paged-pool FlashAttention sim is data-dependent: its cost sums
    // per-row fresh-token counts (from cu_fresh) times true per-sequence
    // lengths (the [b] host tensor carries data even in timing mode),
    // never the pool size — the reason one packed varlen call beats
    // per-group calls and a huge resident pool costs nothing per step.
    // Without host data it degrades to the worst case of the mapped
    // table width.
    ensureLibrariesRegistered();
    const LibraryKernel* kernel =
        LibraryRegistry::global().find("flashattn.attention_ragged");
    ASSERT_NE(kernel, nullptr);
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";

    // Pool of 40 pages of 16 positions; each row maps w = 4 pages, so
    // keys range over m = 64 positions regardless of the pool size.
    const int64_t h = 2, d = 8, pages = 40, c = 16, w = 4;
    auto cost_with = [&](std::vector<double> lens, std::vector<double> cu,
                         int64_t n) {
        int64_t b = (int64_t)std::max<size_t>(lens.size(), 1);
        int64_t cu_n = (int64_t)cu.size();
        std::vector<NDArray> args{
            NDArray::metaOnly({1, h, n, d}, DataType::f16()),
            NDArray::metaOnly({pages, h, c, d}, DataType::f16()),
            NDArray::metaOnly({pages, h, c, d}, DataType::f16()),
            lens.empty()
                ? NDArray::metaOnly({4}, DataType::i64())
                : NDArray::fromVector({b}, DataType::i64(),
                                      std::move(lens)),
            cu.empty() ? NDArray::metaOnly({5}, DataType::i64())
                       : NDArray::fromVector({cu_n}, DataType::i64(),
                                             std::move(cu)),
            NDArray::metaOnly({b, w}, DataType::i64()),
            NDArray::metaOnly({1, h, n, d}, DataType::f16())};
        return kernel->cost(args, {}, spec);
    };

    // Pure decode: four rows of one fresh token each.
    device::KernelCost shorter =
        cost_with({3, 5, 7, 9}, {0, 1, 2, 3, 4}, 4);
    device::KernelCost longer =
        cost_with({30, 50, 60, 63}, {0, 1, 2, 3, 4}, 4);
    device::KernelCost padded = cost_with({}, {}, 4); // no data
    EXPECT_LT(shorter.flops, longer.flops);
    EXPECT_LT(shorter.bytes, longer.bytes);
    EXPECT_LT(longer.flops, padded.flops);
    // The no-data fallback prices every row at the full cache length.
    device::KernelCost full =
        cost_with({63, 63, 63, 63}, {0, 1, 2, 3, 4}, 4);
    EXPECT_DOUBLE_EQ(full.flops, padded.flops);

    // Packed mixed prefill+decode pricing equals the sum of per-row
    // costs: rows of fresh {4, 1, 3, 1} against lens {0, 10, 2, 5}.
    std::vector<double> mix_lens{0, 10, 2, 5};
    std::vector<double> mix_cu{0, 4, 5, 8, 9};
    device::KernelCost packed = cost_with(mix_lens, mix_cu, 9);
    double sum_flops = 0.0, sum_bytes = 0.0;
    for (size_t r = 0; r < mix_lens.size(); ++r) {
        double fresh = mix_cu[r + 1] - mix_cu[r];
        device::KernelCost row = cost_with(
            {mix_lens[r]}, {0, fresh}, (int64_t)fresh);
        sum_flops += row.flops;
        sum_bytes += row.bytes;
    }
    EXPECT_DOUBLE_EQ(packed.flops, sum_flops);
    // Byte streams agree up to the cu_fresh metadata the per-row split
    // duplicates: four {0, fresh} tensors hold 8 entries where the
    // packed call's [b+1] holds 5 — three extra i64s.
    EXPECT_DOUBLE_EQ(packed.bytes + 3 * 8.0, sum_bytes);

    // Padded bucket bindings: zero-filled phantom rows (padForPricing's
    // contract) must price nothing — the clamp max(cu[i+1]-cu[i], 0)
    // ignores the zero tail.
    device::KernelCost bucketed = cost_with(
        {0, 10, 2, 5, 0, 0}, {0, 4, 5, 8, 9, 0, 0}, 9);
    EXPECT_DOUBLE_EQ(bucketed.flops, packed.flops);
}

TEST(VMTest, CollectiveWithoutDeviceGroupThrows)
{
    // A ShardPass'd executable reduces partial sums at its `ccl.*` sites,
    // which need every shard of a device group. Plain invoke() runs one
    // VM with no group, so it must refuse instead of returning one
    // shard's partial value as the full one.
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    options.tensorParallel = 2;
    ExecutablePtr exec =
        frontend::compile(frontend::buildLlama(config), options);
    VirtualMachine machine(exec, hostDevice(), /*data_mode=*/true);
    // One row of three fresh tokens over a one-page block table.
    std::vector<Value> args{
        NDArray::fromVector({1, 3}, DataType::i64(), {1, 2, 3}),
        NDArray::fromVector({1}, DataType::i64(), {0}),
        NDArray::fromVector({2}, DataType::i64(), {0, 3}),
        NDArray::fromVector({1, 1}, DataType::i64(), {0})};
    for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
        args.emplace_back(NDArray::zeros(
            {2, config.numHeads / 2, 4, config.headDim}, DataType::f16()));
    }
    for (const NDArray& w : frontend::shardLlamaWeights(
             exec->module->getFunction("decode_ragged"),
             frontend::makeLlamaWeights(config, true), 0, 2)) {
        args.emplace_back(w);
    }
    try {
        machine.invoke("decode_ragged", args);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("ccl.all_reduce"),
                  std::string::npos)
            << e.what();
    }
}

TEST(VMTest, DestroyedExecutablePinsNoPricedKernel)
{
    // Pricing a generated kernel resolves its symbolic cost once per call
    // site. That cache belongs to the executable, so once the VM and the
    // executable are gone no tensor program they priced stays alive.
    std::weak_ptr<tir::PrimFuncNode> priced;
    {
        frontend::CompileOptions options;
        options.device = hostDevice()->spec();
        ExecutablePtr exec = frontend::compile(buildChain(), options);
        VirtualMachine machine(exec, hostDevice(), /*data_mode=*/false);
        machine.invoke("main", {NDArray::metaOnly({8, 4}, DataType::f32())});
        ASSERT_GT(machine.lastRunStats().kernelLaunches, 0);
        for (const Instr& instr : exec->functions.at("main").instrs) {
            if (instr.op == Instr::Op::kKernelCall && !instr.isLibrary) {
                priced = exec->module->getTIRFunc(instr.callee);
                break;
            }
        }
        ASSERT_FALSE(priced.expired());
    }
    EXPECT_TRUE(priced.expired());
}

TEST(VMTest, DisassemblyIsReadable)
{
    frontend::CompileOptions options;
    options.device = hostDevice()->spec();
    ExecutablePtr exec = frontend::compile(buildChain(), options);
    std::string text = toString(exec->functions.at("main"));
    EXPECT_NE(text.find("vm_function main"), std::string::npos);
    EXPECT_NE(text.find("kernel_call"), std::string::npos);
    EXPECT_NE(text.find("match_shape"), std::string::npos);
    EXPECT_NE(text.find("alloc_storage"), std::string::npos);
}

} // namespace
} // namespace vm
} // namespace relax
