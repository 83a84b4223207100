/**
 * @file
 * Shape-table tests: every symbolic expression the executor evaluates
 * gives the same value (or the same failure) from its slot program as
 * from evalInt, inside and past the compiled bounds; and the per-site
 * pricing cache charges exactly what fresh pricing charges, while a
 * library cost that reads tensor data is never served from it.
 */
#include <gtest/gtest.h>

#include "arith/substitute.h"
#include "frontend/compile.h"
#include "frontend/llama.h"
#include "tir/analysis.h"
#include "vm/vm.h"

namespace relax {
namespace vm {
namespace {

/** Values for a function's variables: b and n as given, others fixed. */
int64_t
valueOf(const std::string& name, int64_t b, int64_t n)
{
    if (name == "b") return b;
    if (name == "n") return n;
    return 18 + (int64_t)name.size(); // w, p, c, ...
}

/** A program's value and evalInt's agree: both values, or both throw
 *  ShapeError with one message. */
void
expectSameAsEvalInt(const SlotProgram& program, const PrimExpr& expr,
                    const std::vector<int64_t>& slots,
                    const VarBinding& binding, const std::string& where)
{
    std::string program_error, tree_error;
    int64_t program_value = 0, tree_value = 0;
    try {
        program_value = program.expr() ? program.eval(slots.data())
                                       : program.tryEval(slots.data()).value();
    } catch (const ShapeError& e) {
        program_error = e.what();
    } catch (const std::bad_optional_access&) {
        program_error = "failed";
    }
    try {
        tree_value = evalInt(expr, binding);
    } catch (const ShapeError& e) {
        tree_error = program.expr() ? e.what() : "failed";
    }
    EXPECT_EQ(program_error, tree_error) << where << ": " << toString(expr);
    EXPECT_EQ(program_value, tree_value) << where << ": " << toString(expr);
}

/** Every kernel variable of a generated site and its kernel slot. */
std::vector<std::pair<const VarNode*, int>>
kernelVars(const KernelSite& site)
{
    std::vector<std::pair<const VarNode*, int>> vars;
    for (size_t i = 0; i < site.symSlots.size(); ++i) {
        vars.emplace_back(site.func->symParams[i].get(), site.symSlots[i]);
    }
    size_t flat = 0;
    for (const tir::Buffer& buffer : site.func->params) {
        for (const PrimExpr& dim : buffer->shape) {
            const KernelSite::Dim& d = site.dims[flat++];
            if (d.slot >= 0) {
                vars.emplace_back(static_cast<const VarNode*>(dim.get()),
                                  d.slot);
            }
        }
    }
    return vars;
}

void
checkFunction(const Executable& exec, const VMFunction& fn, int64_t b,
              int64_t n)
{
    std::vector<int64_t> slots(fn.slotVars.size());
    for (size_t s = 0; s < slots.size(); ++s) {
        slots[s] = valueOf(fn.slotVars[s]->name, b, n);
    }
    // Straight-line code: the slots bound before an instruction are a
    // prefix, and a MatchShape's checks see its own binds.
    size_t bound = 0;
    VarBinding binding;
    auto check = [&](const SlotProgram& program, const std::string& what) {
        expectSameAsEvalInt(program, program.expr(), slots, binding,
                            fn.name + " " + what + " b=" +
                                std::to_string(b) + " n=" +
                                std::to_string(n));
    };
    int programs = 0;
    for (const Instr& instr : fn.instrs) {
        for (const Instr::Bind& bind : instr.binds) {
            bound = std::max(bound, (size_t)bind.slot + 1);
        }
        for (size_t s = 0; s < bound; ++s) {
            binding[fn.slotVars[s].get()] = slots[s];
        }
        for (const auto& [dim, program] : instr.checks) check(program, "check");
        for (const auto& dim : instr.shape) check(dim, "shape");
        for (const auto& arg : instr.symArgs) check(arg, "sym arg");
        for (const auto& dim : instr.argShapes) check(dim, "arg shape");
        programs += (int)(instr.checks.size() + instr.shape.size() +
                          instr.symArgs.size());
        if (instr.op != Instr::Op::kKernelCall || instr.isLibrary) continue;

        // The site's own programs, over its kernel slots: variables the
        // function binds take the function's values.
        const KernelSite& site = exec.kernelSite(fn, instr);
        std::vector<int64_t> kslots(site.numSlots, 5);
        VarBinding kbinding;
        for (const auto& [v, slot] : kernelVars(site)) {
            int f = site.functionSlots[slot];
            if (f >= 0) kslots[slot] = slots[f];
            kbinding[v] = kslots[slot];
        }
        tir::TensorProgramCost cost = tir::analyzeCost(site.func);
        std::string where = fn.name + " " + instr.callee;
        expectSameAsEvalInt(site.flops, cost.flops, kslots, kbinding,
                            where + " flops");
        expectSameAsEvalInt(site.bytes, cost.bytes, kslots, kbinding,
                            where + " bytes");
        const tir::Buffer& out = site.func->params.back();
        for (size_t d = 0; d < site.outRows.size(); ++d) {
            expectSameAsEvalInt(site.outRows[d], out->shape[d], kslots,
                                kbinding, where + " rows");
        }
        for (const KernelSite::Check& c : site.checks) {
            expectSameAsEvalInt(
                c.extent, site.func->params[c.param]->shape[c.dim], kslots,
                kbinding, where + " dim");
        }
        programs += 2;
    }
    EXPECT_GT(programs, 100) << fn.name;
}

TEST(ShapeTableTest, SlotProgramsMatchEvalIntOnServingFunction)
{
    for (int64_t tp : {1, 2}) {
        frontend::CompileOptions options;
        options.device = device::rtx4090();
        options.bounds = {{"b", 8}, {"n", 288}};
        options.graphBucketTokens = 16;
        options.tensorParallel = tp;
        ExecutablePtr exec = frontend::compile(
            frontend::buildLlama(frontend::LlamaConfig::llama3_8b()),
            options);
        const VMFunction& fn = exec->functions.at("decode_ragged");
        ASSERT_FALSE(fn.slotVars.empty());
        for (int64_t b : {1, 3, 8}) {
            for (int64_t n : {1, 17, 288, 1024}) {
                checkFunction(*exec, fn, b, n);
            }
        }
    }
}

TEST(ShapeTableTest, SlotProgramsMatchEvalIntOnEveryOperator)
{
    relax::Var x = var("x");
    relax::Var y = var("y");
    relax::Var unbound = var("unbound");
    SlotMap map{{x.get(), 0}, {y.get(), 1}};
    std::vector<PrimExpr> exprs{
        sub(x, y),
        sub(intImm(3), mul(x, y)),
        add(floordiv(x, y), floormod(x, y)),
        div(sub(intImm(0), x), y),
        minExpr(sub(x, y), maxExpr(x, y)),
        select(lt(x, y), sub(y, x), floordiv(x, y)),
        logicalAnd(ge(x, y), logicalNot(eq(x, y))),
        logicalOr(le(x, y), ne(x, intImm(4))),
        gt(sub(x, intImm(2)), y),
        add(x, unbound),
        select(lt(x, intImm(0)), unbound, sub(intImm(9), y)),
    };
    for (int64_t xv : {-7, 0, 4, 9}) {
        for (int64_t yv : {-3, 0, 2, 5}) {
            std::vector<int64_t> slots{xv, yv};
            VarBinding binding{{x.get(), xv}, {y.get(), yv}};
            for (const PrimExpr& expr : exprs) {
                expectSameAsEvalInt(SlotProgram(expr, map), expr, slots,
                                    binding,
                                    "x=" + std::to_string(xv) +
                                        " y=" + std::to_string(yv));
            }
        }
    }
    // A zero divisor fails both, with evalInt's message.
    PrimExpr by_zero = floordiv(x, y);
    std::vector<int64_t> zero{6, 0};
    EXPECT_THROW(SlotProgram(by_zero, map).eval(zero.data()), ShapeError);
    EXPECT_THROW(evalInt(by_zero, {{x.get(), 6}, {y.get(), 0}}), ShapeError);
}

// --- pricing cache ---------------------------------------------------------

/** tiny's decode_ragged, timing mode, with host seq_lens/cu_fresh/table. */
struct TinyServing
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    std::shared_ptr<device::SimDevice> dev =
        std::make_shared<device::SimDevice>(device::rtx4090());
    ExecutablePtr exec;
    std::unique_ptr<VirtualMachine> machine;
    std::vector<NDArray> weights =
        frontend::makeLlamaWeights(config, /*with_data=*/false);

    TinyServing()
    {
        frontend::CompileOptions options;
        options.device = device::rtx4090();
        options.bounds = {{"b", 8}, {"n", 64}};
        options.graphBucketTokens = 16;
        exec = frontend::compile(frontend::buildLlama(config), options);
        machine = std::make_unique<VirtualMachine>(exec, dev, false);
        dev->trace().enable();
    }

    /** One decode step of the given context lengths (one fresh token
     *  per row); returns the trace events of the call. */
    std::vector<TraceRecorder::Event>
    step(const std::vector<double>& lens)
    {
        int64_t b = (int64_t)lens.size();
        const int64_t width = 4, pages = 16, block = 16;
        std::vector<double> cu(b + 1);
        for (int64_t r = 0; r <= b; ++r) cu[r] = (double)r;
        std::vector<Value> args{
            NDArray::metaOnly({1, b}, DataType::i64()),
            NDArray::fromVector({b}, DataType::i64(), lens),
            NDArray::fromVector({b + 1}, DataType::i64(), cu),
            NDArray::fromVector({b, width}, DataType::i64(),
                                std::vector<double>(b * width, 0.0))};
        for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
            args.emplace_back(NDArray::metaOnly(
                {pages, config.numHeads, block, config.headDim},
                DataType::f16()));
        }
        for (const NDArray& w : weights) args.emplace_back(w);
        dev->trace().clear();
        machine->invoke("decode_ragged", args);
        return dev->trace().events();
    }
};

/** Total time of the kernel spans named `name`. */
double
kernelTime(const std::vector<TraceRecorder::Event>& events,
           const std::string& name)
{
    double total = 0.0;
    for (const auto& e : events) {
        if (e.ph == 'X' && e.cat == "kernel" && e.name == name) {
            total += e.dur;
        }
    }
    return total;
}

/** (name, flops, bytes) of every kernel span, in launch order. */
std::vector<std::string>
pricedKernels(const std::vector<TraceRecorder::Event>& events)
{
    std::vector<std::string> out;
    for (const auto& e : events) {
        if (e.ph != 'X' || e.cat != "kernel") continue;
        std::string line = e.name;
        for (const auto& arg : e.args) {
            if (arg.key == "flops" || arg.key == "bytes") {
                line += " " + arg.key + "=" + std::to_string(arg.d);
            }
        }
        out.push_back(line);
    }
    return out;
}

TEST(ShapeTableTest, PricingCacheChargesWhatFreshPricingCharges)
{
    TinyServing warm;
    const std::string attention = "flashattn.attention_ragged";
    warm.step({5, 9, 20});                   // b=3 captures bucket b=4
    ASSERT_EQ(warm.machine->lastRunStats().graphCaptures, 1);
    auto short_rows = warm.step({5, 9, 20}); // replays
    ASSERT_EQ(warm.machine->lastRunStats().graphReplays, 1);
    ASSERT_GT(kernelTime(short_rows, attention), 0.0)
        << "attention did not reach the library";

    // Equal arguments charge identical time.
    double replay_us = warm.machine->lastRunStats().latencyUs;
    warm.step({5, 9, 20});
    EXPECT_EQ(warm.machine->lastRunStats().latencyUs, replay_us);

    // Same bucket, longer rows: the attention cost reads seq_lens, so it
    // is priced again, never served by shape.
    auto long_rows = warm.step({40, 41, 42});
    ASSERT_EQ(warm.machine->lastRunStats().graphReplays, 1);
    EXPECT_GT(kernelTime(long_rows, attention),
              kernelTime(short_rows, attention));

    // Each site keeps one priced entry, so alternating buckets re-price
    // every site, and a replay charges exactly what a fresh VM's
    // capture prices at the same padded binding.
    warm.step({3, 4, 5, 6, 7, 8}); // b=6 captures bucket b=8
    warm.step({5, 9, 20});         // bucket b=4 again
    std::vector<double> lens{7, 30, 11, 2, 9, 1};
    auto replay = warm.step(lens);
    ASSERT_EQ(warm.machine->lastRunStats().graphReplays, 1);
    TinyServing fresh;
    auto capture = fresh.step(lens);
    ASSERT_EQ(fresh.machine->lastRunStats().graphCaptures, 1);
    EXPECT_EQ(pricedKernels(replay), pricedKernels(capture));
}

} // namespace
} // namespace vm
} // namespace relax
