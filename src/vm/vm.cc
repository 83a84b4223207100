/**
 * @file
 * The virtual machine: the library-kernel registry, slot-program
 * evaluation, the executor loop (invokeLockstep — invoke() is its one-VM
 * case), the per-instruction executors (MatchShape / AllocStorage /
 * AllocTensor / KernelCall / PackedCall / GraphBegin, which decides
 * capture or replay against the VM's own captured graphs), and the path
 * that prices kernels on the device roofline: Executable::kernelSite
 * resolves a call site once, and a generated site re-prices only when
 * the padded slot values its cost reads change.
 */
#include "vm/vm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <tuple>

#include "device/interconnect.h"
#include "tir/analysis.h"
#include "tir/interpreter.h"

namespace relax {
namespace vm {

namespace {

/** Cumulative count of instrumented in-place kernel verifications. */
std::atomic<int64_t> g_aliasChecks{0};

/** RELAX_ALIAS_CHECK=1 turns on the differential in-place verifier. */
bool
aliasCheckEnabled()
{
    const char* env = getenv("RELAX_ALIAS_CHECK");
    return env && std::string(env) != "0";
}

/**
 * Differential in-place verification (the ASPIS-style instrumented
 * check): the aliased run already executed on `aliased`; `ref` holds
 * deep copies taken before it, on which the caller re-ran the kernel
 * with NO aliasing (the copied output buffer is distinct from the
 * copied input — copy-in/copy-out semantics). Every argument except the
 * aliased input itself must now be bit-identical across the two runs:
 * outputs prove the in-place rewrite did not change results, inputs
 * prove the kernel wrote nothing it does not own.
 */
void
diffAliasedRun(const Instr& instr, const std::vector<NDArray>& aliased,
               const std::vector<NDArray>& ref)
{
    auto inplace = std::get<int64_t>(instr.attrs.at("inplace_arg"));
    for (size_t i = 0; i < aliased.size(); ++i) {
        // The aliased input shares storage with the output in the
        // aliased run only; its pre-state copy legitimately differs.
        if ((int64_t)i == inplace) continue;
        if (!aliased[i].hasData() || !ref[i].hasData()) continue;
        if (aliased[i].data() != ref[i].data()) {
            RELAX_THROW(RuntimeError)
                << "RELAX_ALIAS_CHECK: '" << instr.callee << "' arg " << i
                << " diverges between the aliased run and the "
                << "copy-in/copy-out reference"
                << (i >= (size_t)instr.numInputs
                        ? " (in-place output corrupted)"
                        : " (kernel wrote a non-aliased input)");
        }
    }
    g_aliasChecks.fetch_add(1, std::memory_order_relaxed);
}

/** Deep copies of every data-bearing argument, for the reference run. */
std::vector<NDArray>
copyArgsForReference(const std::vector<NDArray>& args)
{
    std::vector<NDArray> copies;
    copies.reserve(args.size());
    for (const auto& arg : args) {
        copies.push_back(arg.hasData()
                             ? NDArray::fromVector(arg.shape(),
                                                   arg.dtype(), arg.data())
                             : arg);
    }
    return copies;
}

} // namespace

int64_t
aliasChecksPerformed()
{
    return g_aliasChecks.load(std::memory_order_relaxed);
}

std::optional<int64_t>
SlotProgram::tryEval(const int64_t* slots) const
{
    switch (code_) {
      case Code::kImm: return payload_.arg;
      case Code::kSlot: return slots[payload_.arg];
      case Code::kSteps: break;
      default: return std::nullopt;
    }
    const std::vector<Step>& steps = payload_.steps->steps;
    constexpr int kInline = 16;
    int64_t inline_stack[kInline];
    std::vector<int64_t> heap_stack;
    int64_t* stack = inline_stack;
    if (payload_.steps->maxDepth > kInline) {
        heap_stack.resize(payload_.steps->maxDepth);
        stack = heap_stack.data();
    }
    int sp = 0;
    size_t pc = 0;
    while (pc < steps.size()) {
        const Step& step = steps[pc++];
        switch (step.code) {
          case Code::kImm: stack[sp++] = step.arg; continue;
          case Code::kSlot: stack[sp++] = slots[step.arg]; continue;
          case Code::kFail: return std::nullopt;
          case Code::kNot: stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0; continue;
          case Code::kJumpIfZero:
            if (stack[--sp] == 0) pc = (size_t)step.arg;
            continue;
          case Code::kJump: pc = (size_t)step.arg; continue;
          default: break;
        }
        int64_t b = stack[--sp];
        int64_t& a = stack[sp - 1];
        switch (step.code) {
          case Code::kAdd: a = a + b; break;
          case Code::kSub: a = a - b; break;
          case Code::kMul: a = a * b; break;
          case Code::kFloorDiv:
            if (b == 0) return std::nullopt;
            a = floorDiv(a, b);
            break;
          case Code::kFloorMod:
            if (b == 0) return std::nullopt;
            a = floorMod(a, b);
            break;
          case Code::kDiv:
            if (b == 0) return std::nullopt;
            a = a / b;
            break;
          case Code::kMin: a = std::min(a, b); break;
          case Code::kMax: a = std::max(a, b); break;
          case Code::kEQ: a = a == b; break;
          case Code::kNE: a = a != b; break;
          case Code::kLT: a = a < b; break;
          case Code::kLE: a = a <= b; break;
          case Code::kGT: a = a > b; break;
          case Code::kGE: a = a >= b; break;
          case Code::kAnd: a = (a != 0) && (b != 0); break;
          case Code::kOr: a = (a != 0) || (b != 0); break;
          default: return std::nullopt;
        }
    }
    return stack[0];
}

int64_t
SlotProgram::eval(const int64_t* slots) const
{
    std::optional<int64_t> value = tryEval(slots);
    if (!value) throwUnevaluable(expr_);
    return *value;
}

LibraryRegistry&
LibraryRegistry::global()
{
    static LibraryRegistry instance;
    return instance;
}

void
LibraryRegistry::registerKernel(const std::string& name, LibraryKernel kernel)
{
    kernels_[name] = std::move(kernel);
}

const LibraryKernel*
LibraryRegistry::find(const std::string& name) const
{
    auto it = kernels_.find(name);
    return it == kernels_.end() ? nullptr : &it->second;
}

namespace {

/** Per-invocation execution state. */
struct Frame
{
    std::vector<Value> regs;
    /** The runtime symbolic shape table (§4.7): one slot per variable. */
    std::vector<int64_t> slots;
    /**
     * Set inside a bucketed graph region that rounded some variable up
     * to its bucket ceiling. `padded` is then the shape table with each
     * variable bound at the region's start at its ceiling and every
     * other slot at its live value; a MatchShape never rebinds a bound
     * slot, so a slot is padded exactly where `padded` differs from
     * `slots`. Kernel *pricing* reads it (the captured graph launches
     * padded kernels); data-mode compute always runs at the real
     * shapes, which is what keeps replay bit-identical.
     */
    bool padding = false;
    std::vector<int64_t> padded;
    /**
     * Timing mode, inside a padding region: the data-bearing pricing
     * stand-ins built so far, by register. Timing mode runs no kernel, so
     * no tensor changes until the region ends and each is built once.
     */
    std::vector<std::pair<RegIndex, NDArray>> standIns;
    /** Pool allocations owned by this call (returned to pool at exit). */
    std::vector<int64_t> pooledBytes;
};

/**
 * Bucket ceiling of a symbolic value: the next multiple of `block`, or
 * the next power of two when that is smaller. Large dims (context
 * lengths) land on block boundaries (padding waste < one block); small
 * dims (batch sizes below the block) land on power-of-two classes
 * (padding waste < 2x) instead of all inflating to one block.
 */
int64_t
bucketCeiling(int64_t value, int64_t block)
{
    int64_t blocked = (value + block - 1) / block * block;
    int64_t pow2 = 1;
    while (pow2 < value) pow2 *= 2;
    return std::min(blocked, pow2);
}

NDArray&
asTensorValue(Value& value, const char* what)
{
    NDArray* array = std::get_if<NDArray>(&value);
    if (!array) RELAX_THROW(RuntimeError) << what << ": expected a tensor";
    return *array;
}

/** Whether pricing reads `array`'s values: integer host tensors (e.g.
 *  the ragged length vector) carry data even in timing mode. */
bool
isHostMetadata(const NDArray& array)
{
    return array.hasData() &&
           (array.dtype().isInt() || array.dtype().isUInt());
}

/**
 * Stand-in for `array` at the padded shape: metadata-only normally, but
 * integer host tensors (the only data any cost model reads) keep their
 * values in the prefix — the padded tail reads as zeros, so phantom rows
 * price as empty sequences. Large payload tensors are never copied:
 * their cost contribution is shape-only.
 */
NDArray
padForPricing(const NDArray& array, std::vector<int64_t> padded_shape)
{
    if (!isHostMetadata(array)) {
        return NDArray::metaOnly(std::move(padded_shape), array.dtype());
    }
    NDArray padded = NDArray::zeros(padded_shape, array.dtype());
    const auto& shape = array.shape();
    bool fits = shape.size() == padded_shape.size() && !shape.empty();
    for (size_t d = 0; fits && d < shape.size(); ++d) {
        fits = shape[d] <= padded_shape[d];
    }
    RELAX_ICHECK(fits || array.numel() == 0)
        << "pricing stand-in: the padded shape does not hold the tensor";
    // Row by row: each innermost row lands at its padded offset.
    int64_t row = shape.back();
    if (row == 0) return padded;
    const std::vector<double>& src = array.data();
    std::vector<double>& dst = padded.data();
    std::vector<int64_t> index(shape.size() - 1, 0);
    for (int64_t offset = 0; offset < array.numel(); offset += row) {
        int64_t at = 0;
        for (size_t d = 0; d < index.size(); ++d) {
            at = at * padded_shape[d] + index[d];
        }
        std::copy(src.begin() + offset, src.begin() + offset + row,
                  dst.begin() + at * padded_shape.back());
        for (size_t d = index.size(); d-- > 0;) {
            if (++index[d] < shape[d]) break;
            index[d] = 0;
        }
    }
    return padded;
}

/** The kernel slots of `func`'s variables, in tir::bindShapes' binding
 *  order: symbolic parameters, then bare buffer-shape variables. */
void
layOutKernelSlots(const tir::PrimFunc& func, KernelSite& site,
                  SlotMap& slots)
{
    auto slotOf = [&](const ::relax::VarNode* v) {
        auto [it, inserted] = slots.emplace(v, (int)slots.size());
        return std::make_pair(it->second, inserted);
    };
    for (const auto& sym : func->symParams) {
        site.symSlots.push_back(slotOf(sym.get()).first);
    }
    for (const tir::Buffer& buffer : func->params) {
        site.ranks.push_back((int)buffer->shape.size());
        for (const PrimExpr& dim : buffer->shape) {
            KernelSite::Dim& out = site.dims.emplace_back();
            if (dim->kind() != ExprKind::kVar) continue;
            auto [slot, first] =
                slotOf(static_cast<const ::relax::VarNode*>(dim.get()));
            out.slot = slot;
            out.binds = first;
        }
    }
    for (size_t i = 0; i < func->params.size(); ++i) {
        const tir::Buffer& buffer = func->params[i];
        for (size_t d = 0; d < buffer->shape.size(); ++d) {
            if (buffer->shape[d]->kind() == ExprKind::kVar) continue;
            site.checks.push_back(
                {(int)i, (int)d, SlotProgram(buffer->shape[d], slots)});
        }
    }
    site.numSlots = (int)slots.size();
}

} // namespace

KernelSite&
Executable::kernelSite(const VMFunction& func, const Instr& instr) const
{
    auto [it, inserted] = kernelSites_.try_emplace(&instr);
    KernelSite& site = it->second;
    if (!inserted) return site;
    site.func = module->getTIRFunc(instr.callee);
    auto attr = site.func->attrs.find(tir::kComputePatternAttr);
    site.kind = attr != site.func->attrs.end()
                    ? tir::patternKindFromName(attr->second)
                    : tir::analyzePatternKind(site.func);
    SlotMap slots;
    layOutKernelSlots(site.func, site, slots);
    site.functionSlots.assign(site.numSlots, -1);
    for (size_t f = 0; f < func.slotVars.size(); ++f) {
        auto slot = slots.find(func.slotVars[f].get());
        if (slot != slots.end()) site.functionSlots[slot->second] = (int)f;
    }
    {
        tir::TensorProgramCost cost = tir::analyzeCost(site.func);
        site.flops = SlotProgram(cost.flops, slots).withoutExpr();
        site.bytes = SlotProgram(cost.bytes, slots).withoutExpr();
    }
    const tir::Buffer& out = site.func->params.back();
    for (size_t d = 0; d + 1 < out->shape.size(); ++d) {
        site.outRows.emplace_back(out->shape[d], slots);
    }
    std::vector<int>& key = site.costSlots;
    auto collect = [&](const SlotProgram& program) {
        std::vector<int> reads = program.reads();
        key.insert(key.end(), reads.begin(), reads.end());
    };
    collect(site.flops);
    collect(site.bytes);
    for (const SlotProgram& rows : site.outRows) collect(rows);
    std::sort(key.begin(), key.end());
    key.erase(std::unique(key.begin(), key.end()), key.end());
    return site;
}

struct Executor
{
    ExecutablePtr exec;
    std::shared_ptr<device::SimDevice> device_;
    bool dataMode_;
    std::map<std::pair<std::string, size_t>, StoragePtr>& staticStorages_;
    std::map<int64_t, int>& freePool_;
    std::set<std::pair<int64_t, std::string>>& capturedGraphs_;

    // Trace state for the currently-open execution-graph region (regions
    // never nest): its span is emitted at kGraphEnd, inside the call's
    // frame span in the vm lane.
    double graphStartTs_ = 0.0;
    bool graphReplay_ = false;
    std::string graphSignature_ = {};
    int64_t openGraphId_ = -1;
    /** Graph regions of this call that captured / replayed. */
    int64_t graphCaptures_ = 0;
    int64_t graphReplays_ = 0;
    /** The kRet value, once executed. */
    Value result_ = {};

    // Scratch reused across this call's kernel launches.
    std::vector<NDArray> args_ = {};
    std::vector<NDArray> pricedArgs_ = {};
    std::vector<int64_t> symArgs_ = {};
    std::vector<int64_t> kernelSlots_ = {};
    std::vector<int64_t> pricedSlots_ = {};
    std::vector<int64_t> shape_ = {};

    /** Executes one instruction of `fn` against the frame. */
    void step(const Instr& instr, Frame& frame, const VMFunction& fn);

    void execMatchShape(const Instr& instr, Frame& frame,
                        const VMFunction& fn);
    void execAllocStorage(const Instr& instr, Frame& frame,
                          const std::string& fn);
    void execAllocTensor(const Instr& instr, Frame& frame,
                         const std::string& fn);
    void execKernelCall(const Instr& instr, Frame& frame,
                        const VMFunction& fn);
    /** `ref_args` holds the alias check's argument copies, or is null. */
    void launchLibrary(const Instr& instr, Frame& frame,
                       std::vector<NDArray>* ref_args);
    void launchGenerated(const Instr& instr, KernelSite& site, Frame& frame,
                         std::vector<NDArray>* ref_args);
    bool bindKernelSlots(const KernelSite& site);
    NDArray standIn(Frame& frame, RegIndex reg, const NDArray& array,
                    const std::vector<int64_t>& shape);
    void execPackedCall(const Instr& instr, Frame& frame);
    void beginGraph(const Instr& instr, Frame& frame, const VMFunction& fn);
    void allocPooled(int64_t bytes, Frame& frame);
};

namespace {

/** Device counters at frame entry, for the RunStats deltas. */
struct CounterSnapshot
{
    double clockUs;
    int64_t kernelLaunches;
    int64_t totalAllocatedBytes;
};

CounterSnapshot
snapshotCounters(device::SimDevice& device)
{
    return {device.clockUs(), device.kernelLaunches(),
            device.totalAllocatedBytes()};
}

const VMFunction&
findFunction(const ExecutablePtr& exec, const std::string& name,
             size_t num_args)
{
    auto it = exec->functions.find(name);
    if (it == exec->functions.end()) {
        RELAX_THROW(RuntimeError) << "no such function: " << name;
    }
    if ((int)num_args != it->second.numParams) {
        RELAX_THROW(RuntimeError)
            << name << ": expected " << it->second.numParams
            << " arguments, got " << num_args;
    }
    return it->second;
}

/** Frame teardown: returns pool allocations, computes the RunStats
 *  and emits the frame span. */
void
finishFrame(Frame& frame, const std::string& name,
            const CounterSnapshot& snap, const Executor& executor,
            std::map<int64_t, int>& free_pool, RunStats& last,
            GraphStats& graph)
{
    // Return this call's pool allocations (runtime allocator model).
    for (int64_t bytes : frame.pooledBytes) free_pool[bytes] += 1;

    device::SimDevice& device = *executor.device_;
    last.latencyUs = device.clockUs() - snap.clockUs;
    last.kernelLaunches = device.kernelLaunches() - snap.kernelLaunches;
    last.bytesAllocated =
        device.totalAllocatedBytes() - snap.totalAllocatedBytes;
    last.graphCaptures = executor.graphCaptures_;
    last.graphReplays = executor.graphReplays_;
    last.graphBegins = last.graphCaptures + last.graphReplays;
    graph.begins += last.graphBegins;
    graph.captures += last.graphCaptures;
    graph.replays += last.graphReplays;
    TraceRecorder& trace = device.trace();
    if (trace.enabled()) {
        trace.span(trace_lanes::kVm, trace_lanes::kFrames, name, "frame",
                   snap.clockUs, last.latencyUs,
                   {{"kernels", last.kernelLaunches},
                    {"graph_begins", last.graphBegins},
                    {"graph_replays", last.graphReplays}});
    }
}

/**
 * The lockstep collective rendezvous. Every shard has reached the same
 * `ccl.*` call site with its DPS out tensor allocated; the group prices
 * ONE ring collective (a barrier plus transfer time on every member). In
 * data mode the driver then materializes the semantics across the
 * shards: all_reduce left-folds the partial sums in rank order
 * (deterministic reassociation) and writes the total to every shard;
 * all_gather concatenates the shard-local chunks along the last dim into
 * every shard's out.
 */
void
lockstepCollective(const Instr& instr, device::DeviceGroup& group,
                   std::vector<Frame>& frames, bool data_mode)
{
    size_t n = frames.size();
    std::vector<NDArray*> ins(n);
    std::vector<NDArray*> outs(n);
    for (size_t s = 0; s < n; ++s) {
        ins[s] = &asTensorValue(frames[s].regs[instr.args[0]],
                                instr.callee.c_str());
        outs[s] = &asTensorValue(frames[s].regs[instr.args.back()],
                                 instr.callee.c_str());
    }
    double payload = (double)outs[0]->sizeBytes();
    bool reduce = instr.callee == "ccl.all_reduce";
    RELAX_ICHECK(reduce || instr.callee == "ccl.all_gather")
        << "unknown collective: " << instr.callee;
    if (reduce) {
        group.allReduce(payload);
    } else {
        group.allGather(payload);
    }
    if (!data_mode) return;
    if (reduce) {
        std::vector<double> sum = ins[0]->data();
        for (size_t s = 1; s < n; ++s) {
            const std::vector<double>& part = ins[s]->data();
            for (size_t j = 0; j < sum.size(); ++j) sum[j] += part[j];
        }
        for (size_t s = 0; s < n; ++s) {
            std::copy(sum.begin(), sum.end(), outs[s]->data().begin());
        }
    } else {
        int64_t chunk = ins[0]->shape().back();
        int64_t full = outs[0]->shape().back();
        RELAX_ICHECK(chunk * (int64_t)n == full)
            << "all_gather: chunks do not tile the gathered dim";
        int64_t rows = outs[0]->numel() / full;
        for (size_t s = 0; s < n; ++s) {
            const std::vector<double>& src = ins[s]->data();
            int64_t offset = (int64_t)s * chunk;
            for (int64_t r = 0; r < rows; ++r) {
                for (int64_t j = 0; j < chunk; ++j) {
                    double value = src[r * chunk + j];
                    for (size_t t = 0; t < n; ++t) {
                        outs[t]->data()[r * full + offset + j] = value;
                    }
                }
            }
        }
    }
}

} // namespace

StoragePtr
VirtualMachine::allocPersistentStorage(int64_t bytes)
{
    RELAX_ICHECK(bytes >= 0) << "negative storage size";
    device_->alloc(bytes);
    auto storage = std::make_shared<Storage>();
    storage->bytes = bytes;
    storage->persistent = true;
    return storage;
}

void
VirtualMachine::releasePersistentStorage(const StoragePtr& storage)
{
    if (!storage || storage->bytes == 0) return;
    RELAX_ICHECK(storage->persistent)
        << "releasePersistentStorage: not a persistent chunk";
    device_->free(storage->bytes);
    storage->bytes = 0; // guards against double release
}

Value
VirtualMachine::invoke(const std::string& name,
                       const std::vector<Value>& args)
{
    return invokeLockstep({this}, nullptr, name, {args})[0];
}

std::vector<Value>
VirtualMachine::invokeLockstep(const std::vector<VirtualMachine*>& shards,
                               device::DeviceGroup* group,
                               const std::string& name,
                               const std::vector<std::vector<Value>>& args)
{
    RELAX_ICHECK(!shards.empty() && args.size() == shards.size())
        << "lockstep: one argument list per shard";
    RELAX_ICHECK(!group || (int)shards.size() == group->size())
        << "lockstep: shard count must match the device group";
    const ExecutablePtr& exec = shards[0]->exec_;
    for (VirtualMachine* shard : shards) {
        RELAX_ICHECK(shard->exec_ == exec)
            << "lockstep shards must share one executable";
    }
    const VMFunction& func = findFunction(exec, name, args[0].size());
    bool data_mode = shards[0]->dataMode_;

    size_t n = shards.size();
    std::vector<Executor> executors;
    executors.reserve(n);
    std::vector<Frame> frames(n);
    std::vector<CounterSnapshot> snaps;
    snaps.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        VirtualMachine& shard = *shards[s];
        executors.push_back(Executor{shard.exec_, shard.device_,
                                     shard.dataMode_,
                                     shard.staticStorages_,
                                     shard.freePool_,
                                     shard.capturedGraphs_});
        findFunction(exec, name, args[s].size()); // arity per shard
        frames[s].regs.resize(func.numRegs);
        frames[s].slots.assign(func.slotVars.size(), 0);
        for (size_t i = 0; i < args[s].size(); ++i) {
            frames[s].regs[i] = args[s][i];
        }
        snaps.push_back(snapshotCounters(*shard.device_));
    }

    // Instruction-outer, shard-inner: every shard executes instruction k
    // before any shard executes k+1, so all shards reach each `ccl.*`
    // site together and the group prices one collective there. Without
    // a group there is no other shard to reduce with, so a collective
    // is an error, never one shard's partial value.
    for (const Instr& instr : func.instrs) {
        if (instr.op == Instr::Op::kKernelCall && instr.isLibrary &&
            instr.callee.rfind("ccl.", 0) == 0) {
            if (!group) {
                RELAX_THROW(RuntimeError)
                    << name << ": collective '" << instr.callee
                    << "' reached without a device group (a sharded "
                       "executable runs only under invokeLockstep with "
                       "its group)";
            }
            lockstepCollective(instr, *group, frames, data_mode);
            continue;
        }
        for (size_t s = 0; s < n; ++s) {
            executors[s].step(instr, frames[s], func);
        }
    }

    std::vector<Value> results;
    results.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        VirtualMachine& shard = *shards[s];
        finishFrame(frames[s], name, snaps[s], executors[s],
                    shard.freePool_, shard.lastStats_, shard.graphStats_);
        results.push_back(executors[s].result_);
    }
    return results;
}

void
Executor::step(const Instr& instr, Frame& frame, const VMFunction& fn)
{
    TraceRecorder& trace = device_->trace();
    switch (instr.op) {
      case Instr::Op::kMatchShape:
        execMatchShape(instr, frame, fn);
        break;
      case Instr::Op::kAllocStorage:
        execAllocStorage(instr, frame, fn.name);
        break;
      case Instr::Op::kAllocTensor:
        execAllocTensor(instr, frame, fn.name);
        break;
      case Instr::Op::kKernelCall:
        execKernelCall(instr, frame, fn);
        break;
      case Instr::Op::kPackedCall:
        execPackedCall(instr, frame);
        break;
      case Instr::Op::kGraphBegin:
        beginGraph(instr, frame, fn);
        break;
      case Instr::Op::kGraphEnd:
        device_->endGraph();
        frame.padding = false;
        frame.standIns.clear();
        if (trace.enabled()) {
            // Capture vs replay is THE flag downstream tools read:
            // the Fig. 17 launch-overhead story is visible as
            // replay-flagged regions whose kernels carry the
            // graphReplayUs overhead instead of kernelLaunchUs.
            trace.span(trace_lanes::kVm, trace_lanes::kFrames,
                       graphReplay_ ? "graph(replay)"
                                    : "graph(capture)",
                       "graph", graphStartTs_,
                       device_->clockUs() - graphStartTs_,
                       {{"graph_id", openGraphId_},
                        {"signature", graphSignature_},
                        {"replay", (int64_t)(graphReplay_ ? 1 : 0)}});
        }
        openGraphId_ = -1;
        break;
      case Instr::Op::kLoadConst:
        frame.regs[instr.dst] = fn.constants[instr.index];
        break;
      case Instr::Op::kMakeTuple: {
        auto tuple = std::make_shared<TupleValue>();
        for (RegIndex reg : instr.args) {
            tuple->fields.push_back(frame.regs[reg]);
        }
        frame.regs[instr.dst] = tuple;
        break;
      }
      case Instr::Op::kGetItem: {
        auto tuple =
            std::get<TupleValuePtr>(frame.regs[instr.args[0]]);
        frame.regs[instr.dst] = tuple->fields.at(instr.index);
        break;
      }
      case Instr::Op::kRet:
        result_ = frame.regs[instr.args[0]];
        break;
    }
}

void
Executor::beginGraph(const Instr& instr, Frame& frame, const VMFunction& fn)
{
    // Key the captured graph by the bucketed shape signature: each
    // symbolic value bound so far is rounded up to its bucket ceiling,
    // so every shape in a bucket maps to one graph (captured at the
    // ceiling shape, launched padded/masked).
    int64_t block = std::max<int64_t>(instr.bucketBlock, 1);
    frame.padded = frame.slots;
    std::vector<std::pair<const std::string*, int64_t>> dims;
    dims.reserve(instr.boundSlots);
    for (int slot = 0; slot < instr.boundSlots; ++slot) {
        int64_t value = frame.slots[slot];
        int64_t padded = block > 1 ? bucketCeiling(value, block) : value;
        dims.emplace_back(&fn.slotVars[slot]->name, padded);
        if (padded != value) {
            frame.padded[slot] = padded;
            frame.padding = true;
        }
    }
    // Name-sorted for a deterministic signature (symbolic names are
    // unique within a function: b, n, m, ...).
    std::sort(dims.begin(), dims.end(), [](const auto& x, const auto& y) {
        return std::tie(*x.first, x.second) < std::tie(*y.first, y.second);
    });
    std::ostringstream signature;
    for (const auto& [name, value] : dims) {
        signature << *name << "=" << value << ",";
    }
    graphStartTs_ = device_->clockUs();
    graphSignature_ = signature.str();
    openGraphId_ = instr.graphId;
    // A region replays only a graph this VM captured: graph ids count
    // per executable, so a set shared across VMs would let one VM replay
    // another's graph.
    graphReplay_ =
        !capturedGraphs_.emplace(instr.graphId, graphSignature_).second;
    ++(graphReplay_ ? graphReplays_ : graphCaptures_);
    device_->beginGraph(graphReplay_);
}

void
Executor::execMatchShape(const Instr& instr, Frame& frame,
                         const VMFunction& fn)
{
    const NDArray& tensor =
        asTensorValue(frame.regs[instr.args[0]], "match_shape");
    // Every annotated dim is either bound or checked.
    size_t rank = instr.binds.size() + instr.checks.size();
    if (tensor.shape().size() != rank) {
        RELAX_THROW(ShapeError)
            << fn.name << ": runtime shape check failed: expected rank "
            << rank << ", got " << tensor.shape().size();
    }
    for (const Instr::Bind& bind : instr.binds) {
        int64_t value = tensor.shape()[bind.dim];
        // The static plan sized every storage for values up to the
        // bound; past it a tensor would overrun its storage.
        if (value > bind.bound) {
            RELAX_THROW(ShapeError)
                << fn.name << ": " << fn.slotVars[bind.slot]->name << " = "
                << value << " exceeds its compiled bound " << bind.bound;
        }
        frame.slots[bind.slot] = value;
        // A variable first bound inside a region is live.
        if (frame.padding) frame.padded[bind.slot] = value;
    }
    for (const auto& [dim, check] : instr.checks) {
        int64_t expected = check.eval(frame.slots.data());
        if (tensor.shape()[dim] != expected) {
            RELAX_THROW(ShapeError)
                << fn.name << ": runtime shape check failed: dim " << dim
                << " expected " << relax::toString(check.expr()) << " = "
                << expected << ", got " << tensor.shape()[dim];
        }
    }
}

void
Executor::execAllocStorage(const Instr& instr, Frame& frame,
                                 const std::string& fn)
{
    const SlotProgram& size = instr.shape[0];
    const int64_t* const_size = asIntImm(size.expr());
    if (const_size) {
        // Statically planned: allocate once, keep across invocations —
        // the "allocate all memory in advance" behavior of §4.3/§4.5.
        auto key = std::make_pair(fn, (size_t)instr.dst);
        auto [it, inserted] = staticStorages_.emplace(key, nullptr);
        if (inserted) {
            device_->alloc(*const_size);
            auto storage = std::make_shared<Storage>();
            storage->bytes = *const_size;
            storage->persistent = true;
            it->second = storage;
        }
        frame.regs[instr.dst] = it->second;
        return;
    }
    // Dynamic storage: served by the runtime pool.
    auto storage = std::make_shared<Storage>();
    storage->bytes = size.eval(frame.slots.data());
    allocPooled(storage->bytes, frame);
    frame.regs[instr.dst] = storage;
}

void
Executor::allocPooled(int64_t bytes, Frame& frame)
{
    // The runtime allocator model: an exact-size free chunk is reused,
    // anything else is new device memory; the frame returns the chunk
    // to the pool when the call exits.
    auto pool_it = freePool_.find(bytes);
    if (pool_it != freePool_.end() && pool_it->second > 0) {
        pool_it->second -= 1;
    } else {
        device_->alloc(bytes);
    }
    frame.pooledBytes.push_back(bytes);
}

void
Executor::execAllocTensor(const Instr& instr, Frame& frame,
                          const std::string& fn)
{
    std::vector<int64_t> shape;
    shape.reserve(instr.shape.size());
    for (const auto& dim : instr.shape) {
        shape.push_back(dim.eval(frame.slots.data()));
    }
    NDArray tensor = dataMode_ ? NDArray::zeros(shape, instr.dtype)
                               : NDArray::metaOnly(shape, instr.dtype);
    if (instr.args.empty()) {
        // The unplanned path: the runtime pool serves the tensor.
        allocPooled(tensor.sizeBytes(), frame);
    } else {
        // A storage operand holds the tensor with no new device memory,
        // so the tensor must fit it.
        const StoragePtr& storage =
            std::get<StoragePtr>(frame.regs[instr.args[0]]);
        if (tensor.sizeBytes() > storage->bytes) {
            RELAX_THROW(RuntimeError)
                << fn << ": a tensor of " << tensor.sizeBytes()
                << " bytes exceeds its planned storage of "
                << storage->bytes << " bytes";
        }
    }
    frame.regs[instr.dst] = tensor;
}

void
Executor::execKernelCall(const Instr& instr, Frame& frame,
                         const VMFunction& fn)
{
    args_.resize(instr.args.size());
    for (size_t i = 0; i < instr.args.size(); ++i) {
        args_[i] = asTensorValue(frame.regs[instr.args[i]],
                                 instr.callee.c_str());
    }
    // Instrumented differential mode: for in-place kernel calls, snapshot
    // every argument before the aliased run so a no-aliasing reference
    // run can be replayed on the copies and bit-compared afterwards. The
    // reference run touches neither the device clock nor the pool.
    bool alias_check = dataMode_ && aliasCheckEnabled() &&
                       instr.attrs.count("inplace_arg");
    std::vector<NDArray> ref_args;
    if (alias_check) ref_args = copyArgsForReference(args_);
    std::vector<NDArray>* ref = alias_check ? &ref_args : nullptr;
    if (instr.isLibrary) {
        launchLibrary(instr, frame, ref);
    } else {
        launchGenerated(instr, exec->kernelSite(fn, instr), frame, ref);
    }
}

NDArray
Executor::standIn(Frame& frame, RegIndex reg, const NDArray& array,
                  const std::vector<int64_t>& shape)
{
    // A metadata stand-in carries only a shape. A data-bearing one is
    // built once per region in timing mode, where no kernel writes a
    // tensor.
    if (dataMode_ || !isHostMetadata(array)) {
        return padForPricing(array, shape);
    }
    auto held = std::find_if(frame.standIns.begin(), frame.standIns.end(),
                             [&](const auto& e) { return e.first == reg; });
    if (held != frame.standIns.end() && held->second.shape() == shape) {
        return held->second;
    }
    NDArray built = padForPricing(array, shape);
    if (held == frame.standIns.end()) {
        frame.standIns.emplace_back(reg, built);
    } else {
        held->second = built;
    }
    return built;
}

void
Executor::launchLibrary(const Instr& instr, Frame& frame,
                        std::vector<NDArray>* ref_args)
{
    const LibraryKernel* kernel =
        LibraryRegistry::global().find(instr.callee);
    if (!kernel) {
        RELAX_THROW(RuntimeError)
            << "library function not linked: " << instr.callee;
    }
    RELAX_ICHECK(instr.argShapeEnds.size() == args_.size())
        << instr.callee << ": codegen records one shape per argument";
    // Inside a bucketed graph region, library kernels are priced at the
    // padded slots like generated ones: each argument's shape programs
    // are re-evaluated against the padded table and the cost model sees
    // the padded stand-ins. Compute (below) still runs on the live
    // tensors — padding affects the clock only.
    const std::vector<NDArray>* priced = &args_;
    if (frame.padding) {
        pricedArgs_.resize(args_.size());
        for (size_t i = 0; i < args_.size(); ++i) {
            pricedArgs_[i] = args_[i];
            int begin = i == 0 ? 0 : instr.argShapeEnds[i - 1];
            if (begin == instr.argShapeEnds[i]) continue;
            shape_.clear();
            for (int d = begin; d < instr.argShapeEnds[i]; ++d) {
                shape_.push_back(instr.argShapes[d].eval(frame.padded.data()));
            }
            if (shape_ != args_[i].shape()) {
                pricedArgs_[i] =
                    standIn(frame, instr.args[i], args_[i], shape_);
            }
        }
        priced = &pricedArgs_;
    }
    device_->launchKernel(kernel->cost(*priced, instr.attrs, device_->spec()),
                          instr.callee.c_str());
    if (dataMode_) {
        RELAX_ICHECK(kernel->compute)
            << instr.callee << " has no data-mode implementation";
        kernel->compute(args_, instr.attrs);
        if (ref_args) {
            kernel->compute(*ref_args, instr.attrs);
            diffAliasedRun(instr, args_, *ref_args);
        }
    }
}

bool
Executor::bindKernelSlots(const KernelSite& site)
{
    // tir::bindShapes' two rounds over the kernel slots: symbolic
    // parameters and bare variables bind (or must agree), then every
    // composite dim must evaluate to the argument's extent.
    if (args_.size() != site.ranks.size() ||
        symArgs_.size() != site.symSlots.size()) {
        return false;
    }
    kernelSlots_.assign(site.numSlots, 0);
    for (size_t i = 0; i < site.symSlots.size(); ++i) {
        kernelSlots_[site.symSlots[i]] = symArgs_[i];
    }
    const KernelSite::Dim* dim = site.dims.data();
    for (size_t i = 0; i < args_.size(); ++i) {
        const std::vector<int64_t>& shape = args_[i].shape();
        if (shape.size() != (size_t)site.ranks[i]) return false;
        for (int64_t extent : shape) {
            const KernelSite::Dim& d = *dim++;
            if (d.slot < 0) continue;
            if (d.binds) {
                kernelSlots_[d.slot] = extent;
            } else if (kernelSlots_[d.slot] != extent) {
                return false;
            }
        }
    }
    for (const KernelSite::Check& check : site.checks) {
        auto extent = check.extent.tryEval(kernelSlots_.data());
        if (extent != args_[check.param].shape()[check.dim]) return false;
    }
    return true;
}

void
Executor::launchGenerated(const Instr& instr, KernelSite& site, Frame& frame,
                          std::vector<NDArray>* ref_args)
{
    symArgs_.clear();
    for (const auto& expr : instr.symArgs) {
        symArgs_.push_back(expr.eval(frame.slots.data()));
    }
    if (!bindKernelSlots(site)) {
        tir::bindShapes(site.func, args_, symArgs_); // throws its error
        RELAX_ICHECK(false) << site.func->name
                            << ": kernel slots disagree with bindShapes";
    }
    // Inside a bucketed graph region the captured graph's kernels are
    // launched at the bucket-ceiling shapes (padded, with masking), so
    // cost is priced at the padded slots. TIR kernels share their
    // symbolic VarNodes with the graph level, which is how a kernel slot
    // finds its function slot. Data-mode compute below still uses the
    // real shapes — padding affects the clock, never the values.
    const int64_t* priced = kernelSlots_.data();
    if (frame.padding) {
        pricedSlots_ = kernelSlots_;
        for (size_t k = 0; k < pricedSlots_.size(); ++k) {
            int f = site.functionSlots[k];
            if (f >= 0 && frame.padded[f] != frame.slots[f]) {
                pricedSlots_[k] = frame.padded[f];
            }
        }
        priced = pricedSlots_.data();
    }
    // Re-price only when a slot the cost reads moved since the site was
    // last priced: steps replaying one bucket hit.
    bool hit = site.priced;
    for (size_t j = 0; hit && j < site.costSlots.size(); ++j) {
        hit = site.pricedAt[j] == priced[site.costSlots[j]];
    }
    if (!hit) {
        std::optional<int64_t> flops = site.flops.tryEval(priced);
        std::optional<int64_t> bytes = site.bytes.tryEval(priced);
        if (!flops || !bytes) {
            tir::TensorProgramCost cost = tir::analyzeCost(site.func);
            throwUnevaluable(!flops ? cost.flops : cost.bytes);
        }
        PricedKernel price;
        price.flops = (double)*flops;
        price.bytes = (double)*bytes;
        // Fused kernels lose their single-op classification; detect a
        // matmul core by arithmetic intensity instead.
        price.fma = site.kind == tir::PatternKind::kOutputEwiseFusible ||
                    (price.bytes > 0 && price.flops / price.bytes > 16.0);
        if (price.fma) {
            int64_t rows = 1;
            for (const auto& dim : site.outRows) rows *= dim.eval(priced);
            price.gemv = rows <= 1;
        }
        site.price = price;
        site.pricedAt.clear();
        for (int k : site.costSlots) site.pricedAt.push_back(priced[k]);
        site.priced = true;
    }
    const device::DeviceSpec& spec = device_->spec();
    device::KernelCost kernel_cost;
    kernel_cost.flops = site.price.flops;
    kernel_cost.bytes = site.price.bytes;
    // Matrix-vector (single output row) uses the tuned gemv schedule.
    kernel_cost.efficiency = !site.price.fma ? spec.genElemwiseEfficiency
                             : site.price.gemv ? spec.genGemvEfficiency
                                               : spec.genGemmEfficiency;
    device_->launchKernel(kernel_cost, instr.callee.c_str());
    if (dataMode_) {
        tir::run(site.func, args_, symArgs_);
        if (ref_args) {
            tir::run(site.func, *ref_args, symArgs_);
            diffAliasedRun(instr, args_, *ref_args);
        }
    }
}

void
Executor::execPackedCall(const Instr& instr, Frame& frame)
{
    const LibraryKernel* kernel =
        LibraryRegistry::global().find(instr.callee);
    if (!kernel) {
        RELAX_THROW(RuntimeError)
            << "builtin not registered: " << instr.callee;
    }
    std::vector<NDArray> args;
    for (RegIndex reg : instr.args) {
        args.push_back(asTensorValue(frame.regs[reg], "packed_call"));
    }
    device_->launchKernel(kernel->cost(args, instr.attrs, device_->spec()),
                          instr.callee.c_str());
    if (dataMode_) {
        RELAX_ICHECK(kernel->compute) << instr.callee << " not computable";
        kernel->compute(args, instr.attrs);
        frame.regs[instr.dst] = args.back();
    } else {
        // Timing mode: data-dependent output degrades to worst case.
        frame.regs[instr.dst] = args.empty() ? NDArray() : args[0];
    }
}

} // namespace vm
} // namespace relax
