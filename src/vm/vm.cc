/**
 * @file
 * The virtual machine: the library-kernel registry, the executor loop
 * (invokeLockstep — invoke() is its one-VM case), the per-instruction
 * executors (MatchShape / AllocStorage / AllocTensor / KernelCall /
 * PackedCall / GraphBegin, which decides capture or replay against the
 * VM's own captured graphs), and the path that prices generated kernels
 * on the device roofline (Executable::kernelSite +
 * generatedKernelEfficiency).
 */
#include "vm/vm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>

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
    VarBinding symbols; //!< the runtime symbolic shape table (§4.7)
    /**
     * Inside a bucketed graph region: symbolic values rounded up to the
     * region's bucket boundary. Kernel *pricing* uses these (the captured
     * graph launches padded kernels); data-mode compute always runs at
     * the real shapes, which is what keeps replay bit-identical.
     */
    VarBinding paddedSymbols;
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

/**
 * Stand-in for `array` at the padded shape: metadata-only normally, but
 * integer host tensors (e.g. the ragged length vector — the only data
 * any cost model reads) keep their values in the prefix — the padded
 * tail reads as zeros, so phantom rows price as empty sequences. Large
 * payload tensors are never copied: their cost contribution is shape-only.
 */
NDArray
padForPricing(const NDArray& array, std::vector<int64_t> padded_shape)
{
    bool host_metadata = array.hasData() && (array.dtype().isInt() ||
                                             array.dtype().isUInt());
    if (!host_metadata) {
        return NDArray::metaOnly(std::move(padded_shape), array.dtype());
    }
    NDArray padded = NDArray::zeros(padded_shape, array.dtype());
    const auto& shape = array.shape();
    std::vector<int64_t> index(shape.size(), 0);
    for (int64_t flat = 0; flat < array.numel(); ++flat) {
        padded.set(padded.flatten(index), array.at(flat));
        for (size_t d = shape.size(); d-- > 0;) {
            if (++index[d] < shape[d]) break;
            index[d] = 0;
        }
    }
    return padded;
}

/** Efficiency class of a generated kernel on the given device, given
 *  the flops and bytes it costs at `binding`. */
double
generatedKernelEfficiency(const KernelSite& site, double flops, double bytes,
                          const VarBinding& binding,
                          const device::DeviceSpec& spec)
{
    // Fused kernels lose their single-op classification; detect a matmul
    // core by arithmetic intensity instead.
    bool has_fma = site.kind == tir::PatternKind::kOutputEwiseFusible ||
                   (bytes > 0 && flops / bytes > 16.0);
    if (!has_fma) return spec.genElemwiseEfficiency;
    // Matrix-vector (single output row) uses the tuned gemv schedule.
    const tir::Buffer& out = site.func->params.back();
    int64_t rows = 1;
    for (size_t d = 0; d + 1 < out->shape.size(); ++d) {
        rows *= evalInt(out->shape[d], binding);
    }
    return rows <= 1 ? spec.genGemvEfficiency : spec.genGemmEfficiency;
}

} // namespace

const KernelSite&
Executable::kernelSite(const Instr& instr) const
{
    auto [it, inserted] = kernelSites_.try_emplace(&instr);
    KernelSite& site = it->second;
    if (inserted) {
        site.func = module->getTIRFunc(instr.callee);
        tir::TensorProgramCost cost = tir::analyzeCost(site.func);
        site.flops = cost.flops;
        site.bytes = cost.bytes;
        auto attr = site.func->attrs.find(tir::kComputePatternAttr);
        site.kind = attr != site.func->attrs.end()
                        ? tir::patternKindFromName(attr->second)
                        : tir::analyzePatternKind(site.func);
    }
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

    /** Executes one instruction against the frame. */
    void step(const Instr& instr, Frame& frame, const std::string& fn);

    void execMatchShape(const Instr& instr, Frame& frame,
                        const std::string& fn);
    void execAllocStorage(const Instr& instr, Frame& frame,
                          const std::string& fn);
    void execAllocTensor(const Instr& instr, Frame& frame);
    void execKernelCall(const Instr& instr, Frame& frame);
    void execPackedCall(const Instr& instr, Frame& frame);
    void beginGraph(const Instr& instr, Frame& frame);
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
            executors[s].step(instr, frames[s], name);
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
Executor::step(const Instr& instr, Frame& frame, const std::string& fn)
{
    TraceRecorder& trace = device_->trace();
    switch (instr.op) {
      case Instr::Op::kMatchShape:
        execMatchShape(instr, frame, fn);
        break;
      case Instr::Op::kAllocStorage:
        execAllocStorage(instr, frame, fn);
        break;
      case Instr::Op::kAllocTensor:
        execAllocTensor(instr, frame);
        break;
      case Instr::Op::kKernelCall:
        execKernelCall(instr, frame);
        break;
      case Instr::Op::kPackedCall:
        execPackedCall(instr, frame);
        break;
      case Instr::Op::kGraphBegin:
        beginGraph(instr, frame);
        break;
      case Instr::Op::kGraphEnd:
        device_->endGraph();
        frame.paddedSymbols.clear();
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
        frame.regs[instr.dst] = instr.constant;
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
Executor::beginGraph(const Instr& instr, Frame& frame)
{
    // Key the captured graph by the bucketed shape signature: each
    // symbolic value is rounded up to its bucket ceiling, so every shape
    // in a bucket maps to one graph (captured at the ceiling shape,
    // launched padded/masked).
    int64_t block = std::max<int64_t>(instr.bucketBlock, 1);
    std::vector<std::pair<std::string, int64_t>> dims;
    dims.reserve(frame.symbols.size());
    for (const auto& [v, value] : frame.symbols) {
        int64_t padded = block > 1 ? bucketCeiling(value, block) : value;
        dims.emplace_back(v->name, padded);
        if (padded != value) {
            frame.paddedSymbols[v] = padded;
        }
    }
    // Name-sorted for a deterministic signature (symbolic names are
    // unique within a function: b, n, m, ...).
    std::sort(dims.begin(), dims.end());
    std::ostringstream signature;
    for (const auto& [name, value] : dims) {
        signature << name << "=" << value << ",";
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
                               const std::string& fn)
{
    const NDArray& tensor =
        asTensorValue(frame.regs[instr.args[0]], "match_shape");
    // Every annotated dim is either bound or checked.
    size_t rank = instr.binds.size() + instr.checks.size();
    if (tensor.shape().size() != rank) {
        RELAX_THROW(ShapeError)
            << fn << ": runtime shape check failed: expected rank " << rank
            << ", got " << tensor.shape().size();
    }
    for (const auto& [dim, v] : instr.binds) {
        frame.symbols[v.get()] = tensor.shape()[dim];
    }
    for (const auto& [dim, expr] : instr.checks) {
        int64_t expected = evalInt(expr, frame.symbols);
        if (tensor.shape()[dim] != expected) {
            RELAX_THROW(ShapeError)
                << fn << ": runtime shape check failed: dim " << dim
                << " expected " << relax::toString(expr) << " = "
                << expected << ", got " << tensor.shape()[dim];
        }
    }
}

void
Executor::execAllocStorage(const Instr& instr, Frame& frame,
                                 const std::string& fn)
{
    const int64_t* const_size = asIntImm(instr.sizeExpr);
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
    storage->bytes = evalInt(instr.sizeExpr, frame.symbols);
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
Executor::execAllocTensor(const Instr& instr, Frame& frame)
{
    std::vector<int64_t> shape;
    shape.reserve(instr.shape.size());
    for (const auto& dim : instr.shape) {
        shape.push_back(evalInt(dim, frame.symbols));
    }
    NDArray tensor = dataMode_ ? NDArray::zeros(shape, instr.dtype)
                               : NDArray::metaOnly(shape, instr.dtype);
    // A storage operand holds the tensor with no new device memory;
    // without one (the unplanned path) the runtime pool serves it.
    if (instr.args.empty()) allocPooled(tensor.sizeBytes(), frame);
    frame.regs[instr.dst] = tensor;
}

void
Executor::execKernelCall(const Instr& instr, Frame& frame)
{
    std::vector<NDArray> args;
    args.reserve(instr.args.size());
    for (RegIndex reg : instr.args) {
        args.push_back(asTensorValue(frame.regs[reg],
                                     instr.callee.c_str()));
    }
    // Instrumented differential mode: for in-place kernel calls, snapshot
    // every argument before the aliased run so a no-aliasing reference
    // run can be replayed on the copies and bit-compared afterwards. The
    // reference run touches neither the device clock nor the pool.
    bool alias_check = dataMode_ && aliasCheckEnabled() &&
                       instr.attrs.count("inplace_arg");
    std::vector<NDArray> ref_args;
    if (alias_check) ref_args = copyArgsForReference(args);
    if (instr.isLibrary) {
        const LibraryKernel* kernel =
            LibraryRegistry::global().find(instr.callee);
        if (!kernel) {
            RELAX_THROW(RuntimeError)
                << "library function not linked: " << instr.callee;
        }
        RELAX_ICHECK(instr.argShapes.size() == args.size())
            << instr.callee << ": codegen records one shape per argument";
        // Inside a bucketed graph region, library kernels are priced at
        // the padded binding like generated ones: each argument's shape
        // expressions are re-evaluated with the padded symbol values and
        // the cost model sees the padded stand-ins. Compute (below) still
        // runs on the live tensors — padding affects the clock only.
        const std::vector<NDArray>* priced = &args;
        std::vector<NDArray> padded;
        if (!frame.paddedSymbols.empty()) {
            VarBinding padded_syms = frame.symbols;
            for (const auto& [v, value] : frame.paddedSymbols) {
                padded_syms[v] = value;
            }
            padded = args;
            for (size_t i = 0; i < args.size(); ++i) {
                if (instr.argShapes[i].empty()) continue;
                std::vector<int64_t> padded_shape;
                padded_shape.reserve(instr.argShapes[i].size());
                for (const auto& dim : instr.argShapes[i]) {
                    padded_shape.push_back(evalInt(dim, padded_syms));
                }
                if (padded_shape != args[i].shape()) {
                    padded[i] = padForPricing(args[i],
                                              std::move(padded_shape));
                }
            }
            priced = &padded;
        }
        device_->launchKernel(
            kernel->cost(*priced, instr.attrs, device_->spec()),
            instr.callee.c_str());
        if (dataMode_) {
            RELAX_ICHECK(kernel->compute)
                << instr.callee << " has no data-mode implementation";
            kernel->compute(args, instr.attrs);
            if (alias_check) {
                kernel->compute(ref_args, instr.attrs);
                diffAliasedRun(instr, args, ref_args);
            }
        }
        return;
    }
    const KernelSite& site = exec->kernelSite(instr);
    std::vector<int64_t> sym_args;
    for (const auto& expr : instr.symExprs) {
        sym_args.push_back(evalInt(expr, frame.symbols));
    }
    VarBinding binding = tir::bindShapes(site.func, args, sym_args);
    // Inside a bucketed graph region the captured graph's kernels are
    // launched at the bucket-ceiling shapes (padded, with masking), so
    // cost is priced at the padded binding. TIR kernels share their
    // symbolic VarNodes with the graph level, which makes the override a
    // direct key lookup. Data-mode compute below still uses the real
    // shapes — padding affects the clock, never the values.
    const VarBinding* priced = &binding;
    VarBinding padded_binding;
    if (!frame.paddedSymbols.empty()) {
        padded_binding = binding;
        for (auto& [v, value] : padded_binding) {
            auto padded = frame.paddedSymbols.find(v);
            if (padded != frame.paddedSymbols.end()) {
                value = padded->second;
            }
        }
        priced = &padded_binding;
    }
    device::KernelCost kernel_cost;
    kernel_cost.flops = (double)evalInt(site.flops, *priced);
    kernel_cost.bytes = (double)evalInt(site.bytes, *priced);
    kernel_cost.efficiency = generatedKernelEfficiency(
        site, kernel_cost.flops, kernel_cost.bytes, *priced,
        device_->spec());
    device_->launchKernel(kernel_cost, instr.callee.c_str());
    if (dataMode_) {
        tir::run(site.func, args, sym_args);
        if (alias_check) {
            tir::run(site.func, ref_args, sym_args);
            diffAliasedRun(instr, args, ref_args);
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
