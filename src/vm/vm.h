/**
 * @file
 * The Relax virtual machine: executes compiled modules on a simulated
 * device. One executor loop, invokeLockstep, runs a function on one VM or
 * in lockstep across the VMs of a tensor-parallel device group; invoke()
 * is its one-VM case. Two execution modes share that loop:
 *  - data mode: kernels run on the reference interpreter with real
 *    tensors (tests, examples);
 *  - timing mode: tensors are metadata-only and only shapes, memory
 *    accounting and the device's virtual clock advance — how the
 *    benchmark harness executes paper-scale models.
 * Symbolic shapes live in a per-call slot table that instructions read
 * through flat programs (exec.h), and each generated-kernel call site
 * re-prices only when the padded slot values its cost reads change. A
 * call that would leave its static memory plan is refused: a symbolic
 * value past its compiled bound where it binds (ShapeError), or a tensor
 * past its planned storage (RuntimeError).
 */
#ifndef RELAX_VM_VM_H_
#define RELAX_VM_VM_H_

#include <functional>
#include <memory>
#include <set>
#include <variant>

#include "device/device.h"
#include "tir/ndarray.h"
#include "vm/exec.h"

namespace relax {

namespace device {
class DeviceGroup;
} // namespace device

namespace vm {

/** Device-side storage chunk produced by alloc_storage. */
struct Storage
{
    int64_t bytes = 0;
    bool persistent = false; //!< statically pre-allocated (kept across calls)
};
using StoragePtr = std::shared_ptr<Storage>;

struct TupleValue;
using TupleValuePtr = std::shared_ptr<TupleValue>;

/** A VM register value. */
using Value = std::variant<std::monostate, NDArray, StoragePtr,
                           TupleValuePtr, int64_t>;

struct TupleValue
{
    std::vector<Value> fields;
};

/** Per-invocation statistics. */
struct RunStats
{
    double latencyUs = 0.0;
    int64_t kernelLaunches = 0;
    int64_t bytesAllocated = 0; //!< new device allocations this call
    int64_t graphBegins = 0;    //!< graph regions entered this call
    int64_t graphCaptures = 0;  //!< regions that missed and captured
    int64_t graphReplays = 0;   //!< regions that replayed this VM's graph
};

/** Cumulative execution-graph counters across every invoke(). */
struct GraphStats
{
    int64_t begins = 0;
    int64_t captures = 0;
    int64_t replays = 0;

    /** Fraction of graph regions that replayed instead of capturing. */
    double
    hitRate() const
    {
        return begins > 0 ? (double)replays / (double)begins : 0.0;
    }
};

/**
 * Library/builtin function: computes cost and (in data mode) the result.
 * Inputs/outputs follow DPS for library kernels; packed builtins return a
 * fresh value instead.
 */
struct LibraryKernel
{
    std::function<device::KernelCost(const std::vector<NDArray>& args,
                                     const ir::Attrs& attrs,
                                     const device::DeviceSpec& spec)>
        cost;
    /** DPS compute over real data (last numOutputs args are outputs). */
    std::function<void(std::vector<NDArray>& args, const ir::Attrs& attrs)>
        compute;
};

/** Global registry of simulated vendor libraries and runtime builtins. */
class LibraryRegistry
{
  public:
    static LibraryRegistry& global();

    void registerKernel(const std::string& name, LibraryKernel kernel);
    const LibraryKernel* find(const std::string& name) const;

  private:
    std::map<std::string, LibraryKernel> kernels_;
};

/** Registers the simulated cublas/rocblas/mps/flashattn/cutlass kernels
 *  and runtime builtins (idempotent). */
void ensureLibrariesRegistered();

/**
 * Cumulative count (process-wide) of in-place kernel invocations verified
 * by the RELAX_ALIAS_CHECK differential mode: each one ran twice — once
 * aliased, once copy-in/copy-out — and bit-compared clean. Zero when the
 * mode is off or no in-place sites executed in data mode.
 */
int64_t aliasChecksPerformed();

/** The virtual machine. */
class VirtualMachine
{
  public:
    VirtualMachine(ExecutablePtr exec,
                   std::shared_ptr<device::SimDevice> dev, bool data_mode)
        : exec_(std::move(exec)), device_(std::move(dev)),
          dataMode_(data_mode)
    {
        ensureLibrariesRegistered();
    }

    /**
     * Invokes a compiled function on this VM alone: invokeLockstep over
     * {this} with no device group, so a `ccl.*` site throws.
     */
    Value invoke(const std::string& name, const std::vector<Value>& args);

    /**
     * The VM's executor loop: runs one compiled function across the
     * shard VMs in instruction lockstep. All shards must share one
     * executable (ShardPass emits a single per-shard program); shard s
     * runs on its own device with its own argument list. Every `ccl.*`
     * library call is a rendezvous at which `group` prices one ring
     * collective (barrier + transfer on every member) and, in data mode,
     * the driver materializes its semantics across the shards (rank-order
     * left-fold sum for all_reduce, last-dim concat for all_gather), so
     * results are deterministic. Collectives do not count as kernel
     * launches and are graph-capture-insensitive. A null `group` admits
     * no collective: a `ccl.*` site then throws RuntimeError naming it.
     * Returns shard s's result in slot s and updates each shard's
     * RunStats.
     */
    static std::vector<Value>
    invokeLockstep(const std::vector<VirtualMachine*>& shards,
                   device::DeviceGroup* group, const std::string& name,
                   const std::vector<std::vector<Value>>& args);

    /**
     * Allocates a persistent device storage chunk outside any compiled
     * function — how the serving layer owns KV-cache pages: accounted
     * against the device's VRAM like static plan storage, kept across
     * invocations until released.
     */
    StoragePtr allocPersistentStorage(int64_t bytes);

    /** Releases a chunk from allocPersistentStorage (idempotent). */
    void releasePersistentStorage(const StoragePtr& storage);

    /** Statistics of the most recent invoke(). */
    const RunStats& lastRunStats() const { return lastStats_; }

    /** Cumulative graph capture/replay counters across all invokes. */
    const GraphStats& graphStats() const { return graphStats_; }

    device::SimDevice& dev() { return *device_; }
    bool dataMode() const { return dataMode_; }

  private:
    ExecutablePtr exec_;
    std::shared_ptr<device::SimDevice> device_;
    bool dataMode_;
    RunStats lastStats_;
    GraphStats graphStats_;
    /**
     * The execution graphs this VM captured, keyed by (graph id,
     * bucketed shape signature). A region replays only a graph this VM
     * captured itself, so VMs sharing one device (a serving engine's
     * target and draft) never replay each other's graphs.
     */
    std::set<std::pair<int64_t, std::string>> capturedGraphs_;
    /** Statically planned storages, pre-allocated once and kept. */
    std::map<std::pair<std::string, size_t>, StoragePtr> staticStorages_;
    /** Runtime memory pool (unplanned path): exact-size free lists. */
    std::map<int64_t, int> freePool_;
};

} // namespace vm
} // namespace relax

#endif // RELAX_VM_VM_H_
