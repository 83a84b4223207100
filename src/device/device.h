/**
 * @file
 * Simulated device layer: stands in for the physical GPUs of the paper's
 * evaluation (§5). Each device is described by a roofline model — memory
 * bandwidth, FP16 throughput, kernel launch overhead — plus library
 * availability and kernel-efficiency parameters calibrated to public
 * spec sheets. Executing a kernel advances a virtual clock by
 * max(bytes/bandwidth, flops/throughput)/efficiency + launch overhead;
 * allocations are tracked for the memory study (Table 2).
 *
 * See docs/DESIGN.md §1 for why a roofline simulator preserves the paper's
 * relative comparisons (who wins, crossovers vs batch size).
 */
#ifndef RELAX_DEVICE_DEVICE_H_
#define RELAX_DEVICE_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/error.h"
#include "support/trace.h"

namespace relax {
namespace device {

/** Static description of a simulated device. */
struct DeviceSpec
{
    std::string name;
    std::string backend; //!< "cuda", "rocm", "metal", "opencl", "vulkan",
                         //!< "webgpu", "cpu"

    double memBandwidthGBs = 100.0; //!< device memory bandwidth
    double fp16Tflops = 10.0;       //!< peak half-precision throughput
    double fp32Tflops = 5.0;
    double kernelLaunchUs = 5.0;    //!< per-kernel driver launch overhead
    double graphReplayUs = 0.5;     //!< per-kernel cost inside graph replay
    double graphCaptureUs = 50.0;   //!< one-time instantiation per graph
    int64_t vramBytes = int64_t(8) << 30;

    // Library availability (drives partial library lowering, §4.6).
    bool hasGemmLibrary = false;      //!< cuBLAS / rocBLAS / MPS
    bool hasAttentionLibrary = false; //!< FlashAttention
    bool hasEpilogueLibrary = false;  //!< CUTLASS-style fused norms
    bool supportsExecutionGraphs = false; //!< CUDA Graph equivalent

    // Achieved fraction of roofline peak per kernel class.
    double libGemmEfficiency = 0.85;  //!< vendor GEMM
    double genGemmEfficiency = 0.45;  //!< compiler-generated GEMM
    double genGemvEfficiency = 0.85;  //!< generated matrix-vector (bs=1)
    double genElemwiseEfficiency = 0.80;
    double libAttentionEfficiency = 0.80;
};

/** What one kernel launch costs. */
struct KernelCost
{
    double flops = 0.0;
    double bytes = 0.0;
    /** Fraction of roofline peak this kernel achieves. */
    double efficiency = 1.0;
    /** Use FP32 peak instead of FP16. */
    bool fp32 = false;
};

/**
 * A simulated device instance: virtual clock + memory accounting +
 * execution-graph pricing.
 */
class SimDevice
{
  public:
    explicit SimDevice(DeviceSpec spec) : spec_(std::move(spec)) {}

    const DeviceSpec& spec() const { return spec_; }

    /**
     * The device's trace recorder — the one clock domain of the whole
     * stack (every subsystem stamps events with this device's clockUs).
     * Disabled by default; enabling it never changes simulated timing.
     * Devices in a DeviceGroup share shard 0's recorder (shareTrace), so
     * one export holds every shard's lane.
     */
    TraceRecorder& trace() { return external_trace_ ? *external_trace_ : trace_; }
    const TraceRecorder&
    trace() const
    {
        return external_trace_ ? *external_trace_ : trace_;
    }

    /**
     * Routes this device's trace events into `recorder` on pid `lane`
     * (the per-device trace lane: pid = device index within a group).
     * The recorder must outlive this device.
     */
    void
    shareTrace(TraceRecorder& recorder, int lane)
    {
        external_trace_ = &recorder;
        traceLane_ = lane;
    }

    /**
     * Advances the clock for one kernel launch; returns its latency.
     * `name` labels the launch span when tracing is enabled (callers
     * that know the kernel symbol pass it; nullptr traces as "kernel").
     */
    double
    launchKernel(const KernelCost& cost, const char* name = nullptr)
    {
        double compute_us =
            cost.flops /
            ((cost.fp32 ? spec_.fp32Tflops : spec_.fp16Tflops) * 1e6) /
            std::max(cost.efficiency, 1e-6);
        double memory_us = cost.bytes / (spec_.memBandwidthGBs * 1e3) /
                           std::max(cost.efficiency, 1e-6);
        double overhead_us = spec_.kernelLaunchUs;
        if (replaying_) overhead_us = spec_.graphReplayUs;
        double latency = std::max(compute_us, memory_us) + overhead_us;
        double start = clockUs_;
        clockUs_ += latency;
        ++kernelLaunches_;
        if (trace().enabled()) {
            trace().span(traceLane_, trace_lanes::kKernels,
                         name ? name : "kernel", "kernel", start, latency,
                         {{"flops", cost.flops},
                          {"bytes", cost.bytes},
                          {"launch_us", overhead_us},
                          {"replay", (int64_t)(replaying_ ? 1 : 0)}});
        }
        return latency;
    }

    /** Fixed host-side overhead (framework dispatch, python glue). */
    void
    hostOverhead(double us)
    {
        clockUs_ += us;
    }

    /** Allocates device memory; throws when VRAM is exhausted, leaving
     *  the accounting and the trace untouched. */
    void
    alloc(int64_t bytes)
    {
        if (allocatedBytes_ + bytes > spec_.vramBytes) {
            RELAX_THROW(RuntimeError)
                << spec_.name << ": out of device memory ("
                << allocatedBytes_ + bytes << " bytes requested, "
                << spec_.vramBytes << " available)";
        }
        allocatedBytes_ += bytes;
        totalAllocatedBytes_ += bytes;
        peakBytes_ = std::max(peakBytes_, allocatedBytes_);
        if (trace().enabled()) traceMemory("alloc", bytes);
    }

    void
    free(int64_t bytes)
    {
        allocatedBytes_ -= bytes;
        if (trace().enabled()) traceMemory("free", bytes);
    }

    // --- execution graph (CUDA Graph) pricing ------------------------------

    /**
     * Opens an execution-graph region. Which graphs exist is the VM's
     * to know (it captured them); the device only prices the region: a
     * capture pays the one-time instantiation cost graphCaptureUs, and
     * each launch inside a replay costs graphReplayUs instead of
     * kernelLaunchUs.
     */
    void
    beginGraph(bool replay)
    {
        replaying_ = replay;
        if (!replay) clockUs_ += spec_.graphCaptureUs;
    }

    void endGraph() { replaying_ = false; }

    // --- statistics ----------------------------------------------------------

    double clockUs() const { return clockUs_; }
    int64_t allocatedBytes() const { return allocatedBytes_; }
    int64_t peakBytes() const { return peakBytes_; }
    int64_t totalAllocatedBytes() const { return totalAllocatedBytes_; }
    int64_t kernelLaunches() const { return kernelLaunches_; }

  private:
    /** Memory-lane instant + allocated-bytes counter sample (cold path:
     *  only reached with tracing on). */
    void
    traceMemory(const char* what, int64_t bytes)
    {
        trace().instant(traceLane_, trace_lanes::kMemory, what, "memory",
                        clockUs_, {{"bytes", bytes}});
        trace().counter(traceLane_, trace_lanes::kMemory,
                        "allocated_bytes", clockUs_,
                        {{"bytes", allocatedBytes_}});
    }

    DeviceSpec spec_;
    double clockUs_ = 0.0;
    int64_t allocatedBytes_ = 0;
    int64_t peakBytes_ = 0;
    int64_t totalAllocatedBytes_ = 0;
    int64_t kernelLaunches_ = 0;
    bool replaying_ = false;
    TraceRecorder trace_;
    /** When set (DeviceGroup members), events go here instead. */
    TraceRecorder* external_trace_ = nullptr;
    int traceLane_ = trace_lanes::kDevice;
};

/** Catalog of the devices used in the paper's evaluation (§5). */
DeviceSpec rtx4090();
DeviceSpec radeon7900xtx();
DeviceSpec appleM2Ultra();
DeviceSpec iphone14Pro();
DeviceSpec samsungS23();
DeviceSpec samsungS24();
DeviceSpec orangePi5();
DeviceSpec steamDeck();
DeviceSpec jetsonOrin();
DeviceSpec webgpuM3Max();

/** Looks up a device spec by name; throws on unknown names. */
DeviceSpec deviceByName(const std::string& name);

/** Every registry key, in catalog order (the deviceByName domain). */
std::vector<std::string> deviceNames();

} // namespace device
} // namespace relax

#endif // RELAX_DEVICE_DEVICE_H_
