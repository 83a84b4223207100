/**
 * @file
 * Tests for the simulated device layer: roofline cost behavior, memory
 * accounting and VRAM limits, and execution-graph capture/replay pricing.
 */
#include <gtest/gtest.h>

#include "device/device.h"

namespace relax {
namespace device {
namespace {

TEST(DeviceTest, CatalogCoversEveryEvaluationPlatform)
{
    for (const char* name :
         {"rtx4090", "radeon7900xtx", "m2ultra", "iphone14pro", "s23",
          "s24", "orangepi5", "steamdeck", "jetsonorin", "webgpu_m3max"}) {
        DeviceSpec spec = deviceByName(name);
        EXPECT_FALSE(spec.name.empty());
        EXPECT_GT(spec.memBandwidthGBs, 0.0);
        EXPECT_GT(spec.fp16Tflops, 0.0);
        EXPECT_GT(spec.vramBytes, 0);
    }
    EXPECT_THROW(deviceByName("tpu_v9"), RuntimeError);
}

TEST(DeviceTest, RooflinePicksMemoryOrComputeBound)
{
    SimDevice dev(rtx4090());
    // Memory-bound: 1 GB at ~1 TB/s ≈ 1 ms.
    KernelCost memory_bound{1e3, 1e9, 1.0, false};
    double t1 = dev.launchKernel(memory_bound);
    EXPECT_NEAR(t1, 1e9 / (1008.0 * 1e3) + 3.0, 1.0);
    // Compute-bound: 1 TFLOP at 165 TFLOPS ≈ 6 ms.
    KernelCost compute_bound{1e12, 1e3, 1.0, false};
    double t2 = dev.launchKernel(compute_bound);
    EXPECT_GT(t2, 5000.0);
    EXPECT_LT(t2, 8000.0);
}

TEST(DeviceTest, EfficiencyScalesLatency)
{
    SimDevice dev(rtx4090());
    KernelCost half{0.0, 1e9, 0.5, false};
    KernelCost full{0.0, 1e9, 1.0, false};
    double slow = dev.launchKernel(half);
    double fast = dev.launchKernel(full);
    EXPECT_NEAR(slow - 3.0, 2.0 * (fast - 3.0), 1e-6);
}

TEST(DeviceTest, TracksAllocationsAndPeak)
{
    SimDevice dev(rtx4090());
    dev.alloc(100);
    dev.alloc(50);
    EXPECT_EQ(dev.allocatedBytes(), 150);
    EXPECT_EQ(dev.peakBytes(), 150);
    dev.free(100);
    EXPECT_EQ(dev.allocatedBytes(), 50);
    EXPECT_EQ(dev.peakBytes(), 150); // peak is sticky
    EXPECT_EQ(dev.totalAllocatedBytes(), 150);
}

TEST(DeviceTest, VramLimitEnforced)
{
    DeviceSpec spec = iphone14Pro();
    SimDevice dev(spec);
    EXPECT_THROW(dev.alloc(spec.vramBytes + 1), RuntimeError);
    // A refused allocation changes no counter.
    EXPECT_EQ(dev.allocatedBytes(), 0);
    EXPECT_EQ(dev.totalAllocatedBytes(), 0);
    EXPECT_EQ(dev.peakBytes(), 0);
}

TEST(DeviceTest, GraphReplayAfterCapture)
{
    // The device only prices graph regions; which signature captures
    // and which replays is the VM's to decide (GraphReplayTest.*).
    SimDevice dev(rtx4090());
    KernelCost kernel{0.0, 1e6, 1.0, false};
    double before = dev.clockUs();
    dev.beginGraph(/*replay=*/false); // capture: one-time instantiation
    EXPECT_DOUBLE_EQ(dev.clockUs() - before, dev.spec().graphCaptureUs);
    double capture = dev.launchKernel(kernel);
    dev.endGraph();
    before = dev.clockUs();
    dev.beginGraph(/*replay=*/true); // replay: no instantiation
    EXPECT_DOUBLE_EQ(dev.clockUs(), before);
    double replay = dev.launchKernel(kernel);
    dev.endGraph();
    EXPECT_LT(replay, capture);
    // Outside a region a launch pays kernelLaunchUs again.
    EXPECT_DOUBLE_EQ(dev.launchKernel(kernel), capture);
}

TEST(DeviceTest, LibraryAvailabilityMatchesBackends)
{
    EXPECT_TRUE(rtx4090().hasGemmLibrary);
    EXPECT_TRUE(rtx4090().supportsExecutionGraphs);
    EXPECT_TRUE(radeon7900xtx().hasGemmLibrary);
    EXPECT_FALSE(radeon7900xtx().hasAttentionLibrary);
    EXPECT_FALSE(appleM2Ultra().supportsExecutionGraphs);
    EXPECT_FALSE(samsungS23().hasGemmLibrary); // no vendor BLAS on Adreno
    EXPECT_FALSE(webgpuM3Max().hasGemmLibrary);
}

} // namespace
} // namespace device
} // namespace relax
