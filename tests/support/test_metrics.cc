/**
 * @file
 * Tests for the MetricsRegistry: gauge/histogram semantics, the
 * nearest-rank percentile convention (shared with the serving bench),
 * create-on-first-use naming with stable handles, and deterministic JSON
 * snapshots.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "support/metrics.h"

namespace relax {
namespace {

TEST(MetricsTest, GaugeTracksLastMinMaxMean)
{
    Gauge g;
    EXPECT_EQ(g.samples(), 0);
    EXPECT_DOUBLE_EQ(g.mean(), 0.0);
    g.sample(4.0);
    g.sample(2.0);
    g.sample(6.0);
    EXPECT_DOUBLE_EQ(g.last(), 6.0);
    EXPECT_DOUBLE_EQ(g.min(), 2.0);
    EXPECT_DOUBLE_EQ(g.max(), 6.0);
    EXPECT_DOUBLE_EQ(g.mean(), 4.0);
    EXPECT_EQ(g.samples(), 3);
}

TEST(MetricsTest, HistogramPercentileUsesNearestRank)
{
    Histogram h;
    // Recorded out of order on purpose: percentile() sorts lazily.
    for (double v : {50.0, 10.0, 40.0, 20.0, 30.0}) h.record(v);
    EXPECT_EQ(h.count(), 5);
    EXPECT_DOUBLE_EQ(h.min(), 10.0);
    EXPECT_DOUBLE_EQ(h.max(), 50.0);
    EXPECT_DOUBLE_EQ(h.mean(), 30.0);
    // Nearest rank: idx = round((n - 1) * p), the bench's convention.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 30.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 50.0);
    // Recording after a percentile() read still works (re-sorts).
    h.record(5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 5.0);
}

TEST(MetricsTest, RegistryCreatesOnFirstUseAndKeepsIdentity)
{
    MetricsRegistry registry;
    // A handle resolved once stays the live instance as the map grows.
    Histogram* ttft = &registry.histogram("serve.ttft_us");
    registry.histogram("serve.itl_us").record(1.0);
    ttft->record(100.0);
    EXPECT_EQ(&registry.histogram("serve.ttft_us"), ttft);
    EXPECT_EQ(registry.histograms().at("serve.ttft_us").count(), 1);
    EXPECT_EQ(registry.histograms().size(), 2u);
    EXPECT_TRUE(registry.gauges().empty());
}

TEST(MetricsTest, SnapshotJsonIsDeterministicAndNameOrdered)
{
    auto build = [] {
        MetricsRegistry registry;
        // Inserted in non-alphabetical order; the snapshot must sort.
        registry.gauge("zeta").sample(2.0);
        registry.gauge("kv.occupancy").sample(0.5);
        registry.histogram("ttft").record(10.0);
        registry.histogram("ttft").record(30.0);
        std::ostringstream os;
        registry.snapshotJson(
            os, {{"serve.steps", 3}, {"kv.cow_copies", 1}, {"zero", 0}});
        return os.str();
    };
    std::string json = build();
    EXPECT_EQ(json, build());
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_LT(json.find("\"kv.cow_copies\": 1"),
              json.find("\"serve.steps\": 3"));
    EXPECT_NE(json.find("\"serve.steps\": 3"), std::string::npos);
    EXPECT_EQ(json.find("\"zero\""), std::string::npos); // never moved
    EXPECT_LT(json.find("\"kv.occupancy\""), json.find("\"zeta\""));
    EXPECT_NE(json.find("\"p99\": 30.000"), std::string::npos);
}

} // namespace
} // namespace relax
