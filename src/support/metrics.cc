/**
 * @file
 * MetricsRegistry implementation: histogram percentile math (lazy sort,
 * nearest-rank) and the deterministic JSON snapshot writer (see
 * metrics.h).
 */
#include "support/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace relax {

void
Histogram::record(double value)
{
    values_.push_back(value);
    sum_ += value;
    sorted_ = values_.size() <= 1;
}

double
Histogram::min() const
{
    if (values_.empty()) return 0.0;
    return *std::min_element(values_.begin(), values_.end());
}

double
Histogram::max() const
{
    if (values_.empty()) return 0.0;
    return *std::max_element(values_.begin(), values_.end());
}

double
Histogram::mean() const
{
    return values_.empty() ? 0.0 : sum_ / (double)values_.size();
}

double
Histogram::percentile(double p) const
{
    if (values_.empty()) return 0.0;
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    p = std::min(std::max(p, 0.0), 1.0);
    size_t idx = (size_t)((double)(values_.size() - 1) * p + 0.5);
    return values_[idx];
}

namespace {

void
writeDouble(std::ostream& os, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    os << buf;
}

} // namespace

void
MetricsRegistry::snapshotJson(
    std::ostream& os, const std::map<std::string, int64_t>& counters) const
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
        if (value == 0) continue; // a tally that never moved
        os << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : gauges_) {
        os << (first ? "" : ",") << "\n    \"" << name << "\": {\"last\": ";
        writeDouble(os, gauge.last());
        os << ", \"min\": ";
        writeDouble(os, gauge.min());
        os << ", \"max\": ";
        writeDouble(os, gauge.max());
        os << ", \"mean\": ";
        writeDouble(os, gauge.mean());
        os << ", \"samples\": " << gauge.samples() << "}";
        first = false;
    }
    os << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : histograms_) {
        os << (first ? "" : ",") << "\n    \"" << name
           << "\": {\"count\": " << histogram.count() << ", \"sum\": ";
        writeDouble(os, histogram.sum());
        os << ", \"min\": ";
        writeDouble(os, histogram.min());
        os << ", \"max\": ";
        writeDouble(os, histogram.max());
        os << ", \"mean\": ";
        writeDouble(os, histogram.mean());
        os << ", \"p50\": ";
        writeDouble(os, histogram.percentile(0.50));
        os << ", \"p95\": ";
        writeDouble(os, histogram.percentile(0.95));
        os << ", \"p99\": ";
        writeDouble(os, histogram.percentile(0.99));
        os << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

} // namespace relax
