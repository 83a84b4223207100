/**
 * @file
 * MetricsRegistry: named gauges and histograms. Event counts are not
 * stored here — each lives once, in its owner's typed field (EngineStats,
 * KVCacheManager, RouterStats), and joins the snapshot by name at export
 * time. Owners resolve handles once at construction (std::map nodes never
 * move), so every hot-path update is one arithmetic op and metrics,
 * unlike tracing, never turn off.
 *
 *  - Gauge: last/min/max/mean of a sampled value (KV pool occupancy and
 *    free pages per step, replay hit-rate, ...).
 *  - Histogram: full value retention with exact percentiles (TTFT and
 *    inter-token latency in virtual-clock microseconds) — the repo's
 *    runs are small enough that exactness beats bucketing, and the
 *    stored values make ground-truth checks trivial (the fuzz oracle
 *    asserts count == finished requests).
 *
 * snapshotJson() serializes the owner's counters and the whole registry
 * deterministically (name-ordered maps, fixed float formatting):
 * identical seeded runs must produce byte-identical metrics JSON — the
 * determinism tripwire in scripts/check.sh diffs two serving-bench runs.
 * See docs/DESIGN.md §7 for the observability contract.
 */
#ifndef RELAX_SUPPORT_METRICS_H_
#define RELAX_SUPPORT_METRICS_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace relax {

/** Point-in-time sampled value with min/max/mean over all samples. */
class Gauge
{
  public:
    void
    sample(double value)
    {
        last_ = value;
        sum_ += value;
        if (count_ == 0 || value < min_) min_ = value;
        if (count_ == 0 || value > max_) max_ = value;
        ++count_;
    }

    double last() const { return last_; }
    double min() const { return count_ > 0 ? min_ : 0.0; }
    double max() const { return count_ > 0 ? max_ : 0.0; }
    double mean() const { return count_ > 0 ? sum_ / (double)count_ : 0.0; }
    int64_t samples() const { return count_; }

  private:
    double last_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
    int64_t count_ = 0;
};

/** Exact-percentile latency distribution (values retained). */
class Histogram
{
  public:
    void record(double value);

    int64_t count() const { return (int64_t)values_.size(); }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /**
     * Exact percentile via nearest-rank on the sorted values:
     * index round((n - 1) * p) — the same convention the serving bench
     * has always used for its TTFT table, so registry percentiles and
     * historical bench numbers stay comparable.
     */
    double percentile(double p) const;

    const std::vector<double>& values() const { return values_; }

  private:
    mutable std::vector<double> values_; //!< lazily sorted by percentile()
    mutable bool sorted_ = true;
    double sum_ = 0.0;
};

/**
 * Named gauges and histograms, created on first use. Names are dotted
 * paths ("serve.ttft_us", "kv.occupancy"); the maps are ordered so JSON
 * snapshots are deterministic.
 */
class MetricsRegistry
{
  public:
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    Histogram& histogram(const std::string& name)
    {
        return histograms_[name];
    }

    const std::map<std::string, Gauge>& gauges() const { return gauges_; }
    const std::map<std::string, Histogram>& histograms() const
    {
        return histograms_;
    }

    /**
     * Serializes the owner's nonzero `counters` and every registry metric
     * as one JSON object: {"counters": {name: value}, "gauges": {name:
     * {last,min,max,mean,samples}}, "histograms": {name: {count,sum,min,
     * max,mean,p50,p95,p99}}}. Deterministic (ordered names, "%.3f").
     */
    void snapshotJson(std::ostream& os,
                      const std::map<std::string, int64_t>& counters) const;

  private:
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace relax

#endif // RELAX_SUPPORT_METRICS_H_
