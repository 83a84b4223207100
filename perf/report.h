/**
 * @file
 * What one benchmark process reports: named metrics with their unit and
 * clock, the requests it attempted, and every correctness check that
 * failed. Printed as one JSON line that perf/run.py reads.
 */
#ifndef RELAX_PERF_REPORT_H_
#define RELAX_PERF_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perf {

/**
 * kExact values come from the simulated device clock or are counts: for
 * one seed they repeat bit for bit. kHost values are wall-clock
 * measurements of the compiler, VM and engine themselves.
 */
enum class Clock { kExact, kHost };

/** End-to-end metrics are what a user sees; layer metrics explain them. */
enum class Scope { kEndToEnd, kLayer };

struct Metric
{
    Scope scope;
    std::string name;
    double value;
    std::string unit;
    Clock clock;
};

struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::string> errors;
    int64_t attempted = 0; //!< requests sent
    int64_t failed = 0;    //!< requests that broke a per-request check

    void
    add(Scope scope, std::string name, double value, std::string unit,
        Clock clock)
    {
        metrics.push_back(
            {scope, std::move(name), value, std::move(unit), clock});
    }

    /** Records `what` as a failed check when `ok` is false. */
    void
    check(bool ok, const std::string& what)
    {
        if (!ok) errors.push_back(what);
    }

    void
    print(std::FILE* out, const std::string& workload, uint64_t seed) const
    {
        std::fprintf(out,
                     "{\"workload\":\"%s\",\"seed\":%llu,\"attempted\":%lld,"
                     "\"failed\":%lld,\"errors\":[",
                     workload.c_str(), (unsigned long long)seed,
                     (long long)attempted, (long long)failed);
        for (size_t i = 0; i < errors.size(); ++i) {
            std::fprintf(out, "%s\"", i ? "," : "");
            for (char c : errors[i]) {
                if (c == '"' || c == '\\') std::fputc('\\', out);
                std::fputc(c == '\n' ? ' ' : c, out);
            }
            std::fputc('"', out);
        }
        std::fprintf(out, "],\"metrics\":{");
        for (size_t i = 0; i < metrics.size(); ++i) {
            const Metric& m = metrics[i];
            std::fprintf(out,
                         "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\","
                         "\"clock\":\"%s\",\"scope\":\"%s\"}",
                         i ? "," : "", m.name.c_str(), m.value,
                         m.unit.c_str(),
                         m.clock == Clock::kExact ? "exact" : "host",
                         m.scope == Scope::kEndToEnd ? "end_to_end"
                                                     : "per_layer");
        }
        std::fprintf(out, "}}\n");
    }
};

} // namespace perf

#endif // RELAX_PERF_REPORT_H_
