/**
 * @file
 * relax_perf: runs one benchmark workload and prints its report as one
 * JSON line on stdout. perf/run.py builds and drives it:
 *
 *   relax_perf --workload NAME --seed N --seconds S [--trace-out PATH]
 *
 * Exits 1 when a correctness check fails, 2 on a usage error.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

int
main(int argc, char** argv)
{
    std::string workload, trace_path;
    unsigned long long seed = 1;
    double seconds = 0.0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace-out") {
            trace_path = value;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    if (workload.empty() || argc % 2 == 0) {
        std::fprintf(stderr, "usage: relax_perf --workload NAME --seed N "
                             "--seconds S [--trace-out PATH]\n");
        return 2;
    }
    perf::Report report;
    try {
        perf::runWorkload(workload, seed, seconds, trace_path, report);
    } catch (const std::exception& e) {
        report.errors.push_back(std::string("exception: ") + e.what());
    }
    report.print(stdout, workload, seed);
    for (const std::string& error : report.errors) {
        std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    }
    return report.errors.empty() && report.failed == 0 ? 0 : 1;
}
