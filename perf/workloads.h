/**
 * @file
 * Entry point of the four benchmark workloads (chat, shared_prefix,
 * cluster, compile_decode); README.md says why each exists.
 */
#ifndef RELAX_PERF_WORKLOADS_H_
#define RELAX_PERF_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perf {

/**
 * Runs `workload` on inputs drawn from `seed`: untraced passes until
 * `seconds` of host time have elapsed (at least one), then, when
 * `trace_path` is non-empty, one traced pass whose spans are written
 * there. Fills `report` with the end-to-end metrics of the untraced
 * passes, the per-layer metrics of the traced pass, and every failed
 * correctness check. Throws on an unknown workload name.
 */
void runWorkload(const std::string& workload, uint64_t seed, double seconds,
                 const std::string& trace_path, Report& report);

} // namespace perf

#endif // RELAX_PERF_WORKLOADS_H_
