/**
 * @file
 * Cluster-router overload driver: a seeded Poisson arrival trace offered
 * at ~2.5x the measured aggregate capacity of M engine replicas, driven
 * through the Router's discrete-event loop in timing mode. Two arms run
 * the identical trace:
 *
 *  - no-shed (control): every arrival is admitted. Under sustained
 *    overload the queues — and therefore the admitted-request TTFT tail
 *    — grow with the length of the trace.
 *  - shed: the router rejects arrivals once even the least-loaded
 *    replica's outstanding-token charge exceeds a cap sized to a few
 *    full batches. Admitted requests then wait behind a bounded queue,
 *    so the p99 TTFT stays flat no matter how long the overload lasts.
 *
 * The headline number is admitted p99 TTFT under overload, read from
 * the router's own `router.ttft_us` histogram (shed requests never
 * enter it). Exit status is non-zero when the shed arm fails to shed,
 * sheds everything, or does not beat the control's p99 by at least 4x;
 * when a third per-tenant-budget run fails to reject the flooding
 * tenant's overage while leaving the well-behaved tenants untouched;
 * or when the router.ttft_us histogram misses a finished request.
 *
 * Replica capacity is measured, not assumed: a closed-loop calibration
 * run saturates one replica and the offered rate is derived from its
 * tokens/s, so the bench stays ~2.5x overloaded as the engine gets
 * faster. Results are written to BENCH_router.json (override with
 * --bench-json=PATH); all output is deterministic for the fixed seed.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "serve/router.h"

namespace {

using namespace relax;

/** An 8-layer Llama3-8B-dims variant: real serving shapes, quick steps. */
frontend::LlamaConfig
benchConfig()
{
    frontend::LlamaConfig config = frontend::LlamaConfig::llama3_8b();
    config.name = "llama3-8b-8l";
    config.numLayers = 8;
    return config;
}

frontend::CompileOptions
compileOptionsFor(const device::DeviceSpec& spec)
{
    frontend::CompileOptions options;
    options.device = spec;
    // Prompts <= 64 and batch cap 8: one step's packed fresh tokens fit
    // 64 (prefill cap) + 7 decode rows; re-prefill of 64 + 16 generated
    // stays under the same bound.
    options.bounds = {{"b", 8}, {"n", 96}};
    return options;
}

serve::EngineOptions
engineOptions()
{
    serve::EngineOptions options;
    options.scheduler.maxBatchSize = 8;
    options.scheduler.maxPrefillTokensPerStep = 64;
    options.kvBlockTokens = 16;
    return options;
}

std::unique_ptr<serve::Engine>
buildReplica(const device::DeviceSpec& spec)
{
    return serve::Engine::build(benchConfig(), compileOptionsFor(spec),
                                /*data_mode=*/false, engineOptions());
}

struct RouterArrival
{
    double timeUs = 0.0;
    std::string tenant;
    std::vector<int64_t> prompt;
    int64_t maxNewTokens = 0;
};

/**
 * The overload trace: `num_requests` arrivals as a seeded Poisson
 * process at `requests_per_sec`, prompts cycling 16/32/64 tokens,
 * tenants cycling t0..t3.
 */
std::vector<RouterArrival>
makeTrace(int num_requests, int64_t max_new_tokens,
          double requests_per_sec, unsigned seed)
{
    std::mt19937 rng(seed);
    std::exponential_distribution<double> gap(requests_per_sec / 1e6);
    const int64_t prompt_lengths[] = {16, 32, 64};
    std::vector<RouterArrival> trace;
    trace.reserve(num_requests);
    double t = 0.0;
    for (int i = 0; i < num_requests; ++i) {
        t += gap(rng);
        RouterArrival arrival;
        arrival.timeUs = t;
        arrival.tenant = "t" + std::to_string(i % 4);
        arrival.prompt.assign(prompt_lengths[i % 3], 1 + i % 7);
        arrival.maxNewTokens = max_new_tokens;
        trace.push_back(std::move(arrival));
    }
    return trace;
}

struct ArmResult
{
    serve::RouterStats stats;
    double p50TtftUs = 0.0;
    double p99TtftUs = 0.0;
    double makespanUs = 0.0;
    double admittedToksPerSec = 0.0;
};

ArmResult
runArm(int replicas, const std::vector<RouterArrival>& trace,
       const serve::RouterOptions& options)
{
    device::DeviceSpec spec = device::rtx4090();
    std::vector<std::unique_ptr<serve::Engine>> engines;
    for (int i = 0; i < replicas; ++i) engines.push_back(buildReplica(spec));
    serve::Router router(std::move(engines), options);
    for (const RouterArrival& a : trace) {
        router.submit(a.tenant, a.prompt, a.maxNewTokens, a.timeUs);
    }
    ArmResult result;
    result.stats = router.run();
    const Histogram& ttft = router.metrics().histogram("router.ttft_us");
    if (ttft.count() > 0) {
        result.p50TtftUs = ttft.percentile(0.50);
        result.p99TtftUs = ttft.percentile(0.99);
    }
    // Every finished request must have entered the admitted-TTFT
    // histogram the p99 gate reads.
    if (ttft.count() != result.stats.finished) {
        std::cerr << "FAIL: router.ttft_us holds " << ttft.count()
                  << " samples for " << result.stats.finished
                  << " finished requests\n";
        std::exit(1);
    }
    int64_t tokens = 0;
    double makespan = 0.0;
    for (int r = 0; r < router.replicaCount(); ++r) {
        tokens += router.replica(r).stats().tokensGenerated;
        makespan = std::max(
            makespan, router.replica(r).machine().dev().clockUs());
    }
    result.makespanUs = makespan;
    result.admittedToksPerSec =
        makespan > 0 ? (double)tokens / makespan * 1e6 : 0.0;
    return result;
}

/** Fixed "%.3f" float formatting (deterministic, locale-free). */
std::string
fmt3(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return buf;
}

void
writeArmJson(std::ostream& os, const char* name, const ArmResult& arm)
{
    os << "    \"" << name << "\": {\n"
       << "      \"dispatched\": " << arm.stats.dispatched << ",\n"
       << "      \"shed\": " << arm.stats.shed << ",\n"
       << "      \"finished\": " << arm.stats.finished << ",\n"
       << "      \"ttft_p50_us\": " << fmt3(arm.p50TtftUs) << ",\n"
       << "      \"ttft_p99_us\": " << fmt3(arm.p99TtftUs) << ",\n"
       << "      \"admitted_tokens_per_sec\": "
       << fmt3(arm.admittedToksPerSec) << ",\n"
       << "      \"makespan_us\": " << fmt3(arm.makespanUs) << "\n"
       << "    }";
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace relax;
    std::string bench_json = "BENCH_router.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string prefix = "--bench-json=";
        if (arg.rfind(prefix, 0) == 0) {
            bench_json = arg.substr(prefix.size());
        } else if (arg == "--bench-json" && i + 1 < argc) {
            bench_json = argv[++i];
        } else {
            std::cerr << "unknown argument: " << arg
                      << " (expected --bench-json=PATH)\n";
            return 2;
        }
    }

    const int replicas = 2;
    const int num_requests = 2000;
    const int64_t max_new_tokens = 16;
    const unsigned trace_seed = 1234;
    const double overload_ratio = 2.5;

    // Calibrate one replica's saturated tokens/s in a closed loop, then
    // offer overload_ratio times the cluster's measured capacity.
    double replica_toks;
    {
        auto probe = buildReplica(device::rtx4090());
        for (int i = 0; i < 32; ++i) {
            probe->addRequest(std::vector<int64_t>(32, 1), max_new_tokens);
        }
        replica_toks = probe->run().tokensPerSec();
    }
    double tokens_per_request =
        (16.0 + 32.0 + 64.0) / 3.0 + (double)max_new_tokens;
    double capacity_rps = replicas * replica_toks / (double)max_new_tokens;
    double offered_rps = overload_ratio * capacity_rps;

    std::cout << "Router overload: " << benchConfig().name << " x "
              << replicas << " replicas on rtx4090, " << num_requests
              << " requests (prompts 16/32/64, " << max_new_tokens
              << " new tokens, ~" << fmt3(tokens_per_request)
              << " tokens each), Poisson arrivals at "
              << fmt3(offered_rps) << " req/s = " << fmt3(overload_ratio)
              << "x the " << fmt3(capacity_rps)
              << " req/s measured capacity (seed " << trace_seed << ")\n\n";

    std::vector<RouterArrival> trace =
        makeTrace(num_requests, max_new_tokens, offered_rps, trace_seed);

    // Shed cap: ~4 full batches of charge per replica. Small enough to
    // bound the queue, large enough to keep the batch cap fed.
    serve::RouterOptions shed_options;
    shed_options.maxOutstandingTokensPerReplica =
        4 * 8 * (int64_t)tokens_per_request;
    ArmResult shed = runArm(replicas, trace, shed_options);
    ArmResult control = runArm(replicas, trace, serve::RouterOptions{});

    TablePrinter table({"arm", "dispatched", "shed", "TTFT p50 ms",
                        "TTFT p99 ms", "admitted tok/s", "makespan s"});
    table.addRow({"no-shed (control)",
                  std::to_string(control.stats.dispatched),
                  std::to_string(control.stats.shed),
                  TablePrinter::fmt(control.p50TtftUs / 1e3, 2),
                  TablePrinter::fmt(control.p99TtftUs / 1e3, 2),
                  TablePrinter::fmt(control.admittedToksPerSec, 1),
                  TablePrinter::fmt(control.makespanUs / 1e6, 2)});
    table.addRow({"shed", std::to_string(shed.stats.dispatched),
                  std::to_string(shed.stats.shed),
                  TablePrinter::fmt(shed.p50TtftUs / 1e3, 2),
                  TablePrinter::fmt(shed.p99TtftUs / 1e3, 2),
                  TablePrinter::fmt(shed.admittedToksPerSec, 1),
                  TablePrinter::fmt(shed.makespanUs / 1e6, 2)});
    table.print();

    if (shed.stats.shed == 0) {
        std::cerr << "FAIL: " << fmt3(overload_ratio)
                  << "x overload shed nothing — the valve is dead\n";
        return 1;
    }
    if (shed.stats.dispatched < num_requests / 4) {
        std::cerr << "FAIL: shedding rejected almost everything ("
                  << shed.stats.dispatched << "/" << num_requests
                  << " admitted)\n";
        return 1;
    }
    if (control.stats.shed != 0 ||
        control.stats.dispatched != num_requests) {
        std::cerr << "FAIL: the no-shed control arm rejected requests\n";
        return 1;
    }
    double p99_ratio = control.p99TtftUs / shed.p99TtftUs;
    std::cout << "\nadmitted p99 TTFT under overload: "
              << TablePrinter::fmt(shed.p99TtftUs / 1e3, 2)
              << " ms with shedding vs "
              << TablePrinter::fmt(control.p99TtftUs / 1e3, 2)
              << " ms without (" << fmt3(p99_ratio) << "x)\n";
    if (p99_ratio < 4.0) {
        std::cerr << "FAIL: shedding improved p99 TTFT only "
                  << fmt3(p99_ratio) << "x (floor 4x) — the bounded "
                  << "queue is not bounding the tail\n";
        return 1;
    }

    // Per-tenant budgets: tenant "flood" offers 4x what each of three
    // well-behaved tenants offers; its budget caps it at two in-flight
    // requests' charge. This runs at 1x capacity, not overload — the
    // point is isolation (the budget throttles the flooder long before
    // the cluster saturates), so the well-behaved tenants' in-flight
    // charge stays under their caps and flood's rejections dominate.
    std::vector<RouterArrival> tenant_trace;
    {
        std::mt19937 rng(trace_seed + 1);
        std::exponential_distribution<double> gap(capacity_rps / 1e6);
        double t = 0.0;
        for (int i = 0; i < 400; ++i) {
            t += gap(rng);
            RouterArrival arrival;
            arrival.timeUs = t;
            // 4 of every 7 arrivals belong to the flooding tenant.
            arrival.tenant = i % 7 < 4 ? "flood" : "ok" +
                             std::to_string(i % 7 - 4);
            arrival.prompt.assign(32, 2);
            arrival.maxNewTokens = max_new_tokens;
            tenant_trace.push_back(std::move(arrival));
        }
    }
    serve::RouterOptions budget_options;
    budget_options.maxTenantTokensInFlight =
        2 * (32 + max_new_tokens);
    ArmResult budget = runArm(replicas, tenant_trace, budget_options);
    const auto& by_tenant = budget.stats.rejectedByTenant;
    int64_t flood_rejected =
        by_tenant.count("flood") ? by_tenant.at("flood") : 0;
    int64_t ok_rejected = budget.stats.tenantRejected - flood_rejected;
    std::cout << "tenant budgets: " << flood_rejected
              << " of the flooding tenant's arrivals rejected vs "
              << ok_rejected << " across the three well-behaved tenants; "
              << budget.stats.dispatched << " dispatched\n";
    if (flood_rejected == 0) {
        std::cerr << "FAIL: the flooding tenant was never rejected\n";
        return 1;
    }
    if (flood_rejected <= 2 * ok_rejected) {
        // Flood offers 4x each ok tenant against the same budget; its
        // rejections must dominate, or the budget is not isolating it.
        std::cerr << "FAIL: budget rejections did not isolate the "
                     "flooding tenant (" << flood_rejected << " vs "
                  << ok_rejected << ")\n";
        return 1;
    }
    if (budget.stats.tenantRejected + budget.stats.dispatched !=
        (int64_t)tenant_trace.size()) {
        std::cerr << "FAIL: tenant-budget arm lost arrivals\n";
        return 1;
    }

    std::ofstream json(bench_json);
    json << "{\n"
         << "  \"bench\": \"router_overload\",\n"
         << "  \"model\": \"" << benchConfig().name << "\",\n"
         << "  \"replicas\": " << replicas << ",\n"
         << "  \"requests\": " << num_requests << ",\n"
         << "  \"trace_seed\": " << trace_seed << ",\n"
         << "  \"offered_ratio\": " << fmt3(overload_ratio) << ",\n"
         << "  \"offered_req_per_sec\": " << fmt3(offered_rps) << ",\n"
         << "  \"capacity_req_per_sec\": " << fmt3(capacity_rps) << ",\n"
         << "  \"shed_cap_tokens\": "
         << shed_options.maxOutstandingTokensPerReplica << ",\n"
         << "  \"arms\": {\n";
    writeArmJson(json, "no_shed", control);
    json << ",\n";
    writeArmJson(json, "shed", shed);
    json << "\n  },\n"
         << "  \"tenant_budget\": {\n"
         << "    \"rejected\": " << budget.stats.tenantRejected << ",\n"
         << "    \"flood_rejected\": " << flood_rejected << ",\n"
         << "    \"dispatched\": " << budget.stats.dispatched << "\n"
         << "  }\n}\n";
    std::cout << "bench snapshot written to " << bench_json << "\n";
    return 0;
}
