/**
 * @file
 * Router tests: least-outstanding-tokens balancing across replicas,
 * overload shedding, per-tenant budgets, and the router.* histogram and
 * gauge — all on data-mode tiny engines so routed token streams can be
 * checked against a single-engine oracle.
 */
#include <gtest/gtest.h>

#include "serve/router.h"

namespace relax {
namespace serve {
namespace {

using frontend::LlamaConfig;

frontend::CompileOptions
hostOptions(int64_t vram = int64_t(8) << 30)
{
    frontend::CompileOptions options;
    options.device.name = "host";
    options.device.backend = "cpu";
    options.device.vramBytes = vram;
    return options;
}

std::vector<std::unique_ptr<Engine>>
buildReplicas(int count, int64_t vram = int64_t(8) << 30)
{
    std::vector<std::unique_ptr<Engine>> replicas;
    for (int i = 0; i < count; ++i) {
        replicas.push_back(Engine::build(LlamaConfig::tiny(),
                                         hostOptions(vram),
                                         /*data_mode=*/true));
    }
    return replicas;
}

TEST(RouterTest, BalancesAcrossReplicasAndMatchesSingleEngineTokens)
{
    // Simultaneous arrivals must spread over both replicas (least
    // outstanding tokens alternates when charges are equal), and every
    // routed request must emit exactly what a lone engine emits for the
    // same prompt — placement cannot perturb greedy decoding.
    std::vector<std::vector<int64_t>> prompts = {
        {3, 1, 4, 1}, {2, 7, 1}, {5, 9, 2, 6}, {8, 1}};
    Router router(buildReplicas(2));
    for (const auto& prompt : prompts) {
        router.submit("tenant", prompt, /*max_new_tokens=*/5,
                      /*arrival_us=*/0.0);
    }
    const RouterStats& stats = router.run();
    EXPECT_EQ(stats.submitted, (int64_t)prompts.size());
    EXPECT_EQ(stats.dispatched, (int64_t)prompts.size());
    EXPECT_EQ(stats.finished, (int64_t)prompts.size());
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.tenantRejected, 0);

    auto routed = router.collect();
    ASSERT_EQ(routed.size(), prompts.size());
    std::vector<int> per_replica(2, 0);
    for (const auto& r : routed) ++per_replica[(size_t)r.replica];
    EXPECT_EQ(per_replica[0], 2);
    EXPECT_EQ(per_replica[1], 2);
    for (int r = 0; r < 2; ++r) EXPECT_EQ(router.outstandingTokens(r), 0);

    auto oracle = Engine::build(LlamaConfig::tiny(), hostOptions(),
                                /*data_mode=*/true);
    for (const auto& prompt : prompts) oracle->addRequest(prompt, 5);
    oracle->run();
    auto expected = oracle->collect();
    for (const auto& r : routed) {
        bool matched = false;
        for (const auto& e : expected) {
            if (e.promptTokens == r.finished.promptTokens &&
                e.outputTokens == r.finished.outputTokens) {
                matched = true;
                break;
            }
        }
        EXPECT_TRUE(matched) << "routed tokens diverge from the oracle";
    }
}

TEST(RouterTest, IdleReplicaAdvancesToArrivalTime)
{
    Router router(buildReplicas(1));
    router.submit("t", {1, 2, 3}, 3, /*arrival_us=*/5000.0);
    router.run();
    auto routed = router.collect();
    ASSERT_EQ(routed.size(), 1u);
    // TTFT is measured from the arrival stamp; the idle replica was
    // advanced to it, so TTFT is just the prefill step, not 5ms.
    EXPECT_GE(routed[0].finished.stats.ttftUs(), 0.0);
    EXPECT_LT(routed[0].finished.stats.ttftUs(), 5000.0);
}

TEST(RouterTest, ShedsWhenEveryReplicaIsSaturated)
{
    // Cap each replica at one request's charge (4 prompt + 4 new = 8):
    // the first two arrivals take the two replicas, the rest shed.
    RouterOptions options;
    options.maxOutstandingTokensPerReplica = 8;
    Router router(buildReplicas(2), options);
    for (int i = 0; i < 6; ++i) {
        router.submit("t", {1, 2, 3, 4}, 4, /*arrival_us=*/0.0);
    }
    const RouterStats& stats = router.run();
    EXPECT_EQ(stats.dispatched, 2);
    EXPECT_EQ(stats.shed, 4);
    EXPECT_EQ(stats.finished, 2);
    // Shed requests never enter the admitted-TTFT histogram; the load
    // gauge samples every dispatch decision, admitted or not.
    EXPECT_EQ(router.metrics().histograms().at("router.ttft_us").count(),
              2);
    EXPECT_EQ(router.metrics()
                  .gauges()
                  .at("router.outstanding_tokens")
                  .samples(),
              6);
}

TEST(RouterTest, TenantBudgetRejectsOnlyTheOverageTenant)
{
    RouterOptions options;
    options.maxTenantTokensInFlight = 16; // two in-flight requests of 8
    Router router(buildReplicas(2), options);
    for (int i = 0; i < 4; ++i) {
        router.submit("greedy", {1, 2, 3, 4}, 4, 0.0);
    }
    router.submit("modest", {5, 6, 7, 8}, 4, 0.0);
    const RouterStats& stats = router.run();
    // All five land at t=0 before anything finishes: greedy's third and
    // fourth exceed its cap, modest is untouched by greedy's overage.
    EXPECT_EQ(stats.tenantRejected, 2);
    EXPECT_EQ(stats.rejectedByTenant,
              (std::map<std::string, int64_t>{{"greedy", 2}}));
    EXPECT_EQ(stats.dispatched, 3);
    EXPECT_EQ(stats.shed, 0);
    auto routed = router.collect();
    int modest = 0;
    for (const auto& r : routed) modest += r.tenant == "modest" ? 1 : 0;
    EXPECT_EQ(modest, 1);
    EXPECT_EQ(router.tenantTokensInFlight("greedy"), 0);
}

} // namespace
} // namespace serve
} // namespace relax
