/**
 * @file
 * Serving-engine tests: the data-mode oracle (a continuously-batched run
 * emits exactly the tokens of N independent sequential runs), scheduler
 * edge cases (queueing beyond the VRAM budget, eviction order and
 * re-admission, zero-active no-op step), sampler behavior, and
 * timing-mode statistics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "passes/alias_analysis.h"
#include "serve/engine.h"
#include "sequential_oracle.h"

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

TEST(EngineTest, BatchedRunMatchesSequentialRuns)
{
    // The oracle: three concurrent requests with different prompt
    // lengths produce token-for-token what three independent
    // single-request loops produce.
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<std::vector<int64_t>> prompts = {
        {3, 1, 4, 1}, {2, 7}, {5, 9, 2}};
    const int64_t max_new = 6;

    auto engine = Engine::build(config, hostOptions(), /*data_mode=*/true);
    for (const auto& prompt : prompts) {
        engine->addRequest(prompt, max_new);
    }
    engine->run();
    auto results = engine->collect();
    ASSERT_EQ(results.size(), prompts.size());
    for (size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(results[i].outputTokens,
                  oracle.generate(prompts[i], max_new))
            << "request " << i;
    }
}

/** Host options with execution graphs + the static-plan bounds capture
 *  needs, for replay-on engine runs. */
frontend::CompileOptions
graphHostOptions()
{
    frontend::CompileOptions options = hostOptions();
    options.device.supportsExecutionGraphs = true;
    options.bounds = {{"b", 8}, {"n", 32}, {"m", 48}};
    return options;
}

TEST(EngineTest, RaggedDecodeTokenIdenticalWithReplayOnAndOff)
{
    // The ragged-decode data-mode oracle: staggered prompt lengths put
    // every sequence at a different context length, yet the single padded
    // decode_ragged call per step must emit token-for-token what
    // independent per-sequence sequential loops emit — with bucketed
    // graph replay capturing/replaying and with graph offload disabled.
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<std::vector<int64_t>> prompts = {
        {3, 1, 4, 1, 5, 9, 2}, {2, 7}, {6, 1, 8, 3, 1}};
    const int64_t max_new = 6;
    std::vector<std::vector<int64_t>> expected;
    for (const auto& prompt : prompts) {
        expected.push_back(oracle.generate(prompt, max_new));
    }

    for (bool with_graphs : {true, false}) {
        frontend::CompileOptions copts =
            with_graphs ? graphHostOptions() : hostOptions();
        EngineOptions options;
        options.kvBlockTokens = 4;
        auto engine = Engine::build(config, copts, /*data_mode=*/true,
                                    options);
        for (const auto& prompt : prompts) {
            engine->addRequest(prompt, max_new);
        }
        const EngineStats& stats = engine->run();
        // One ragged decode call per step covers the whole batch.
        EXPECT_EQ(stats.decodeBatches, stats.steps)
            << "graphs=" << with_graphs;
        if (with_graphs) {
            EXPECT_GT(engine->machine().graphStats().replays, 0);
        } else {
            EXPECT_EQ(engine->machine().graphStats().begins, 0);
        }
        auto results = engine->collect();
        ASSERT_EQ(results.size(), prompts.size());
        for (size_t i = 0; i < prompts.size(); ++i) {
            EXPECT_EQ(results[i].outputTokens, expected[i])
                << "request " << i << " graphs=" << with_graphs;
        }
    }
}

TEST(EngineTest, CompilesAndReportsOnlyTheServingFunction)
{
    // Serving builds one function, and the engine's plan gauges describe
    // exactly that function compiled alone: nothing the engine never
    // calls is compiled or counted.
    LlamaConfig config = LlamaConfig::tiny();
    ir::IRModulePtr module = frontend::buildLlama(config);
    EXPECT_EQ(module->functions().size(), 1u);
    ir::Function serving = module->getFunction("decode_ragged");
    ASSERT_NE(serving, nullptr);

    EngineOptions options;
    options.kvBlockTokens = 4;
    frontend::CompileOptions copts = graphHostOptions();
    copts.graphBucketTokens = options.kvBlockTokens; // build()'s choice
    auto engine = Engine::build(config, copts, /*data_mode=*/true, options);
    ir::IRModulePtr alone = ir::IRModule::create();
    alone->addFunction("decode_ragged", serving);
    passes::MemoryPlanReport plan = passes::memoryPlanReport(
        frontend::compile(alone, copts)->module);
    MetricsRegistry& metrics = engine->metrics();
    EXPECT_EQ(metrics.gauge("plan.storages").last(),
              (double)plan.storagesAllocated);
    EXPECT_EQ(metrics.gauge("plan.total_bytes").last(),
              (double)plan.bytesAllocated);
    EXPECT_EQ(metrics.gauge("plan.inplace_rewrites").last(),
              (double)plan.inplaceWrites);
}

TEST(EngineTest, RaggedDecodeIssuesOneCallPerStepAcrossContexts)
{
    // Three context lengths that never align: the pool-addressed ragged
    // decode still covers the whole batch in exactly one call per step
    // (the grouped per-context path this replaced issued ~3).
    LlamaConfig config = LlamaConfig::tiny();
    std::vector<std::vector<int64_t>> prompts = {
        {1, 2}, {3, 4, 5, 6, 7}, {8, 9, 1, 2, 3, 4, 5, 6, 7}};
    const int64_t max_new = 5;

    auto engine = Engine::build(config, hostOptions(),
                                /*data_mode=*/true);
    for (const auto& prompt : prompts) {
        engine->addRequest(prompt, max_new);
    }
    const EngineStats& stats = engine->run();
    EXPECT_EQ(stats.decodeBatches, stats.steps);
    EXPECT_EQ(engine->collect().size(), prompts.size());
}

TEST(EngineTest, DuplicatePromptPrefixSharesPagesAutomatically)
{
    // A shared-system-prompt scenario with NO hint from the caller: the
    // parent runs with a long prompt; later requests repeat its prefix
    // and extend with their own suffixes. The KV manager's prefix
    // index must detect the duplicates at admission and map them onto
    // the parent's committed pages. Token streams must match independent
    // solo runs exactly, and peak page usage must beat a baseline whose
    // prompts have the same lengths but distinct prefix content (which
    // must NOT match anything).
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<int64_t> prefix = {3, 1, 4, 1, 5, 9};
    std::vector<int64_t> child_a = prefix, child_b = prefix;
    child_a.insert(child_a.end(), {2, 6});
    child_b.insert(child_b.end(), {8, 2, 7});
    const int64_t max_new = 6;

    auto run = [&](bool duplicate_prefix) {
        EngineOptions options;
        options.kvBlockTokens = 4;
        auto engine = Engine::build(config, hostOptions(),
                                    /*data_mode=*/true, options);
        auto variant = [&](std::vector<int64_t> prompt, int64_t salt) {
            // The baseline de-duplicates content: a distinct first
            // token per request breaks every chain at block 0.
            if (!duplicate_prefix) prompt[0] = 10 + salt;
            return prompt;
        };
        engine->addRequest(variant(prefix, 0), max_new);
        // Parent prefills first so its prefix pages are committed (and
        // registered in the prefix index) when the children arrive.
        engine->step();
        engine->addRequest(variant(child_a, 1), max_new);
        engine->addRequest(variant(child_b, 2), max_new);
        engine->run();
        struct Result
        {
            std::vector<std::vector<int64_t>> tokens;
            std::vector<std::vector<int64_t>> prompts;
            int64_t peakPages, prefixHits, matched;
        } result;
        result.peakPages = engine->kv().peakPages();
        result.prefixHits = engine->kv().prefixHits();
        result.matched = engine->kv().prefixTokensMatched();
        for (const auto& done : engine->collect()) {
            result.tokens.push_back(done.outputTokens);
            result.prompts.push_back(done.promptTokens);
        }
        return result;
    };

    auto shared = run(true);
    auto distinct = run(false);
    ASSERT_EQ(shared.tokens.size(), 3u);
    // Byte-exact token streams vs solo references: automatic prefix
    // sharing changes memory addressing only, never values.
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(shared.tokens[i],
                  oracle.generate(shared.prompts[i], max_new))
            << "request " << i;
        EXPECT_EQ(distinct.tokens[i],
                  oracle.generate(distinct.prompts[i], max_new))
            << "baseline request " << i;
    }
    // Both children matched the parent's first committed block (the
    // 6-token prefix commits one full 4-token page).
    EXPECT_EQ(shared.prefixHits, 2);
    EXPECT_EQ(shared.matched, 8);
    EXPECT_EQ(distinct.prefixHits, 0);
    EXPECT_LT(shared.peakPages, distinct.peakPages);
}

TEST(EngineTest, EqualLengthRequestsShareDecodeBatches)
{
    // Two prompts admitted together ride in one packed call per step:
    // the first step prefills both rows (and samples their first
    // tokens), the remaining four steps decode both rows at once.
    LlamaConfig config = LlamaConfig::tiny();
    auto engine = Engine::build(config, hostOptions(), true);
    engine->addRequest({1, 2, 3}, 5);
    engine->addRequest({4, 5, 6}, 5);
    const EngineStats& stats = engine->run();
    EXPECT_EQ(stats.tokensGenerated, 10);
    EXPECT_EQ(stats.prefillBatches, 1); // one packed step held prefills
    EXPECT_EQ(stats.decodeBatches, 5);  // == steps: 1 mixed + 4 decode
    EXPECT_EQ(stats.decodeBatches, stats.steps);
}

TEST(EngineTest, AdmitBeyondBudgetQueuesInsteadOfCrashing)
{
    LlamaConfig config = LlamaConfig::tiny();
    EngineOptions options;
    options.kvBlockTokens = 4;
    // Room for exactly one 16-token prompt (4 blocks a 64*4 bytes).
    options.kvBudgetBytes = 64 * 4 * 4;
    auto engine = Engine::build(config, hostOptions(), true, options);

    std::vector<int64_t> prompt(16, 1);
    for (int i = 0; i < 3; ++i) engine->addRequest(prompt, 1);
    const EngineStats& stats = engine->run(); // must not throw
    EXPECT_EQ(stats.requestsFinished, 3);
    EXPECT_LE(engine->kv().peakBytes(), options.kvBudgetBytes);
    EXPECT_EQ(stats.evictions, 0);
    // Requests ran one at a time: three separate prefill calls.
    EXPECT_EQ(stats.prefillBatches, 3);
}

TEST(EngineTest, EvictionAndReadmissionPreserveTokens)
{
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<std::vector<int64_t>> prompts = {{3, 1, 4, 1},
                                                 {2, 7, 1, 8}};
    const int64_t max_new = 8;

    EngineOptions options;
    options.kvBlockTokens = 4;
    // 5 blocks: both prompts admit (1 block each), but growing both to
    // their final 11 positions needs 6 — the engine must evict one and
    // re-admit it after the other finishes.
    options.kvBudgetBytes = 64 * 4 * 5;
    auto engine = Engine::build(config, hostOptions(), true, options);
    for (const auto& prompt : prompts) engine->addRequest(prompt, max_new);
    const EngineStats& stats = engine->run();
    EXPECT_GE(stats.evictions, 1);
    EXPECT_LE(engine->kv().peakBytes(), options.kvBudgetBytes);

    auto results = engine->collect();
    ASSERT_EQ(results.size(), 2u);
    int64_t preempted = 0;
    for (size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(results[i].outputTokens,
                  oracle.generate(prompts[i], max_new))
            << "request " << i;
        preempted += results[i].stats.preemptions;
    }
    EXPECT_GE(preempted, 1);
}

TEST(EngineTest, TtftHistogramMeasuresFromOriginalArrivalAcrossEviction)
{
    // The blind-spot regression: a request admitted and then evicted
    // BEFORE its first token (the engine evicts the most recently
    // admitted victim, which can be a row admitted earlier in the same
    // step) must contribute a TTFT measured from its ORIGINAL arrival
    // stamp — covering the whole eviction + re-admission wait — to the
    // serve.ttft_us histogram. Rebasing arrivalUs at re-admission would
    // shrink it to one step and fail the assertions below.
    LlamaConfig config = LlamaConfig::tiny();
    EngineOptions options;
    options.kvBlockTokens = 4;
    // 3 blocks. A's prompt takes 2 and its growth needs all 3, so when
    // B (1 block) admits, A's next decode position evicts it again.
    options.kvBudgetBytes = 64 * 4 * 3;
    auto engine = Engine::build(config, hostOptions(), /*data_mode=*/true,
                                options);

    std::vector<int64_t> prompt_a(8, 1);
    engine->addRequest(prompt_a, /*max_new_tokens=*/4);
    ASSERT_TRUE(engine->step()); // A prefills; its first token is out
    engine->addRequest({2, 7, 1, 8}, /*max_new_tokens=*/2);
    ASSERT_TRUE(engine->step()); // B admits, then A's growth evicts it
    const EngineStats& stats = engine->run();

    EXPECT_GE(stats.evictions, 1);
    auto results = engine->collect();
    ASSERT_EQ(results.size(), 2u);
    const RequestStats& a = results[0].stats;
    const RequestStats& b = results[1].stats;
    EXPECT_EQ(b.preemptions, 1);
    // Evicted before ever prefilling: B's one and only prefill happens
    // after re-admission (a post-first-token eviction would re-prefill
    // and double this).
    EXPECT_EQ(b.prefillTokens, 4);
    // B's first token comes after A's whole run...
    EXPECT_GE(b.firstTokenUs, a.finishUs);
    // ...and its TTFT spans the full wait from the original arrival.
    EXPECT_GE(b.ttftUs(), a.finishUs - b.arrivalUs);

    const Histogram& ttft = engine->metrics().histogram("serve.ttft_us");
    EXPECT_EQ(ttft.count(), stats.requestsFinished);
    EXPECT_DOUBLE_EQ(ttft.max(), std::max(a.ttftUs(), b.ttftUs()));
    EXPECT_DOUBLE_EQ(ttft.max(), b.ttftUs()); // B waited longest
    // One inter-token gap per token after the first, eviction or not.
    const Histogram& itl = engine->metrics().histogram("serve.itl_us");
    EXPECT_EQ(itl.count(),
              stats.tokensGenerated - stats.requestsFinished);
    EXPECT_GT(itl.count(), 0);
}

TEST(EngineTest, EvictsMostRecentlyAdmittedFirst)
{
    // Under KV pressure the engine evicts the running row admitted last.
    // X and Y admit in one step, shortest prompt first, so Y (id 1)
    // admits before X (id 0); C admits one step later. In a 4-page pool
    // Y's growth into its second page evicts C, and X's growth into its
    // third page then evicts X itself, not Y: admission order decides,
    // not request ids or context lengths.
    LlamaConfig config = LlamaConfig::tiny();
    EngineOptions options;
    options.kvBlockTokens = 4;
    options.kvBudgetBytes = 64 * 4 * 4;
    options.scheduler.policy = SchedulePolicy::kShortestPromptFirst;
    auto engine = Engine::build(config, hostOptions(), /*data_mode=*/true,
                                options);
    TraceRecorder& trace = engine->machine().dev().trace();
    trace.enable();

    RequestId x = engine->addRequest({3, 1, 4, 1, 5}, 6); // 2 pages
    RequestId y = engine->addRequest({2, 7, 1}, 6);       // 1 page
    ASSERT_TRUE(engine->step()); // Y, then X, admit and prefill
    RequestId c = engine->addRequest({9, 8, 7, 6}, 6);    // 1 page
    ASSERT_TRUE(engine->step()); // C admits into the last free page
    engine->run();

    std::vector<RequestId> evicted;
    for (const TraceRecorder::Event& event : trace.events()) {
        if (event.name != "evict") continue;
        for (const TraceArg& arg : event.args) {
            if (arg.key == "request") evicted.push_back(arg.i);
        }
    }
    EXPECT_EQ(evicted, (std::vector<RequestId>{c, x}));
    auto results = engine->collect();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[x].stats.preemptions, 1);
    EXPECT_EQ(results[y].stats.preemptions, 0);
    EXPECT_EQ(results[c].stats.preemptions, 1);
}

TEST(EngineTest, DuplicateOfReleasedPrefixPrefillsInFull)
{
    // Sharing is best-effort: when the request holding a prefix has
    // finished and released its pages, the prefix index forgets them, so
    // a later duplicate simply prefills in full — and still emits the
    // exact token stream.
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<int64_t> prefix = {3, 1, 4, 1, 5, 9};
    std::vector<int64_t> child = prefix;
    child.push_back(7);
    EngineOptions options;
    options.kvBlockTokens = 4; // the 6-token prefix commits a full page
    auto engine = Engine::build(config, hostOptions(), /*data_mode=*/true,
                                options);
    engine->addRequest(prefix, 2);
    engine->run();
    EXPECT_EQ(engine->collect().size(), 1u); // twin gone from the engine
    EXPECT_EQ(engine->kv().indexedBlocks(), 0); // release de-indexed
    engine->addRequest(child, 4);
    engine->run();
    auto results = engine->collect();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outputTokens, oracle.generate(child, 4));
    EXPECT_EQ(engine->kv().prefixHits(), 0);
}

TEST(EngineTest, OverlongPromptRejectedAtSubmission)
{
    // The pool is sized to the context window; an over-long prompt is
    // rejected up front instead of stalling admission forever.
    LlamaConfig config = LlamaConfig::tiny(); // maxContext = 64
    auto engine = Engine::build(config, hostOptions(), /*data_mode=*/true);
    EXPECT_THROW(engine->addRequest(std::vector<int64_t>(65, 1), 1),
                 RuntimeError);
    engine->addRequest(std::vector<int64_t>(64, 1), 1); // exactly fits
    engine->run();
    EXPECT_EQ(engine->collect().size(), 1u);
}

TEST(EngineTest, ZeroActiveStepIsNoOp)
{
    LlamaConfig config = LlamaConfig::tiny();
    auto engine = Engine::build(config, hostOptions(), true);
    double clock = engine->machine().dev().clockUs();
    EXPECT_FALSE(engine->step());
    EXPECT_EQ(engine->machine().dev().clockUs(), clock);
    EXPECT_EQ(engine->stats().steps, 0);
    EXPECT_FALSE(engine->hasPendingWork());
    EXPECT_TRUE(engine->collect().empty());
}

TEST(EngineTest, RunThrowsWhenARequestCanNeverFit)
{
    LlamaConfig config = LlamaConfig::tiny();
    EngineOptions options;
    options.kvBlockTokens = 4;
    options.kvBudgetBytes = 64 * 4; // one block: 4 positions
    auto engine = Engine::build(config, hostOptions(), true, options);
    engine->addRequest(std::vector<int64_t>(16, 1), 1); // needs 4 blocks
    EXPECT_THROW(engine->run(), RuntimeError);
}

TEST(EngineTest, StopTokenEndsGenerationEarly)
{
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    auto engine = Engine::build(config, hostOptions(), true);
    std::vector<int64_t> reference =
        oracle.generate({3, 1, 4, 1}, 6);
    // Stop on the second token the model will emit.
    engine->addRequest({3, 1, 4, 1}, 100, /*stop_token=*/reference[1]);
    engine->run();
    auto results = engine->collect();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outputTokens.size(), 2u);
    EXPECT_EQ(results[0].outputTokens.back(), reference[1]);
}

TEST(EngineTest, LatencyStatsArePopulated)
{
    LlamaConfig config = LlamaConfig::tiny();
    auto engine = Engine::build(config, hostOptions(), true);
    engine->addRequest({1, 2, 3, 4}, 4);
    engine->addRequest({5, 6}, 4);
    const EngineStats& stats = engine->run();
    EXPECT_GT(stats.busyUs, 0.0);
    EXPECT_GT(stats.tokensPerSec(), 0.0);
    EXPECT_GT(engine->metrics().histogram("serve.ttft_us").mean(), 0.0);
    EXPECT_GT(engine->kv().peakBytes(), 0);
    for (const auto& done : engine->collect()) {
        EXPECT_GT(done.stats.ttftUs(), 0.0);
        EXPECT_GE(done.stats.finishUs, done.stats.firstTokenUs);
        EXPECT_EQ(done.stats.generatedTokens, 4);
        EXPECT_GT(done.stats.meanInterTokenUs(), 0.0);
    }
}

TEST(EngineTest, TimingModeServesMetadataOnly)
{
    // The throughput-benchmark path: no tensor data, synthetic sampling,
    // stats measured on the simulated device clock.
    LlamaConfig config = LlamaConfig::tiny();
    auto engine = Engine::build(config, hostOptions(), /*data_mode=*/false);
    engine->addRequest(std::vector<int64_t>(8, 1), 5);
    engine->addRequest(std::vector<int64_t>(4, 1), 5);
    const EngineStats& stats = engine->run();
    EXPECT_EQ(stats.requestsFinished, 2);
    EXPECT_EQ(stats.tokensGenerated, 10);
    EXPECT_GT(stats.busyUs, 0.0);
    EXPECT_GT(engine->kv().peakBytes(), 0);
    for (const auto& done : engine->collect()) {
        EXPECT_EQ((int64_t)done.outputTokens.size(), 5);
        for (int64_t token : done.outputTokens) {
            EXPECT_GE(token, 0);
            EXPECT_LT(token, config.vocabSize);
        }
    }
}

TEST(EngineTest, SamplerGreedyMatchesArgmaxAndTopKIsSeeded)
{
    NDArray logits = NDArray::fromVector(
        {1, 1, 5}, DataType::f32(), {0.1, 2.0, 0.3, 1.5, -1.0});
    Sampler greedy;
    EXPECT_EQ(greedy.sample(logits, 0), 1);

    SamplerOptions topk;
    topk.topK = 3;
    topk.seed = 11;
    Sampler a(topk), b(topk);
    for (int i = 0; i < 16; ++i) {
        int64_t token = a.sample(logits, 0);
        EXPECT_EQ(token, b.sample(logits, 0)) << "draw " << i;
        // Only the top-3 logits {1, 3, 2} are reachable.
        EXPECT_TRUE(token == 1 || token == 3 || token == 2);
    }
    Sampler synthetic;
    for (int i = 0; i < 16; ++i) {
        int64_t token = synthetic.sampleSynthetic(32);
        EXPECT_GE(token, 0);
        EXPECT_LT(token, 32);
    }
}

TEST(EngineTest, ShortestPromptFirstImprovesShortRequestTtft)
{
    // With one batch slot, FCFS serves the long prompt first; SPF lets
    // the short request jump ahead and finish sooner.
    LlamaConfig config = LlamaConfig::tiny();
    auto ttft_of_short = [&](SchedulePolicy policy) {
        EngineOptions options;
        options.scheduler.policy = policy;
        options.scheduler.maxBatchSize = 1;
        auto engine = Engine::build(config, hostOptions(), true, options);
        engine->addRequest(std::vector<int64_t>(12, 1), 4); // id 0: long
        RequestId short_id =
            engine->addRequest(std::vector<int64_t>(2, 1), 4);
        engine->run();
        for (const auto& done : engine->collect()) {
            if (done.id == short_id) return done.stats.ttftUs();
        }
        return -1.0;
    };
    double fcfs = ttft_of_short(SchedulePolicy::kFCFS);
    double spf = ttft_of_short(SchedulePolicy::kShortestPromptFirst);
    ASSERT_GT(fcfs, 0.0);
    ASSERT_GT(spf, 0.0);
    EXPECT_LT(spf, fcfs);
}

TEST(SamplerSpecTest, TopKTieBreakIsStable)
{
    // Tied logits must select candidates by (logit desc, token id asc).
    // Before the fix the partial_sort comparator ignored ties, so the
    // sampled support depended on heap internals — two platforms (or two
    // libstdc++ versions) could emit different tokens from one seed.
    SamplerOptions two;
    two.topK = 2;
    Sampler sampler(two);
    NDArray logits = NDArray::fromVector(
        {1, 1, 6}, DataType::f32(), {0.5, 2.0, 2.0, 2.0, 2.0, 1.0});
    TokenProbs probs = sampler.topKProbs(logits, 0);
    ASSERT_EQ(probs.tokens, (std::vector<int64_t>{1, 2}));
    // Equal logits carry equal renormalized mass.
    ASSERT_EQ(probs.probs.size(), 2u);
    EXPECT_NEAR(probs.probs[0], 0.5, 1e-9);
    EXPECT_NEAR(probs.probs[1], 0.5, 1e-9);
    EXPECT_NEAR(probs.probOf(1) + probs.probOf(2), 1.0, 1e-9);
    EXPECT_EQ(probs.probOf(3), 0.0); // tied but outside the stable top-2
    for (int i = 0; i < 64; ++i) {
        int64_t token = sampler.samplePacked(logits, 0);
        EXPECT_TRUE(token == 1 || token == 2) << "draw " << i;
    }
}

TEST(SamplerSpecTest, AcceptDraftsGreedyTakesLongestMatchingPrefix)
{
    // Packed target logits for k=2: positions 0 and 1 verify the drafts,
    // position 2 is the bonus. Argmaxes per position: 3, 1, 2.
    Sampler greedy;
    NDArray logits = NDArray::fromVector(
        {1, 3, 4}, DataType::f32(),
        {0, 1, 2, 9, /**/ 0, 9, 1, 2, /**/ 0, 1, 9, 2});
    SpecAcceptance all = greedy.acceptDrafts(logits, 0, {3, 1}, {});
    EXPECT_EQ(all.accepted, 2);
    EXPECT_EQ(all.next, 2); // bonus token from the extra position
    SpecAcceptance none = greedy.acceptDrafts(logits, 0, {0, 1}, {});
    EXPECT_EQ(none.accepted, 0);
    EXPECT_EQ(none.next, 3); // the target's own argmax replaces it
    SpecAcceptance one = greedy.acceptDrafts(logits, 0, {3, 0}, {});
    EXPECT_EQ(one.accepted, 1);
    EXPECT_EQ(one.next, 1);
}

TEST(SamplerSpecTest, AcceptDraftsRejectionSamplingRatio)
{
    // Top-k acceptance is p(x)/q(x) rejection sampling. Two analytic
    // corners pin it without statistics: q == p accepts every draft
    // (ratio 1 beats any uniform draw), and a draft from outside the
    // target's support is always rejected (ratio 0), with the
    // replacement resampled from the residual max(p - q, 0) — here p
    // itself, since the supports are disjoint.
    SamplerOptions two;
    two.topK = 2;
    Sampler sampler(two);
    // Every packed position: target top-2 = tokens {2, 3}.
    std::vector<double> row = {0, 0, 5, 4};
    std::vector<double> packed;
    for (int i = 0; i < 3; ++i) {
        packed.insert(packed.end(), row.begin(), row.end());
    }
    NDArray logits =
        NDArray::fromVector({1, 3, 4}, DataType::f32(), packed);

    TokenProbs q_same = sampler.topKProbs(logits, 0);
    std::vector<TokenProbs> same = {q_same, q_same};
    for (int trial = 0; trial < 32; ++trial) {
        SpecAcceptance acc = sampler.acceptDrafts(logits, 0, {2, 3}, same);
        EXPECT_EQ(acc.accepted, 2) << "trial " << trial;
        EXPECT_TRUE(acc.next == 2 || acc.next == 3); // bonus from p
    }

    TokenProbs q_disjoint;
    q_disjoint.tokens = {0, 1};
    q_disjoint.probs = {0.5, 0.5};
    std::vector<TokenProbs> disjoint = {q_disjoint, q_disjoint};
    for (int trial = 0; trial < 32; ++trial) {
        SpecAcceptance acc =
            sampler.acceptDrafts(logits, 0, {0, 1}, disjoint);
        EXPECT_EQ(acc.accepted, 0) << "trial " << trial;
        EXPECT_TRUE(acc.next == 2 || acc.next == 3); // residual == p
    }
}

TEST(EngineSpecTest, SpeculativeDecodeMatchesSequentialGreedy)
{
    // THE speculation invariant: propose-k/verify/accept-prefix may not
    // change a single token relative to plain decoding. An identical
    // draft (same config, same weight seed) agrees with the target at
    // every position, so this run exercises the all-accept + bonus path
    // and must convert accepted prefixes into real step savings.
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<std::vector<int64_t>> prompts = {
        {3, 1, 4, 1}, {2, 7}, {5, 9, 2, 6, 5}};
    const int64_t max_new = 8;
    std::vector<std::vector<int64_t>> expected;
    for (const auto& prompt : prompts) {
        expected.push_back(oracle.generate(prompt, max_new));
    }

    int64_t baseline_steps = 0;
    {
        auto engine = Engine::build(config, hostOptions(), true);
        for (const auto& prompt : prompts) {
            engine->addRequest(prompt, max_new);
        }
        baseline_steps = engine->run().steps;
    }

    for (int64_t k : {2, 4}) {
        EngineOptions options;
        options.speculation.draftTokens = k;
        options.speculation.draftConfig = config; // identical draft
        auto engine = Engine::build(config, hostOptions(), true, options);
        ASSERT_TRUE(engine->speculationEnabled());
        for (const auto& prompt : prompts) {
            engine->addRequest(prompt, max_new);
        }
        const EngineStats& stats = engine->run();
        auto results = engine->collect();
        ASSERT_EQ(results.size(), prompts.size()) << "k=" << k;
        for (size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].outputTokens, expected[i])
                << "k=" << k << " request " << i;
        }
        // The target still issues ONE packed call per step; the draft's
        // calls are tallied separately.
        EXPECT_EQ(stats.decodeBatches, stats.steps) << "k=" << k;
        EXPECT_GT(stats.draftCalls, 0) << "k=" << k;
        EXPECT_GT(stats.specProposed, 0) << "k=" << k;
        EXPECT_GT(stats.specAcceptanceRate(), 0.9) << "k=" << k;
        EXPECT_LT(stats.steps, baseline_steps) << "k=" << k;
    }
}

TEST(EngineSpecTest, MismatchedDraftStaysExactAndRollsBack)
{
    // A draft with different weights disagrees with the target most of
    // the time: every rejected token must be rolled back — KV rewound
    // via truncate, outputs still token-identical to plain decoding.
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<std::vector<int64_t>> prompts = {
        {3, 1, 4, 1}, {2, 7, 1, 8, 2, 8}, {6, 1}};
    const int64_t max_new = 8;

    EngineOptions options;
    options.kvBlockTokens = 4;
    options.speculation.draftTokens = 3;
    options.speculation.draftConfig = config;
    options.speculation.draftWeightSeed = 11; // disagrees with target
    auto engine = Engine::build(config, hostOptions(), true, options);
    for (const auto& prompt : prompts) {
        engine->addRequest(prompt, max_new);
    }
    const EngineStats& stats = engine->run();
    auto results = engine->collect();
    ASSERT_EQ(results.size(), prompts.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].outputTokens,
                  oracle.generate(prompts[i], max_new))
            << "request " << i;
    }
    EXPECT_EQ(stats.decodeBatches, stats.steps);
    EXPECT_GT(stats.specProposed, 0);
    EXPECT_LT(stats.specAccepted, stats.specProposed);
    // Rejections rewound the draft pool past its committed frontier.
    ASSERT_NE(engine->draftKv(), nullptr);
    EXPECT_GT(engine->draftKv()->truncateCount(), 0);
    // The snapshot reads kv.* from both pools at export time.
    std::ostringstream snapshot;
    engine->snapshotJson(snapshot);
    int64_t truncates = engine->kv().truncateCount() +
                        engine->draftKv()->truncateCount();
    EXPECT_NE(snapshot.str().find("\"kv.truncates\": " +
                                  std::to_string(truncates) + ","),
              std::string::npos);
}

TEST(EngineSpecTest, PrefixSharedSiblingSurvivesSiblingRejections)
{
    // A prefix-cache match shares pool pages between two requests while
    // one of them keeps proposing (and mostly rejecting) draft tokens.
    // Rollback must stay private: the sharer's stream and the rejecter's
    // stream both match their sequential oracles exactly.
    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, hostOptions());
    std::vector<int64_t> parent = {3, 1, 4, 1, 5, 9, 2, 6, 5};
    std::vector<int64_t> child = parent;
    child.push_back(8);
    const int64_t max_new = 6;

    EngineOptions options;
    options.kvBlockTokens = 4;
    options.speculation.draftTokens = 3;
    options.speculation.draftConfig = config;
    options.speculation.draftWeightSeed = 11;
    auto engine = Engine::build(config, hostOptions(), true, options);
    engine->addRequest(parent, max_new);
    engine->step(); // parent prefills and registers its full blocks
    engine->addRequest(child, max_new);
    engine->run();

    auto results = engine->collect();
    ASSERT_EQ(results.size(), 2u);
    std::sort(results.begin(), results.end(),
              [](const FinishedRequest& a, const FinishedRequest& b) {
                  return a.id < b.id;
              });
    EXPECT_EQ(results[0].outputTokens,
              oracle.generate(parent, max_new));
    EXPECT_EQ(results[1].outputTokens,
              oracle.generate(child, max_new));
    // The child really did share the parent's pages (no fork hint), and
    // speculation really did reject and roll back next to it.
    EXPECT_GE(engine->kv().prefixHits(), 1);
    EXPECT_GT(engine->stats().specProposed, engine->stats().specAccepted);
    EXPECT_GT(engine->draftKv()->truncateCount(), 0);
}

TEST(EngineSpecTest, TimingModeSyntheticAcceptanceSpeedsDecode)
{
    // The bench path: no logits, acceptance simulated per draft position
    // as Bernoulli(rate). High acceptance must beat k=0 on generated
    // tokens per unit of virtual clock; rate 0 degenerates to k=0-like
    // progress while still paying the draft, and every mode preserves
    // decodeBatches == steps.
    LlamaConfig config = LlamaConfig::tiny();
    auto run_with = [&](int64_t k, double rate) {
        EngineOptions options;
        options.speculation.draftTokens = k;
        options.speculation.draftConfig = config;
        options.speculation.syntheticAcceptanceRate = rate;
        auto engine =
            Engine::build(config, hostOptions(), /*data_mode=*/false,
                          options);
        for (int i = 0; i < 4; ++i) {
            engine->addRequest(std::vector<int64_t>(6, 1), 12);
        }
        EngineStats stats = engine->run();
        EXPECT_EQ(stats.decodeBatches, stats.steps)
            << "k=" << k << " rate=" << rate;
        EXPECT_EQ(stats.tokensGenerated, 4 * 12);
        return stats;
    };
    EngineStats plain = run_with(0, 0.0);
    EXPECT_EQ(plain.specProposed, 0);
    EngineStats eager = run_with(4, 1.0);
    EXPECT_GT(eager.specAcceptanceRate(), 0.99);
    EXPECT_LT(eager.steps, plain.steps);
    EngineStats hopeless = run_with(4, 0.0);
    EXPECT_EQ(hopeless.specAccepted, 0);
    EXPECT_GE(hopeless.steps, eager.steps);
}

} // namespace
} // namespace serve
} // namespace relax
