/**
 * @file
 * Randomized serving oracle: seeded fuzz over request counts, prompt
 * lengths (some above the per-step prefill cap, so they prefill in
 * chunks across steps), max-tokens, KV budgets, mid-stream arrival
 * steps, duplicated prompt prefixes, and both admission policies,
 * asserting that the continuously-batched data-mode engine emits
 * token-for-token what N independent single-request greedy loops emit,
 * and leaks no KV page — with bucketed execution-graph replay on and
 * with it off, and under an n bound below the longest prompt, where
 * the VM refuses any call past the compiled bounds. This pins the whole
 * serve stack (scheduler, page-pool KV manager with the automatic
 * prefix-caching index, eviction, and the ONE packed-varlen call
 * per step that carries prefill chunks and n=1 decode rows together) to
 * an end-to-end correctness invariant: no batching, paging, sharing,
 * preemption, or graph-replay decision may change tokens. A speculation
 * axis (k in {0, 2, 4}) rides on top: every scenario also runs with a
 * draft model proposing k tokens per row per step — alternating between
 * an identical draft (near-total acceptance: the all-accept + bonus
 * path) and a mismatched one (mostly rejections: the truncate-rollback
 * path) — and the token streams must STILL be identical. A tensor-
 * parallel axis (tp in {1, 2}) crosses both: every scenario also runs
 * sharded across a two-device group with lockstep collectives, and
 * sharding may not change a single token either. Structural
 * invariants ride along: decode calls == steps on every trace (mixed
 * prefill+decode steps never split into extra calls, and draft calls
 * are tallied separately), and prompt-prefix duplicates must hit the
 * prefix index with no fork hint from the harness. Every engine comes
 * from Engine::build, so the oracle also covers its device group and
 * the draft's unsharded compile.
 *
 * Each (tp, spec_k) pair runs as two TESTs, one per half of the seed
 * corpus, so ctest runs the twelve slices in parallel. Seed count
 * defaults to 40; set RELAX_FUZZ_SEEDS for the scheduled soak (the cron
 * workflow runs 2000).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

#include "serve/engine.h"
#include "sequential_oracle.h"

namespace relax {
namespace serve {
namespace {

using frontend::LlamaConfig;

/** Host device that also supports execution graphs, so data-mode runs
 *  exercise bucketed capture/replay. */
device::DeviceSpec
hostSpec(bool with_graphs)
{
    device::DeviceSpec spec;
    spec.name = "host";
    spec.backend = "cpu";
    spec.vramBytes = int64_t(8) << 30;
    spec.supportsExecutionGraphs = with_graphs;
    return spec;
}

/** Bound on the packed token count n of the fuzzed engines: the 24-token
 *  per-step prefill cap plus up to 8 speculating decode rows of
 *  1 + k <= 5 fresh tokens each (the verify window) stays under it. */
constexpr int64_t kPackedBound = 96;
/** A tighter n, below the longest prompt: the engine must derive a step
 *  budget under it (at most 8 decode rows of 5 tokens fill it). */
constexpr int64_t kTightPackedBound = 40;
/** Per-step prefill cap of the fuzzed engines. */
constexpr int64_t kPrefillCap = 24;

frontend::CompileOptions
fuzzOptions(bool with_graphs, int64_t packed_bound = kPackedBound)
{
    frontend::CompileOptions options;
    options.device = hostSpec(with_graphs);
    // Envelope of every fuzzed trace: batch <= 8 and prompt plus
    // generated tokens within tiny's 64-token context window, which
    // bounds both a prefill's n and a dense decode's cache length m.
    options.bounds = {{"b", 8}, {"n", packed_bound}, {"m", 64}};
    return options;
}

struct FuzzRequest
{
    std::vector<int64_t> prompt;
    int64_t maxNew = 1;
    int64_t stopToken = -1;
    int64_t arrivalStep = 0; //!< engine step at which the request is added
    int64_t dupOf = -1; //!< index of the earlier request whose prompt this
                        //!< one duplicates (content only — NO engine hint;
                        //!< the prefix index must detect it by itself)
};

struct FuzzScenario
{
    std::vector<FuzzRequest> requests;
    SchedulePolicy policy = SchedulePolicy::kFCFS;
    int64_t kvBlockTokens = 4;
    int64_t kvBudgetBytes = 0;
};

/** Draws one scenario; budgets always fit the largest single request so
 *  the trace can finish, but may force serialization and eviction. */
FuzzScenario
drawScenario(std::mt19937& rng, const LlamaConfig& config)
{
    auto draw = [&](int64_t lo, int64_t hi) {
        return lo + (int64_t)(rng() % (uint64_t)(hi - lo + 1));
    };
    FuzzScenario scenario;
    scenario.policy = rng() % 2 == 0 ? SchedulePolicy::kFCFS
                                     : SchedulePolicy::kShortestPromptFirst;
    scenario.kvBlockTokens = draw(2, 6);
    int64_t num_requests = draw(1, 6);
    int64_t max_need = 0;
    for (int64_t i = 0; i < num_requests; ++i) {
        FuzzRequest request;
        int64_t prompt_len = draw(1, 12);
        for (int64_t t = 0; t < prompt_len; ++t) {
            request.prompt.push_back(draw(0, config.vocabSize - 1));
        }
        request.maxNew = draw(1, 8);
        // Mid-stream arrival: requests land across the first steps of
        // the trace, so prefill chunks and running decodes coexist in
        // the same packed call.
        request.arrivalStep = draw(0, 4);
        if (rng() % 4 == 0) {
            // An occasionally-hit stop token (small vocab makes real
            // early stops likely across scenarios).
            request.stopToken = draw(0, config.vocabSize - 1);
        }
        if (i > 0 && rng() % 3 == 0) {
            // Duplicate prompt prefix: repeat an earlier request's
            // prompt and extend it with a short suffix. There is no
            // fork hint anywhere — automatic prefix caching must find
            // the shared pages itself whenever the twin's blocks are
            // still resident, and tokens must match regardless.
            request.dupOf = draw(0, i - 1);
            const FuzzRequest& twin = scenario.requests[request.dupOf];
            request.prompt = twin.prompt;
            int64_t suffix = draw(1, 4);
            for (int64_t t = 0; t < suffix; ++t) {
                request.prompt.push_back(draw(0, config.vocabSize - 1));
            }
            // Arriving after the twin's prefill makes a live match
            // possible (same-step arrivals admit before registration).
            request.arrivalStep =
                std::max(request.arrivalStep, twin.arrivalStep + 1);
        }
        max_need = std::max(max_need,
                            (int64_t)request.prompt.size() + request.maxNew);
        scenario.requests.push_back(std::move(request));
    }
    // Between "just fits the largest request" (forces serialization and
    // evictions) and twice that (mild pressure).
    int64_t blocks_needed = (max_need + scenario.kvBlockTokens - 1) /
                            scenario.kvBlockTokens;
    int64_t bytes_per_block =
        config.kvBytesPerToken() * scenario.kvBlockTokens;
    scenario.kvBudgetBytes =
        draw(blocks_needed, 2 * blocks_needed) * bytes_per_block;

    // The over-cap axis, drawn after everything above so the rest of
    // the scenario is what it always was: a third of the scenarios gain
    // a prompt of 25..56 tokens, above the per-step prefill cap and up
    // to past the tight n bound, so it prefills in chunks across steps
    // while the others run; a third of those extend an earlier prompt,
    // so a prefix match precedes the chunks. The KV budget grows to fit
    // it.
    if (rng() % 3 == 0) {
        FuzzRequest request;
        int64_t prompt_len = draw(kPrefillCap + 1, 56);
        if (rng() % 3 == 0) {
            request.dupOf = draw(0, num_requests - 1);
            const FuzzRequest& twin = scenario.requests[request.dupOf];
            request.prompt = twin.prompt;
            request.arrivalStep = twin.arrivalStep + 1;
        } else {
            request.arrivalStep = draw(0, 4);
        }
        while ((int64_t)request.prompt.size() < prompt_len) {
            request.prompt.push_back(draw(0, config.vocabSize - 1));
        }
        request.maxNew = draw(1, 8);
        int64_t long_blocks =
            (prompt_len + request.maxNew + scenario.kvBlockTokens - 1) /
            scenario.kvBlockTokens;
        if (long_blocks > blocks_needed) {
            scenario.kvBudgetBytes =
                draw(long_blocks, 2 * long_blocks) * bytes_per_block;
        }
        scenario.requests.push_back(std::move(request));
    }
    return scenario;
}

/** Seed count: 40 by default, RELAX_FUZZ_SEEDS overrides (cron soak). */
int64_t
fuzzSeedCount()
{
    const char* env = std::getenv("RELAX_FUZZ_SEEDS");
    if (!env) return 40;
    int64_t count = std::atoll(env);
    return count > 0 ? count : 40;
}

/** One engine variant every scenario is served by. */
struct Variant
{
    bool replay;         //!< bucketed graph capture on
    int64_t packedBound; //!< the compiled n bound
};

/**
 * One slice of the oracle: the (tp, spec_k) axes over half of the seed
 * corpus (`half` 0 or 1), each scenario served with bucketed replay on
 * and off, and once more under the tight n bound when a prompt is above
 * the prefill cap. Each slice is its own TEST, so ctest runs the slices
 * in parallel, and each asserts the coverage its axes can reach.
 */
void
runOracleSlice(int64_t tp, int64_t spec_k, int64_t half)
{
    // Instrumented differential mode for the whole corpus: every
    // in-place kernel call in every seed below runs twice — aliased and
    // copy-in/copy-out — and throws on any bit difference, so the token
    // oracle here simultaneously proves the aliasing rewrites are
    // behavior-preserving across the fuzzed serving space.
    setenv("RELAX_ALIAS_CHECK", "1", 1);
    const int64_t alias_checks_before = vm::aliasChecksPerformed();

    LlamaConfig config = LlamaConfig::tiny();
    SequentialOracle oracle(config, fuzzOptions(false));

    int64_t total_replays = 0;
    int64_t total_evictions = 0;
    int64_t total_prefix_hits = 0, total_prefix_tokens = 0;
    int64_t mixed_step_traces = 0;
    int64_t ragged_steps = 0, ragged_decode_calls = 0;
    int64_t total_spec_proposed = 0, total_spec_accepted = 0;
    int64_t total_truncates = 0, total_draft_calls = 0;
    int64_t total_collectives = 0;
    int64_t chunked_requests = 0;
    const int64_t collectives_per_call =
        tp > 1 ? 2 * config.numLayers + 1 : 0;
    std::mt19937 seed_rng(0xF00D);
    const int64_t first = half * fuzzSeedCount() / 2;
    const int64_t last = (half + 1) * fuzzSeedCount() / 2;
    seed_rng.discard((unsigned long long)first);
    for (int64_t round = first; round < last; ++round) {
        unsigned seed = (unsigned)seed_rng();
        std::mt19937 rng(seed);
        FuzzScenario scenario = drawScenario(rng, config);
        // Requests are added in arrival order; sorting once up front
        // makes engine request ids line up with this vector's indices.
        std::stable_sort(scenario.requests.begin(), scenario.requests.end(),
                         [](const FuzzRequest& a, const FuzzRequest& b) {
                             return a.arrivalStep < b.arrivalStep;
                         });

        // One oracle pass per request; every engine variant must match it.
        std::vector<std::vector<int64_t>> expected;
        expected.reserve(scenario.requests.size());
        for (const FuzzRequest& request : scenario.requests) {
            expected.push_back(oracle.generate(
                request.prompt, request.maxNew, request.stopToken));
        }

        EngineOptions engine_options;
        // tp=2 shards the target (ShardPass + lockstep collectives; one
        // executable serves both shards).
        engine_options.tensorParallel = tp;
        engine_options.scheduler.policy = scenario.policy;
        // A prompt whose fresh tail is above the per-step cap prefills
        // in chunks across steps, each within what the decode rows leave
        // of the compiled n bound.
        engine_options.scheduler.maxPrefillTokensPerStep = kPrefillCap;
        engine_options.kvBlockTokens = scenario.kvBlockTokens;
        engine_options.kvBudgetBytes = scenario.kvBudgetBytes;

        // The tight n bound joins where a prompt needs chunks.
        std::vector<Variant> variants{{true, kPackedBound},
                                      {false, kPackedBound}};
        for (const FuzzRequest& request : scenario.requests) {
            if ((int64_t)request.prompt.size() > kPrefillCap) {
                variants.push_back({true, kTightPackedBound});
                break;
            }
        }
        for (Variant variant : variants) {
            bool with_replay = variant.replay;
            // The target runs on a tp-device group; the draft (when
            // speculating) is the same tiny architecture, never sharded,
            // alone on device 0. The draft seeded like the target (7)
            // agrees with it everywhere (all-accept) while seed 11
            // mostly disagrees (reject + rollback). The token streams
            // must STILL match the unsharded oracle either way —
            // sharding is invisible to scheduling and sampling.
            frontend::CompileOptions compile_options =
                fuzzOptions(with_replay, variant.packedBound);
            compile_options.graphBucketTokens = 4; // bucketed capture
            EngineOptions variant_options = engine_options;
            variant_options.speculation.draftTokens = spec_k;
            variant_options.speculation.draftConfig = config;
            variant_options.speculation.draftWeightSeed =
                round % 2 == 0 ? 7 : 11;
            auto engine = Engine::build(config, compile_options,
                                        /*data_mode=*/true, variant_options);
            device::DeviceGroup* group = engine->deviceGroup();
            device::SimDevice& dev = group->device(0);
            // Tracing on for every seed: the token oracle below then
            // also pins the observation-only invariant (recording may
            // not change any token), and each trace must be well
            // nested.
            dev.trace().enable();
            // Mid-stream arrival driver: add each request at its
            // arrival step, stepping the engine in between so fresh
            // prefills join an already-decoding batch.
            size_t next_request = 0;
            for (int64_t tick = 0;; ++tick) {
                while (next_request < scenario.requests.size() &&
                       scenario.requests[next_request].arrivalStep <= tick) {
                    const FuzzRequest& request =
                        scenario.requests[next_request];
                    engine->addRequest(request.prompt, request.maxNew,
                                       request.stopToken);
                    ++next_request;
                }
                bool progressed = engine->step();
                if (next_request == scenario.requests.size() &&
                    !engine->hasPendingWork()) {
                    break;
                }
                ASSERT_TRUE(progressed ||
                            next_request < scenario.requests.size())
                    << "stalled: seed=" << seed
                    << " replay=" << with_replay
                    << " n=" << variant.packedBound;
            }
            auto results = engine->collect();
            ASSERT_EQ(results.size(), scenario.requests.size())
                << "seed=" << seed << " replay=" << with_replay
                << " n=" << variant.packedBound;
            // Every page went back to its pool.
            EXPECT_EQ(engine->kv().usedPages(), 0) << "seed=" << seed;
            if (engine->draftKv()) {
                EXPECT_EQ(engine->draftKv()->usedPages(), 0)
                    << "seed=" << seed;
            }
            // collect() orders by request id == the order added above.
            std::sort(results.begin(), results.end(),
                      [](const FinishedRequest& a, const FinishedRequest& b) {
                          return a.id < b.id;
                      });
            for (size_t i = 0; i < results.size(); ++i) {
                EXPECT_EQ(results[i].outputTokens, expected[i])
                    << "seed=" << seed << " request=" << i
                    << " replay=" << with_replay
                    << " n=" << variant.packedBound << " tp=" << tp
                    << " spec_k=" << spec_k
                    << " draft=" << (round % 2 == 0 ? "same" : "alt")
                    << " policy=" << (int)scenario.policy;
            }
            if (with_replay) {
                total_replays += engine->machine().graphStats().replays;
            } else {
                // Graph offload disabled: capture must never engage.
                EXPECT_EQ(engine->machine().graphStats().begins, 0);
            }
            total_evictions += engine->stats().evictions;
            total_prefix_hits += engine->kv().prefixHits();
            total_prefix_tokens += engine->kv().prefixTokensMatched();
            if (engine->stats().prefillBatches < engine->stats().steps &&
                engine->stats().prefillBatches > 1) {
                // More than one arrival wave and some pure-decode steps:
                // this trace genuinely mixed prefills into a running
                // batch at least once.
                ++mixed_step_traces;
            }
            // THE packed-varlen invariant: exactly one call per step,
            // even when prefill chunks and decode rows share the step —
            // the grouping loop this replaced issued up to one call per
            // distinct fresh length.
            EXPECT_EQ(engine->stats().decodeBatches, engine->stats().steps)
                << "seed=" << seed << " replay=" << with_replay;
            ragged_steps += engine->stats().steps;
            ragged_decode_calls += engine->stats().decodeBatches;
            // Every sharded packed call paid its collectives: two
            // all_reduces per layer plus the logits all_gather; an
            // unsharded call has none.
            EXPECT_EQ(group->collectiveCount(),
                      engine->stats().steps * collectives_per_call)
                << "seed=" << seed << " replay=" << with_replay;
            EXPECT_EQ(group->collectiveUs() > 0.0, tp > 1)
                << "seed=" << seed;
            total_collectives += group->collectiveCount();

            // Tallies against ground truth the harness reads off
            // collect(): every submitted request finished, the token
            // tally and both latency histograms count exactly the
            // emitted tokens, and on eviction-free traces the prefix
            // cache served exactly the prompt tokens nobody prefilled.
            int64_t emitted = 0, unprefilled = 0;
            for (const FinishedRequest& done : results) {
                emitted += (int64_t)done.outputTokens.size();
                unprefilled += (int64_t)done.promptTokens.size() -
                               done.stats.prefillTokens;
            }
            const EngineStats& stats = engine->stats();
            int64_t finished = (int64_t)results.size();
            EXPECT_EQ(stats.requestsFinished, finished) << "seed=" << seed;
            EXPECT_EQ(stats.tokensGenerated, emitted) << "seed=" << seed;
            EXPECT_EQ(engine->metrics().histogram("serve.ttft_us").count(),
                      finished)
                << "seed=" << seed << " replay=" << with_replay;
            EXPECT_EQ(engine->metrics().histogram("serve.itl_us").count(),
                      emitted - finished)
                << "seed=" << seed << " replay=" << with_replay;
            if (stats.evictions == 0) {
                EXPECT_EQ(engine->kv().prefixTokensMatched(), unprefilled)
                    << "seed=" << seed << " replay=" << with_replay;
                // Each prompt prefilled once, and no packed call carries
                // more than the cap: a longer prefill took several steps.
                for (const FinishedRequest& done : results) {
                    chunked_requests +=
                        done.stats.prefillTokens > kPrefillCap;
                }
            }
            if (spec_k > 0) {
                // The truncate tally covers both pools (the draft rewinds
                // on every rejection; the target returns surplus pages).
                ASSERT_NE(engine->draftKv(), nullptr);
                total_spec_proposed += engine->stats().specProposed;
                total_spec_accepted += engine->stats().specAccepted;
                total_draft_calls += engine->stats().draftCalls;
                total_truncates += engine->kv().truncateCount() +
                                   engine->draftKv()->truncateCount();
            } else {
                // Speculation off must leave no trace at all.
                EXPECT_EQ(engine->stats().specProposed, 0);
                EXPECT_EQ(engine->stats().draftCalls, 0);
                EXPECT_EQ(engine->kv().truncateCount(), 0);
            }

            // Structural trace invariant: per-lane 'X' spans nest.
            std::string nest_error;
            EXPECT_TRUE(dev.trace().wellNested(&nest_error))
                << "seed=" << seed << " replay=" << with_replay << ": "
                << nest_error;
            EXPECT_FALSE(dev.trace().events().empty())
                << "seed=" << seed;
        }
    }
    // The fuzz must actually exercise the interesting machinery: some
    // scenario replayed a bucketed graph, some scenario evicted, some
    // trace mixed prefill and decode rows in one step, and automatic
    // prefix caching detected duplicated prompts (saving real pages)
    // without ever being hinted.
    EXPECT_GT(total_replays, 0);
    EXPECT_GT(total_evictions, 0);
    EXPECT_GT(mixed_step_traces, 0);
    EXPECT_GT(total_prefix_hits, 0);
    EXPECT_GT(total_prefix_tokens, 0);
    EXPECT_GT(ragged_decode_calls, 0);
    EXPECT_EQ(ragged_decode_calls, ragged_steps);
    // Prompts above the cap were served in chunks.
    EXPECT_GT(chunked_requests, 0);
    // The tp=2 axis really ran sharded (and paid for its collectives).
    EXPECT_EQ(total_collectives > 0, tp > 1);
    // The speculation axis must have exercised both regimes: drafts were
    // proposed, some were accepted (the identical-draft rounds), and
    // some were rejected hard enough to roll KV state back.
    if (spec_k > 0) {
        EXPECT_GT(total_draft_calls, 0);
        EXPECT_GT(total_spec_proposed, 0);
        EXPECT_GT(total_spec_accepted, 0);
        EXPECT_LT(total_spec_accepted, total_spec_proposed);
        EXPECT_GT(total_truncates, 0);
    }
    // The instrumented differential verifier must have actually fired:
    // every seed decoded through the planner's in-place KV appends (and
    // any in-place elementwise sites), each invocation double-executed
    // and bit-compared. A zero here means the corpus silently stopped
    // covering the aliasing machinery.
    unsetenv("RELAX_ALIAS_CHECK");
    EXPECT_GT(vm::aliasChecksPerformed() - alias_checks_before,
              (last - first) * 4)
        << "differential alias checking did not run across the corpus";
}

TEST(FuzzTraceTest, OracleTp1K0Half0) { runOracleSlice(1, 0, 0); }
TEST(FuzzTraceTest, OracleTp1K0Half1) { runOracleSlice(1, 0, 1); }
TEST(FuzzTraceTest, OracleTp1K2Half0) { runOracleSlice(1, 2, 0); }
TEST(FuzzTraceTest, OracleTp1K2Half1) { runOracleSlice(1, 2, 1); }
TEST(FuzzTraceTest, OracleTp1K4Half0) { runOracleSlice(1, 4, 0); }
TEST(FuzzTraceTest, OracleTp1K4Half1) { runOracleSlice(1, 4, 1); }
TEST(FuzzTraceTest, OracleTp2K0Half0) { runOracleSlice(2, 0, 0); }
TEST(FuzzTraceTest, OracleTp2K0Half1) { runOracleSlice(2, 0, 1); }
TEST(FuzzTraceTest, OracleTp2K2Half0) { runOracleSlice(2, 2, 0); }
TEST(FuzzTraceTest, OracleTp2K2Half1) { runOracleSlice(2, 2, 1); }
TEST(FuzzTraceTest, OracleTp2K4Half0) { runOracleSlice(2, 4, 0); }
TEST(FuzzTraceTest, OracleTp2K4Half1) { runOracleSlice(2, 4, 1); }

TEST(FuzzTraceTest, BuildWiresKvBlockSizeIntoGraphBucket)
{
    // Engine::build with graphBucketTokens=0 (auto) aligns the capture
    // bucket to the KV block size; steady-state decode then replays.
    LlamaConfig config = LlamaConfig::tiny();
    EngineOptions options;
    options.kvBlockTokens = 4;
    auto engine = Engine::build(config, fuzzOptions(true),
                                /*data_mode=*/true, options);
    engine->addRequest({1, 2, 3}, 10);
    engine->run();
    const EngineStats& stats = engine->stats();
    EXPECT_GT(stats.decodeGraphBegins, 0);
    EXPECT_GT(stats.decodeGraphReplays, 0);
    EXPECT_GT(stats.decodeReplayHitRate(), 0.5);
}

} // namespace
} // namespace serve
} // namespace relax
