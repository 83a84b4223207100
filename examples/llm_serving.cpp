/**
 * @file
 * Continuous-batching LLM serving on the tiny model with real data:
 * three concurrent requests run through the serve::Engine against one
 * compiled executable and one persistent KV page pool — each step packs
 * every running sequence's fresh tokens (prefill chunks and single
 * decode tokens alike) into ONE pool-addressed varlen call, the third
 * request repeats the first one's system prompt and automatic prefix
 * caching maps its page-aligned prefix blocks onto the parent's pool
 * pages (no fork hint: the prefix index, keyed by each block's
 * predecessor page and tokens, detects the duplication), and
 * per-request latency stats come off the simulated device's virtual
 * clock. The run is traced: the device's TraceRecorder is enabled up
 * front and the whole timeline — kernel spans, VM frames, step spans,
 * request lifecycles — is dumped as Chrome trace-event JSON (open
 * llm_serving_trace.json in Perfetto), and tail latency comes from the
 * engine's MetricsRegistry.
 */
#include <fstream>
#include <iostream>

#include "serve/engine.h"

int
main()
{
    using namespace relax;
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();

    frontend::CompileOptions options;
    options.device.name = "host";
    options.device.backend = "cpu";
    options.device.vramBytes = int64_t(8) << 30;

    serve::EngineOptions engine_options;
    engine_options.scheduler.maxBatchSize = 4;
    engine_options.kvBlockTokens = 4;
    auto engine = serve::Engine::build(config, options, /*data_mode=*/true,
                                       engine_options);
    // Record the full timeline on the virtual clock (off by default;
    // observation only — enabling it changes nothing about the run).
    engine->machine().dev().trace().enable();

    // Two requests with different prompt lengths arrive together; the
    // engine prefills each straight into pool pages, then decodes them
    // as one ragged batch per step whatever their context lengths.
    std::vector<int64_t> system_prompt = {3, 1, 4, 1, 5};
    engine->addRequest(system_prompt, /*max_new_tokens=*/8);
    engine->addRequest({2, 7}, /*max_new_tokens=*/6);
    engine->step(); // prefill both; the first prompt's blocks get indexed

    // A third request repeats the system prompt verbatim. No hint is
    // passed: at admission the KV manager looks up the prompt's
    // page-aligned blocks, each under the page matched for the block
    // before it, finds the first request's pages in its index and shares
    // them — only the tail past the last full block is prefilled.
    std::vector<int64_t> repeat_prompt = system_prompt;
    repeat_prompt.push_back(9);
    repeat_prompt.push_back(2);
    engine->addRequest(repeat_prompt, /*max_new_tokens=*/6);
    const serve::EngineStats& stats = engine->run();

    for (const serve::FinishedRequest& done : engine->collect()) {
        std::cout << "request " << done.id << " prompt:";
        for (int64_t token : done.promptTokens) std::cout << " " << token;
        std::cout << "\n  generated:";
        for (int64_t token : done.outputTokens) std::cout << " " << token;
        std::cout << "\n  ttft " << done.stats.ttftUs() / 1e3
                  << " ms, inter-token "
                  << done.stats.meanInterTokenUs() / 1e3 << " ms\n";
    }
    std::cout << "engine: " << stats.steps << " steps, "
              << stats.prefillBatches << " prefill + "
              << stats.decodeBatches << " decode batches, "
              << stats.tokensGenerated << " tokens, peak KV "
              << engine->kv().peakBytes() << " bytes ("
              << engine->kv().peakPages() << " pool pages)\n";
    std::cout << "automatic prefix caching: " << engine->kv().prefixHits()
              << " hit(s), " << engine->kv().prefixTokensMatched()
              << " prompt tokens served from shared pages\n";
    if (engine->kv().prefixHits() == 0) {
        std::cerr << "llm_serving: FAILED (prefix cache missed the"
                  << " duplicated system prompt)\n";
        return 1;
    }

    // Tail latency off the registry's exact TTFT distribution, and the
    // timeline as Perfetto-loadable Chrome trace JSON.
    const Histogram& ttft = engine->metrics().histogram("serve.ttft_us");
    std::cout << "p99 TTFT " << ttft.percentile(0.99) / 1e3 << " ms over "
              << ttft.count() << " request(s)\n";
    const char* trace_path = "llm_serving_trace.json";
    std::ofstream trace_file(trace_path);
    engine->machine().dev().trace().writeChromeTrace(trace_file);
    std::cout << "chrome trace ("
              << engine->machine().dev().trace().events().size()
              << " events) written to " << trace_path << "\n";
    std::cout << "llm_serving: OK\n";
    return 0;
}
