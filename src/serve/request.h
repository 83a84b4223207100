/**
 * @file
 * Request-level data model of the serving engine: the user-facing
 * Request, the engine-side SequenceState it becomes, and the per-request
 * latency statistics (TTFT, inter-token) measured on the simulated
 * device's virtual clock. See docs/ARCHITECTURE.md "Serving engine" for
 * the request lifecycle.
 */
#ifndef RELAX_SERVE_REQUEST_H_
#define RELAX_SERVE_REQUEST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

namespace relax {
namespace serve {

using RequestId = int64_t;

/** One generation request submitted to the engine. */
struct Request
{
    RequestId id = -1;
    std::vector<int64_t> promptTokens;
    int64_t maxNewTokens = 16;
    /** Generation stops early when this token is sampled (-1: never). */
    int64_t stopToken = -1;
};

/** Where a request currently is in its lifecycle. */
enum class RequestPhase {
    kWaiting, //!< queued (never admitted, or preempted back)
    kRunning, //!< holds KV blocks, participates in batched steps
    kFinished //!< output complete; KV blocks released
};

/** Per-request latency statistics in virtual-clock microseconds. */
struct RequestStats
{
    double arrivalUs = 0.0;     //!< clock when addRequest() ran
    double firstTokenUs = -1.0; //!< clock when the first token was emitted
    /** Clock when the most recent token was emitted — the base the
     *  engine's inter-token-latency histogram measures each gap from.
     *  Evictions do NOT reset it (nor arrivalUs): the stall a preempted
     *  request suffers is real tail latency and must land in the
     *  distribution, measured from the original timeline. */
    double lastTokenUs = -1.0;
    double finishUs = -1.0;     //!< clock when the request completed
    int64_t prefillTokens = 0;  //!< total tokens prefilled (re-prefills count)
    int64_t generatedTokens = 0;
    int64_t preemptions = 0; //!< times this request was evicted mid-flight

    /** Time to first token; negative before the first token exists. */
    double
    ttftUs() const
    {
        return firstTokenUs < 0 ? -1.0 : firstTokenUs - arrivalUs;
    }

    /** Mean latency per generated token after the first. */
    double
    meanInterTokenUs() const
    {
        if (finishUs < 0 || generatedTokens < 2) return 0.0;
        return (finishUs - firstTokenUs) / (double)(generatedTokens - 1);
    }
};

struct SequenceState;
using SequenceStatePtr = std::shared_ptr<SequenceState>;

/**
 * Engine-internal mutable state of one request. Cache values and the
 * committed context length live in the KVCacheManager's page pool,
 * keyed by request id; the engine holds neither per sequence.
 */
struct SequenceState
{
    Request request;
    RequestPhase phase = RequestPhase::kWaiting;
    std::vector<int64_t> generated;
    RequestStats stats;

    /**
     * Tokens a (re-)prefill must process: the prompt plus everything
     * already generated — after an eviction the cache is rebuilt from
     * these, so prior outputs are preserved exactly.
     */
    std::vector<int64_t>
    prefillTokens() const
    {
        std::vector<int64_t> tokens = request.promptTokens;
        tokens.insert(tokens.end(), generated.begin(), generated.end());
        return tokens;
    }

    /** Length of prefillTokens() without materializing the vector. */
    int64_t
    prefillLength() const
    {
        return (int64_t)(request.promptTokens.size() + generated.size());
    }

    bool
    done() const
    {
        return (int64_t)generated.size() >= request.maxNewTokens ||
               (request.stopToken >= 0 && !generated.empty() &&
                generated.back() == request.stopToken);
    }
};

/** A completed request as returned by Engine::collect(). */
struct FinishedRequest
{
    RequestId id = -1;
    std::vector<int64_t> promptTokens;
    std::vector<int64_t> outputTokens;
    RequestStats stats;
};

} // namespace serve
} // namespace relax

#endif // RELAX_SERVE_REQUEST_H_
