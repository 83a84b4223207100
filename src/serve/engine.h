/**
 * @file
 * Engine: the continuous-batching serving front door (addRequest / step /
 * collect) over one compiled executable and one persistent KV page pool.
 * Each step() admits waiting requests (scheduler policy + KV budget +
 * the step's prefill budget) and then issues exactly ONE pool-addressed
 * `decode_ragged` call covering the whole batch — decoding rows
 * contribute one token each, prefilling rows the next chunk of their
 * fresh prompt tails. The prefill budget is the per-step cap, at most
 * what the decode rows (1 + k tokens each) leave of the packed-token
 * bound n the function was compiled for, so no call exceeds the bounds
 * its memory plan was sized for (the VM refuses one that would): a
 * prompt whose fresh tail is above the cap is admitted once its first
 * chunk fits, reserves its whole prompt's pages, prefills over several
 * steps and samples its first token after the last chunk. A row decodes
 * when only its last sampled token is pending in the pool; any other
 * row is prefilling, and no flag records which (docs/DESIGN.md §5). The
 * packed varlen layout makes the mix rectangular-free: token ids ride in
 * one flat [1, total_fresh] tensor, per-row extents in a cumulative
 * offsets tensor cu_fresh [b+1] (row r owns packed positions
 * [cu[r], cu[r+1])), true context lengths in a [b] host tensor, and the
 * block table names each row's pool pages. The kernels scatter K/V
 * straight into pool pages at each row's committed offset, so a prefill
 * chunk and an n=1 decode coexist in the same call — there is no
 * grouping loop and `decode calls == steps` by construction.
 *
 * The pool tensors pass through the call by handle and are mutated in
 * place (`kv.append_ragged` aliases its output to the pool), so the
 * engine never copies cache bytes on the host: a copied pool would lose
 * the call's writes, and the data-mode token oracles would diverge from
 * sequential runs. Prompt prefixes dedupe automatically: the
 * KV manager indexes committed page-aligned blocks by their predecessor
 * page and their tokens, and admission maps a new request onto the chain
 * of indexed pages its prompt leads to (KVCacheManager::matchPrefix) —
 * no hint from the caller; refcounts + copy-on-write keep writers
 * private.
 *
 * build() compiles `decode_ragged` alone, the one function buildLlama
 * emits, with the graph-capture bucket equal to the KV block size, so
 * the decode shape signature moves only when the batch, the packed token
 * count or the table width crosses a bucket boundary: consecutive
 * pure-decode steps replay one captured execution graph
 * (EngineStats::decodeReplayHitRate). Under memory pressure decode
 * growth evicts the most recently admitted sequence (the back of the
 * running list: admission appends, nothing reorders); evicted requests
 * re-prefill prompt+generated on re-admission (re-matching whatever
 * prefix is still indexed), so outputs are preserved exactly.
 *
 * The engine serves every model through one route. The target and the
 * speculative draft are two instances of one per-model record (rank VMs,
 * per-rank weights, KV pool, sampler), and each packed call reaches the
 * VM through vm::VirtualMachine::invokeLockstep over the model's ranks.
 * The target's ranks are the devices of its DeviceGroup: one device at
 * tensor parallelism 1, N ShardPass'd ranks joined by priced collectives
 * at N (DESIGN.md §10).
 *
 * With speculation configured, build() attaches the draft (a second
 * LlamaConfig with its own weights, one VM on the target's device 0 and
 * its own KV pool; each VM owns the graphs it captured, so the two
 * models never cross-replay captures).
 * Decoding rows then run propose/verify/accept per step: the draft
 * proposes k tokens, the target verifies pending+drafts as one packed
 * n=k+1 row inside the SAME step call (the prefill-chunk shape —
 * decodeBatches == steps is preserved; draft calls count in
 * EngineStats::draftCalls), and the Sampler accepts a prefix (greedy:
 * longest argmax match + bonus token, token-identical to sequential
 * greedy; top-k: rejection sampling, target-distribution preserving).
 * Rejected tokens rewind both pools via KVCacheManager::truncate; a
 * step's COW copies price as one burst launch. docs/DESIGN.md §8 is the
 * contract.
 *
 * Works in both VM modes: data mode samples real logits (correctness
 * tests, examples); timing mode advances the simulated device clock with
 * metadata-only tensors (throughput benchmarks).
 */
#ifndef RELAX_SERVE_ENGINE_H_
#define RELAX_SERVE_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "device/interconnect.h"
#include "frontend/compile.h"
#include "frontend/llama.h"
#include "serve/kv_cache.h"
#include "serve/request.h"
#include "serve/sampler.h"
#include "serve/scheduler.h"
#include "support/metrics.h"
#include "vm/vm.h"

namespace relax {
namespace serve {

/**
 * Speculative decoding configuration. When `draftTokens` > 0 a second,
 * smaller model (the draft) proposes up to k tokens per running row per
 * step and the target model verifies all k+1 positions in its ONE
 * packed-varlen call — an n=k+1 row instead of n=1, no new kernels. The
 * draft runs on the same simulated device (one clock, one VRAM pool)
 * through its own VM, weights and KV page pool.
 */
struct SpeculationOptions
{
    /** Draft tokens proposed per running row per step; 0 disables. */
    int64_t draftTokens = 0;
    /**
     * The draft model. Must share the target's vocabulary (token ids
     * cross between the two models) and cover its context window.
     * Engine::build compiles it.
     */
    frontend::LlamaConfig draftConfig;
    /** Weight seed for the draft model in Engine::build. */
    unsigned draftWeightSeed = 7;
    /**
     * Timing mode has no logits to verify against, so acceptance is
     * simulated: each draft position survives an independent
     * Bernoulli(rate) draw until the first failure. Benches sweep this
     * to chart tokens/s uplift as a function of acceptance rate.
     */
    double syntheticAcceptanceRate = 0.8;
};

struct EngineOptions
{
    SchedulerOptions scheduler;
    SamplerOptions sampler;
    SpeculationOptions speculation;
    /**
     * Byte budget for the KV page pool; 0 derives one from the device:
     * (vramBytes - model weightBytes - draft footprint) * 0.8, floored
     * at one block.
     */
    int64_t kvBudgetBytes = 0;
    /** Cache positions per KV page (pool block size). */
    int64_t kvBlockTokens = 16;
    /**
     * Tensor-parallel shard count: the size of the DeviceGroup the
     * target model runs on, 1 (the default) being a one-device group.
     * Every degree takes the same call path. N > 1 makes Engine::build
     * compile `decode_ragged` through ShardPass, join the N devices by
     * `interconnect`, shard the weights and KV pools Megatron-style and
     * run every step's packed call in instruction lockstep with priced
     * ring collectives (two all-reduces per layer plus a logits
     * all-gather). Scheduling state — KV budget, admission, eviction —
     * stays in logical full-model units, so the emitted token streams
     * are identical at every N and `decodeBatches == steps` still holds.
     * DESIGN.md §10.
     */
    int64_t tensorParallel = 1;
    /** Interconnect for the device group ("nvlink", "pcie_gen4"). */
    std::string interconnect = "nvlink";
};

/** Aggregate engine statistics on the virtual clock (RunStats-style);
 *  the only store of the serve.* counters. */
struct EngineStats
{
    int64_t steps = 0;
    int64_t prefillBatches = 0; //!< steps whose packed call held prefill rows
    int64_t decodeBatches = 0;  //!< packed calls issued (== steps)
    int64_t prefillTokens = 0;  //!< fresh tokens prefilled into the pool
    int64_t tokensGenerated = 0;
    int64_t requestsFinished = 0;
    int64_t evictions = 0;
    double busyUs = 0.0;      //!< device-clock time spent inside step()

    // Execution-graph counters of pure-decode steps: with bucketed capture
    // the steady state should be almost all replays (the Fig. 17
    // launch-overhead win applied to serving).
    int64_t decodeGraphBegins = 0;
    int64_t decodeGraphReplays = 0;

    // Speculative decoding counters. The target's packed call stays ONE
    // per step (decodeBatches == steps holds with speculation on); the
    // draft model's catch-up and propose calls are tallied separately.
    int64_t draftCalls = 0;    //!< draft-model packed calls issued
    int64_t specProposed = 0;  //!< draft tokens submitted for verification
    int64_t specAccepted = 0;  //!< draft tokens the target accepted

    /** Fraction of proposed draft tokens the target accepted. */
    double
    specAcceptanceRate() const
    {
        return specProposed > 0
                   ? (double)specAccepted / (double)specProposed
                   : 0.0;
    }

    double
    tokensPerSec() const
    {
        return busyUs > 0 ? (double)tokensGenerated / busyUs * 1e6 : 0.0;
    }

    /** Fraction of decode-step graph regions served by replay. */
    double
    decodeReplayHitRate() const
    {
        return decodeGraphBegins > 0 ? (double)decodeGraphReplays /
                                           (double)decodeGraphBegins
                                     : 0.0;
    }
};

/** The serving engine. */
class Engine
{
  public:
    /**
     * The one way to make an engine: compiles `config`'s `decode_ragged`
     * for `compile_options.device`, joins `options.tensorParallel`
     * copies of the device by `options.interconnect`, makes the weights
     * and builds the engine over them. When
     * `compile_options.graphBucketTokens` is 0 (auto), the capture
     * bucket is set to `options.kvBlockTokens` so execution-graph
     * buckets and KV pages share one boundary.
     *
     * When `options.speculation.draftTokens` > 0 the draft model is
     * compiled the same way (never sharded) with weights from
     * `draftWeightSeed`, and attached: its VM runs on the group's device
     * 0 — one virtual clock, one VRAM pool with the target — and
     * replays only graphs it captured itself. Its KV pool is sized to
     * the full addressable envelope so draft reservations never evict.
     */
    static std::unique_ptr<Engine>
    build(const frontend::LlamaConfig& config,
          const frontend::CompileOptions& compile_options, bool data_mode,
          EngineOptions options = {});

    /** True when build() attached a draft model (draftTokens > 0). */
    bool speculationEnabled() const { return models_.size() > 1; }

    /**
     * Queues a generation request; returns its id. Prompts longer than
     * the model's context window are rejected here (RuntimeError)
     * rather than surfacing later as an admission stall. `arrival_us`
     * backdates the arrival stamp TTFT is measured from (drivers that
     * replay an arrival trace admit requests at step boundaries, after
     * the true arrival time); negative means "now" on the device clock.
     *
     * Prompt-prefix sharing needs no hint here: at admission the KV
     * manager matches the prompt against its index of committed
     * page-aligned blocks (keyed by predecessor page and tokens) and
     * maps any hit onto the existing pool pages, so only the unmatched tail is
     * prefilled. Copy-on-write keeps every token stream exact, and a
     * request whose twin has already released its pages simply prefills
     * in full.
     */
    RequestId addRequest(std::vector<int64_t> prompt,
                         int64_t max_new_tokens, int64_t stop_token = -1,
                         double arrival_us = -1.0);

    /**
     * One continuous-batching iteration: retire finished sequences,
     * admit newcomers, prefill the next chunk of every prefilling row
     * the step's budget reaches, decode the running batch. Returns false
     * (a strict no-op: no clock advance, no state change) when no
     * forward progress is possible — either nothing is waiting or
     * running, or the system is stalled (requests wait but none fit the
     * KV budget and none run). Callers driving step() directly must
     * check hasPendingWork() after a false return to tell the two
     * apart; run() turns the stall case into a RuntimeError.
     */
    bool step();

    /** True while any request is waiting or running. */
    bool hasPendingWork() const;

    /**
     * Steps until every request finishes. Throws RuntimeError when the
     * queue head can never fit the KV budget (nothing running and nothing
     * admissible).
     */
    const EngineStats& run();

    /** Returns finished requests (arrival order) and forgets them. */
    std::vector<FinishedRequest> collect();

    const EngineStats& stats() const { return stats_; }

    /**
     * The engine's metrics registry (always on): what aggregates cannot
     * carry — full latency distributions and per-step gauges; see
     * docs/DESIGN.md §7.
     *
     *  - serve.ttft_us / serve.itl_us histograms: recorded at token
     *    emission on the virtual clock. TTFT is measured from the
     *    request's ORIGINAL arrivalUs — a request evicted before its
     *    first token and re-admitted contributes its full queue+retry
     *    wait, never a rebased re-admission stamp; ITL gaps likewise
     *    include eviction stalls (real tail latency, vLLM semantics).
     *  - kv.used_pages / kv.free_pages / kv.occupancy gauges sampled
     *    once per step; serve.decode_replay_hit_rate likewise.
     */
    const MetricsRegistry& metrics() const { return metrics_; }
    MetricsRegistry& metrics() { return metrics_; }

    /** Writes the registry plus the event tallies as counters: serve.*
     *  from EngineStats, kv.* summed over the target and draft pools. */
    void snapshotJson(std::ostream& os) const;

    /** The target model's KV pool. */
    KVCacheManager& kv() { return *models_.front().kv; }
    /** The draft model's KV pool (null without speculation). */
    KVCacheManager*
    draftKv()
    {
        return speculationEnabled() ? models_.back().kv.get() : nullptr;
    }
    /** The target's rank-0 VM, on the group's device 0. */
    vm::VirtualMachine& machine() { return *models_.front().ranks.front(); }
    const frontend::LlamaConfig& config() const { return config_; }
    /** The target's device group (one device at tensorParallel() 1). */
    device::DeviceGroup* deviceGroup() { return group_.get(); }
    /** Tensor-parallel shard count: the device group's size. */
    int tensorParallel() const { return group_->size(); }

  private:
    /**
     * Builds the target model over `exec`; build() attaches the draft.
     *
     * @param exec      compiled executable with the pool-addressed
     *                  `decode_ragged`; a ShardPass build for
     *                  group->size() shards when the group has more than
     *                  one device
     * @param group     the devices the target model runs on, one rank VM
     *                  each; a one-device group is the single-device
     *                  engine. Device 0 carries the engine's clock and
     *                  trace and also runs the draft model.
     * @param data_mode true: real tensors + logits sampling; false:
     *                  metadata-only timing mode
     * @param config    model config (cache geometry, vocab)
     * @param weights   FULL-model parameter tensors in
     *                  makeLlamaWeights order (data or metadata matching
     *                  `data_mode`); the engine slices them to the
     *                  weight shapes of the compiled `decode_ragged`
     */
    Engine(vm::ExecutablePtr exec, std::shared_ptr<device::DeviceGroup> group,
           bool data_mode, frontend::LlamaConfig config,
           std::vector<NDArray> weights, EngineOptions options);

    /**
     * One served model: its rank VMs (one per device it spans, all
     * running one executable), each rank's weights, its KV page pool and
     * its sampler. The target and the draft are two instances, so every
     * packed call takes the same route (invokeRagged).
     */
    struct Model
    {
        Model(device::DeviceGroup* group, const SamplerOptions& sampler)
            : group(group), sampler(sampler)
        {
        }

        /** Prices the ranks' collectives; null for the draft, which runs
         *  alone on the target's device 0 and has none. */
        device::DeviceGroup* group;
        std::vector<std::unique_ptr<vm::VirtualMachine>> ranks;
        std::vector<std::vector<NDArray>> weights; //!< per rank
        /** Declared after `ranks`, so it releases its pools first. */
        std::unique_ptr<KVCacheManager> kv;
        /** Per model, so draft sampling never perturbs the target's rng. */
        Sampler sampler;

        std::vector<vm::VirtualMachine*> rankVms() const;
    };

    /** Per-row speculation state for one step: the proposed draft tokens
     *  and (top-k sampling only) the draft distribution each was drawn
     *  from, for the rejection-sampling acceptance ratio. */
    struct SpecPlan
    {
        std::vector<int64_t> drafts;
        std::vector<TokenProbs> probs;
    };

    /**
     * One packed `decode_ragged` call of `model` over the rows `order`:
     * ids [1, total] is the concatenation of the per-row `tokens`,
     * cu_fresh [b+1] their cumulative offsets, lens/table views from the
     * model's KV manager, each rank's pools and weights appended. Returns
     * the packed logits [1, total, vocab].
     */
    NDArray invokeRagged(Model& model, const std::vector<RequestId>& order,
                         const std::vector<std::vector<int64_t>>& tokens);
    /**
     * Runs the draft model for this step's speculating rows: first
     * catch-up calls replaying each row's token stream into the draft
     * pool up to the target's committed context (chunked under the
     * prefill-token cap), then k batched n=1 propose calls, each row
     * sampling its next draft token from the draft logits. Fills
     * `plans` keyed by request id.
     */
    void proposeDrafts(const std::vector<SequenceStatePtr>& rows,
                       const std::map<RequestId, int64_t>& spec_k,
                       std::map<RequestId, SpecPlan>& plans);
    /** Grows `seq` to `tokens` positions with an exclusively-owned write
     *  range [write_start, tokens), evicting under pressure (possibly
     *  `seq` itself — callers re-check the phase afterwards). */
    void ensureWritable(const SequenceStatePtr& seq, int64_t tokens,
                        int64_t write_start);
    /** Appends a sampled token; finishes the sequence when done. */
    void appendToken(const SequenceStatePtr& seq, int64_t token);
    void finishSequence(const SequenceStatePtr& seq);
    /** Preempts `victim` back to the waiting queue, dropping its pages. */
    void evict(const SequenceStatePtr& victim);
    /** Samples from packed logits at packed position (a row's last fresh
     *  token sits at cu[r+1] - 1). */
    int64_t sampleFor(const NDArray& logits, int64_t position);
    /** Fresh prompt tokens a packed call carrying `decode_tokens` decode
     *  tokens may add: the per-step cap, and under a compiled
     *  packed-token bound what the decode tokens leave of it. */
    int64_t prefillBudget(int64_t decode_tokens) const;

    frontend::LlamaConfig config_;
    EngineOptions options_;
    std::shared_ptr<device::DeviceGroup> group_;
    /** The packed-token bound n `decode_ragged` was compiled for, if
     *  any: the VM refuses a call past it. */
    std::optional<int64_t> packedTokenBound_;
    /** [0] the target; [1] the draft when build() attached one. */
    std::vector<Model> models_;
    Scheduler scheduler_;
    std::vector<SequenceStatePtr> running_;
    std::vector<SequenceStatePtr> finished_;
    EngineStats stats_;
    MetricsRegistry metrics_;
    /** Registry handles, resolved once (speculation's only when build()
     *  attaches a draft: resolving creates the snapshot entry). */
    struct Meters
    {
        Histogram* ttftUs = nullptr;
        Histogram* itlUs = nullptr;
        Histogram* specAccepted = nullptr;
        Gauge* usedPages = nullptr;
        Gauge* freePages = nullptr;
        Gauge* occupancy = nullptr;
        Gauge* running = nullptr;
        Gauge* replayHitRate = nullptr;
        Gauge* specAcceptanceRate = nullptr;
        std::vector<Gauge*> deviceAlloc; //!< device.<i>.alloc_bytes
        std::vector<Gauge*> devicePeak;  //!< device.<i>.peak_bytes
    } meters_;
    RequestId nextId_ = 0;
};

} // namespace serve
} // namespace relax

#endif // RELAX_SERVE_ENGINE_H_
