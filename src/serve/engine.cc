/**
 * @file
 * Engine implementation: the continuous-batching step loop — admission
 * (with automatic prefix matching against the KV manager's prefix
 * index), then ONE packed-varlen page-pool call per step in which
 * decoding rows decode one token each and prefilling rows take the next
 * chunk of their fresh prompt tails within the step's prefill budget,
 * with copy-on-write and eviction under memory pressure —
 * plus request bookkeeping and the virtual-clock statistics (see
 * engine.h). Cache data never moves on the host: every phase addresses
 * the persistent pool through the block table (kv_cache.h says why no
 * relayout can happen).
 */
#include "serve/engine.h"

#include <algorithm>

#include "ir/utils.h"
#include "passes/alias_analysis.h"

namespace relax {
namespace serve {

namespace {

/** Per-row fresh tokens packed into one flat [1, total] i64 tensor. */
NDArray
packedIdsTensor(const std::vector<std::vector<int64_t>>& tokens,
                bool data_mode)
{
    int64_t total = 0;
    for (const auto& row : tokens) total += (int64_t)row.size();
    if (!data_mode) return NDArray::metaOnly({1, total}, DataType::i64());
    std::vector<double> values;
    values.reserve((size_t)total);
    for (const auto& row : tokens) {
        values.insert(values.end(), row.begin(), row.end());
    }
    return NDArray::fromVector({1, total}, DataType::i64(),
                               std::move(values));
}

/** Cumulative fresh offsets cu_fresh [b+1] (always host data: the
 *  library cost model sums per-row fresh counts from it). */
NDArray
cuFreshTensor(const std::vector<std::vector<int64_t>>& tokens)
{
    std::vector<double> cu;
    cu.reserve(tokens.size() + 1);
    double running = 0.0;
    cu.push_back(0.0);
    for (const auto& row : tokens) {
        running += (double)row.size();
        cu.push_back(running);
    }
    return NDArray::fromVector({(int64_t)tokens.size() + 1},
                               DataType::i64(), std::move(cu));
}

/** `options` with the per-step prefill cap lowered to `packed_bound`,
 *  the packed-token bound the serving function was compiled for: no step
 *  can carry more fresh tokens than that. */
SchedulerOptions
withinPackedBound(SchedulerOptions options,
                  std::optional<int64_t> packed_bound)
{
    if (packed_bound) {
        options.maxPrefillTokensPerStep =
            std::min(options.maxPrefillTokensPerStep, *packed_bound);
    }
    return options;
}

/** The draft KV pool is sized to the full addressable envelope — every
 *  batch slot at the draft's context ceiling plus a block of rounding
 *  slack — so draft reservations can never exhaust it (the draft must
 *  never trigger evictions of its own). */
int64_t
draftPoolBytes(const SpeculationOptions& spec, const EngineOptions& opts)
{
    return spec.draftConfig.kvBytesPerToken() *
           (spec.draftConfig.maxContext + opts.kvBlockTokens) *
           opts.scheduler.maxBatchSize;
}

} // namespace

std::vector<vm::VirtualMachine*>
Engine::Model::rankVms() const
{
    std::vector<vm::VirtualMachine*> vms;
    vms.reserve(ranks.size());
    for (const auto& rank : ranks) vms.push_back(rank.get());
    return vms;
}

Engine::Engine(vm::ExecutablePtr exec,
               std::shared_ptr<device::DeviceGroup> group, bool data_mode,
               frontend::LlamaConfig config, std::vector<NDArray> weights,
               EngineOptions options)
    : config_(std::move(config)), options_(options),
      group_(std::move(group)),
      packedTokenBound_(ir::compiledBound(
          *exec->module->getFunction("decode_ragged"), "n")),
      scheduler_(withinPackedBound(options.scheduler, packedTokenBound_))
{
    RELAX_ICHECK(group_) << "engine needs a device group";
    // Memory-plan observability: the compiler's plan for decode_ragged
    // is static, so its footprint is sampled once here (in-place
    // rewrites are what keep it flat).
    {
        passes::MemoryPlanReport plan = passes::memoryPlanReport(
            exec->module);
        metrics_.gauge("plan.storages")
            .sample((double)plan.storagesAllocated);
        metrics_.gauge("plan.total_bytes")
            .sample((double)plan.bytesAllocated);
        metrics_.gauge("plan.reuse_hits").sample((double)plan.reuseHits);
        metrics_.gauge("plan.bytes_reused")
            .sample((double)plan.bytesReused);
        metrics_.gauge("plan.inplace_rewrites")
            .sample((double)plan.inplaceWrites);
    }
    // One rank VM per device of the group, all sharing ONE executable
    // (the ShardPass split is uniform, so one compiled program serves
    // every shard — which is also what invokeLockstep requires). Each
    // rank holds its slice of the full weights, cut to the shapes of the
    // compiled decode_ragged; weights ShardPass left whole share storage
    // by handle, and a lone rank holds them all.
    Model& target = models_.emplace_back(group_.get(), options_.sampler);
    int n = tensorParallel();
    ir::Function serving = exec->module->getFunction("decode_ragged");
    for (int s = 0; s < n; ++s) {
        target.ranks.push_back(std::make_unique<vm::VirtualMachine>(
            exec, group_->devicePtr(s), data_mode));
        target.weights.push_back(
            frontend::shardLlamaWeights(serving, weights, s, n));
    }
    int64_t budget = options_.kvBudgetBytes;
    if (budget <= 0) {
        // Auto budget: what the device has left once weights are resident,
        // with 20% headroom for activations, floored at one block. The
        // pool is allocated up front, so additionally cap the auto size
        // at the addressable envelope: maxBatchSize sequences can never
        // hold more than maxContext positions each (plus a block of
        // rounding slack per slot). Paper-scale configs are far above
        // this; it keeps tiny test configs from materializing gigabyte
        // pools in data mode. An explicit kvBudgetBytes is respected
        // as-is. With speculation configured, the draft model's weights
        // and pool envelope come off the top first.
        int64_t resident = config_.weightBytes();
        if (options_.speculation.draftTokens > 0) {
            resident += options_.speculation.draftConfig.weightBytes() +
                        draftPoolBytes(options_.speculation, options_);
        }
        budget = (int64_t)((double)(machine().dev().spec().vramBytes -
                                    resident) *
                           0.8);
        int64_t usable = config_.kvBytesPerToken() *
                         (config_.maxContext + options_.kvBlockTokens) *
                         options_.scheduler.maxBatchSize;
        budget = std::min(budget, usable);
    }
    budget = std::max(budget,
                      config_.kvBytesPerToken() * options_.kvBlockTokens);
    // The budget formula above is in LOGICAL full-model bytes regardless
    // of sharding — the KV manager divides residency per rank
    // internally, so admission decisions (and therefore the token
    // streams) are identical at every tensorParallel.
    target.kv = std::make_unique<KVCacheManager>(
        config_, target.rankVms(), budget, options_.kvBlockTokens);
    // The scheduler stamps lifecycle instants with the device clock +
    // TraceRecorder.
    scheduler_.attachDevice(&machine().dev());
    meters_.ttftUs = &metrics_.histogram("serve.ttft_us");
    meters_.itlUs = &metrics_.histogram("serve.itl_us");
    meters_.usedPages = &metrics_.gauge("kv.used_pages");
    meters_.freePages = &metrics_.gauge("kv.free_pages");
    meters_.occupancy = &metrics_.gauge("kv.occupancy");
    meters_.running = &metrics_.gauge("serve.running");
    meters_.replayHitRate = &metrics_.gauge("serve.decode_replay_hit_rate");
    // Per-device memory gauges, one lane per rank (matching the trace pid
    // layout).
    for (int i = 0; i < n; ++i) {
        std::string prefix = "device." + std::to_string(i) + ".";
        meters_.deviceAlloc.push_back(&metrics_.gauge(prefix + "alloc_bytes"));
        meters_.devicePeak.push_back(&metrics_.gauge(prefix + "peak_bytes"));
    }
}

std::unique_ptr<Engine>
Engine::build(const frontend::LlamaConfig& config,
              const frontend::CompileOptions& compile_options,
              bool data_mode, EngineOptions options)
{
    frontend::CompileOptions copts = compile_options;
    if (copts.graphBucketTokens == 0) {
        // Align graph-capture buckets with KV pages: the decode
        // signature (b, n=1, table width) then changes only when the
        // batch crosses a bucket class or the longest sequence grows
        // into a new page, so the steps in between replay one captured
        // graph.
        copts.graphBucketTokens = options.kvBlockTokens;
    }
    // Above one shard, ShardPass rewrites decode_ragged into the
    // per-shard program the engine runs across the group in lockstep.
    copts.tensorParallel = options.tensorParallel;
    auto group = std::make_shared<device::DeviceGroup>(
        copts.device, (int)options.tensorParallel,
        device::interconnectByName(options.interconnect));
    // One module per model: its weights are read off it, then compiling
    // consumes it, so the passes free each function they replace.
    ir::IRModulePtr module = frontend::buildLlama(config);
    auto weights = frontend::makeLlamaWeights(module, config, data_mode);
    auto exec = frontend::compile(std::move(module), copts);
    std::unique_ptr<Engine> engine(new Engine(std::move(exec),
                                              std::move(group), data_mode,
                                              config, std::move(weights),
                                              options));
    const SpeculationOptions& spec = options.speculation;
    if (spec.draftTokens <= 0) return engine;

    RELAX_ICHECK(spec.draftConfig.vocabSize == config.vocabSize)
        << "draft vocabulary (" << spec.draftConfig.vocabSize
        << ") must match the target's (" << config.vocabSize
        << "): token ids cross between the two models";
    RELAX_ICHECK(spec.draftConfig.maxContext >= config.maxContext)
        << "draft context window (" << spec.draftConfig.maxContext
        << ") must cover the target's (" << config.maxContext << ")";
    // The draft compiles under the same options (device, bounds,
    // bucket): its verify-free n=1 decode reuses the exact symbolic
    // machinery, just over a smaller config. It is never sharded — it
    // runs on the group's device 0 alone, and any clock skew merges at
    // the target's next collective barrier.
    frontend::CompileOptions draft_copts = copts;
    draft_copts.tensorParallel = 1;
    ir::IRModulePtr draft_module = frontend::buildLlama(spec.draftConfig);
    auto draft_weights = frontend::makeLlamaWeights(
        draft_module, spec.draftConfig, data_mode, spec.draftWeightSeed);
    Model& draft = engine->models_.emplace_back(nullptr, options.sampler);
    draft.ranks.push_back(std::make_unique<vm::VirtualMachine>(
        frontend::compile(std::move(draft_module), draft_copts),
        engine->group_->devicePtr(0), data_mode));
    draft.weights.push_back(std::move(draft_weights));
    draft.kv = std::make_unique<KVCacheManager>(
        spec.draftConfig, draft.rankVms(), draftPoolBytes(spec, options),
        options.kvBlockTokens);
    engine->meters_.specAccepted =
        &engine->metrics_.histogram("serve.spec_accepted");
    engine->meters_.specAcceptanceRate =
        &engine->metrics_.gauge("serve.spec_acceptance_rate");
    return engine;
}

RequestId
Engine::addRequest(std::vector<int64_t> prompt, int64_t max_new_tokens,
                   int64_t stop_token, double arrival_us)
{
    RELAX_ICHECK(!prompt.empty()) << "empty prompt";
    RELAX_ICHECK(max_new_tokens >= 1) << "maxNewTokens must be >= 1";
    if ((int64_t)prompt.size() > config_.maxContext) {
        // Reject at submission: the pool is sized to the model's context
        // window, so an over-long prompt could never be admitted and
        // would otherwise surface later as a confusing stall.
        RELAX_THROW(RuntimeError)
            << "prompt of " << prompt.size()
            << " tokens exceeds the model context window ("
            << config_.maxContext << ")";
    }
    auto seq = std::make_shared<SequenceState>();
    seq->request.id = nextId_++;
    seq->request.promptTokens = std::move(prompt);
    seq->request.maxNewTokens = max_new_tokens;
    seq->request.stopToken = stop_token;
    seq->stats.arrivalUs =
        arrival_us >= 0 ? arrival_us : machine().dev().clockUs();
    RequestId id = seq->request.id;
    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        // The request's whole lifetime is one async span keyed by its id
        // (async pairs may overlap, unlike 'X' spans), opened at the
        // arrival stamp — possibly backdated by the caller's trace.
        trace.asyncBegin(
            trace_lanes::kEngine, trace_lanes::kRequests, "request",
            "request", id, seq->stats.arrivalUs,
            {{"prompt_tokens", (int64_t)seq->request.promptTokens.size()},
             {"max_new_tokens", max_new_tokens}});
    }
    scheduler_.enqueue(std::move(seq));
    return id;
}

bool
Engine::hasPendingWork() const
{
    return scheduler_.hasWaiting() || !running_.empty();
}

int64_t
Engine::sampleFor(const NDArray& logits, int64_t position)
{
    Sampler& sampler = models_.front().sampler;
    if (machine().dataMode()) return sampler.samplePacked(logits, position);
    return sampler.sampleSynthetic(config_.vocabSize);
}

void
Engine::appendToken(const SequenceStatePtr& seq, int64_t token)
{
    seq->generated.push_back(token);
    ++seq->stats.generatedTokens;
    ++stats_.tokensGenerated;
    double now = machine().dev().clockUs();
    if (seq->stats.firstTokenUs < 0) {
        seq->stats.firstTokenUs = now;
        // TTFT from the ORIGINAL arrival stamp: eviction + re-admission
        // never rebase arrivalUs, so a request preempted before its
        // first token contributes its full queue + retry wait here
        // (engine.h metrics() contract; pinned by test_engine.cc).
        meters_.ttftUs->record(now - seq->stats.arrivalUs);
        TraceRecorder& trace = machine().dev().trace();
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kRequests,
                          "first_token", "lifecycle", now,
                          {{"request", seq->request.id},
                           {"ttft_us", now - seq->stats.arrivalUs}});
        }
    } else {
        // Inter-token gap on the virtual clock; eviction stalls between
        // two tokens land here as real tail latency.
        meters_.itlUs->record(now - seq->stats.lastTokenUs);
    }
    seq->stats.lastTokenUs = now;
    // Done by budget/stop token, or the cache hit the trained context
    // window and cannot grow another position.
    if (seq->done() ||
        kv().committedTokens(seq->request.id) >= config_.maxContext) {
        finishSequence(seq);
    }
}

void
Engine::finishSequence(const SequenceStatePtr& seq)
{
    seq->phase = RequestPhase::kFinished;
    seq->stats.finishUs = machine().dev().clockUs();
    for (Model& model : models_) model.kv->release(seq->request.id);
    running_.erase(std::find(running_.begin(), running_.end(), seq));
    finished_.push_back(seq);
    ++stats_.requestsFinished;
    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        trace.asyncEnd(trace_lanes::kEngine, trace_lanes::kRequests,
                       "request", "request", seq->request.id,
                       seq->stats.finishUs,
                       {{"generated", (int64_t)seq->generated.size()},
                        {"preemptions", seq->stats.preemptions}});
    }
}

void
Engine::evict(const SequenceStatePtr& victim)
{
    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        trace.instant(trace_lanes::kEngine, trace_lanes::kRequests,
                      "evict", "lifecycle", machine().dev().clockUs(),
                      {{"request", victim->request.id},
                       {"ctx_len", kv().committedTokens(victim->request.id)},
                       {"generated", (int64_t)victim->generated.size()}});
    }
    // The draft cache rebuilds by catch-up after re-admission, exactly
    // as the target re-prefills.
    for (Model& model : models_) model.kv->release(victim->request.id);
    running_.erase(std::find(running_.begin(), running_.end(), victim));
    ++victim->stats.preemptions;
    ++stats_.evictions;
    // Back of the queue: generated tokens ride along and are re-prefilled
    // on re-admission (re-matching a still-indexed prefix), so the
    // output stream resumes where it stopped.
    scheduler_.enqueue(victim);
}

void
Engine::ensureWritable(const SequenceStatePtr& seq, int64_t tokens,
                       int64_t write_start)
{
    // Capacity plus exclusive ownership of the write range; evict the
    // most recently admitted sequence (lowest priority, least sunk
    // prefill work) while the pool cannot provide it. That is the back
    // of running_: admission appends, nothing reorders.
    // Evicting a prefix-sharing reader can itself unshare the range, so
    // the condition is re-checked every round.
    if (seq->phase != RequestPhase::kRunning) return;
    while (!kv().canHold(seq->request.id, tokens, write_start)) {
        SequenceStatePtr victim = running_.back();
        if (victim == seq && running_.size() == 1) {
            RELAX_THROW(RuntimeError)
                << "KV budget (" << kv().budgetBytes()
                << " bytes) cannot grow the only running sequence to "
                << tokens << " positions";
        }
        evict(victim);
        if (victim == seq) return;
    }
    kv().reserve(seq->request.id, tokens, write_start);
}

NDArray
Engine::invokeRagged(Model& model, const std::vector<RequestId>& order,
                     const std::vector<std::vector<int64_t>>& tokens)
{
    KVCacheManager& kv = *model.kv;
    int64_t table_width = 1;
    for (RequestId id : order) {
        table_width = std::max(table_width, kv.pagesOf(id));
    }
    // ids, lens, cu_fresh and the block table are the only
    // host-marshalled inputs; cache data stays in the pool, whose
    // tensors pass by handle. Every rank gets the SAME host metadata
    // tensors (shared handles — there is one logical batch) but its own
    // pool slice and weight slice.
    NDArray ids = packedIdsTensor(tokens, machine().dataMode());
    NDArray lens = kv.lengthsView(order);
    NDArray cu = cuFreshTensor(tokens);
    NDArray table = kv.blockTableView(order, table_width);
    std::vector<std::vector<vm::Value>> args(model.ranks.size());
    for (size_t s = 0; s < args.size(); ++s) {
        const std::vector<NDArray>& pools = kv.poolTensors((int)s);
        args[s].reserve(4 + pools.size() + model.weights[s].size());
        args[s] = {ids, lens, cu, table};
        args[s].insert(args[s].end(), pools.begin(), pools.end());
        args[s].insert(args[s].end(), model.weights[s].begin(),
                       model.weights[s].end());
    }
    // Rank 0's result carries the full logits (a sharded model's
    // all_gather materializes them on every rank).
    std::vector<vm::Value> results = vm::VirtualMachine::invokeLockstep(
        model.rankVms(), model.group, "decode_ragged", args);
    auto out = std::get<vm::TupleValuePtr>(results[0]);
    return std::get<NDArray>(out->fields[0]);
}

void
Engine::proposeDrafts(const std::vector<SequenceStatePtr>& rows,
                      const std::map<RequestId, int64_t>& spec_k,
                      std::map<RequestId, SpecPlan>& plans)
{
    Model& draft = models_.back();
    KVCacheManager& draft_kv = *draft.kv;
    // --- catch-up: the draft pool may lag the target's committed
    // context (just-admitted rows, the bonus token of an all-accept
    // step, re-admission after eviction). Replay each row's token
    // stream into the draft pool, chunked under the prefill budget of a
    // call with no decode rows, so one call never exceeds the compiled
    // packed-token bound.
    int64_t cap = std::max<int64_t>(prefillBudget(0), 1);
    while (true) {
        std::vector<RequestId> order;
        std::vector<std::vector<int64_t>> chunks;
        std::vector<int64_t> new_commits;
        int64_t total = 0;
        for (const SequenceStatePtr& seq : rows) {
            RequestId id = seq->request.id;
            int64_t have = draft_kv.committedTokens(id);
            int64_t want = kv().committedTokens(id);
            if (have >= want || total >= cap) continue;
            int64_t take = std::min(want - have, cap - total);
            std::vector<int64_t> stream = seq->prefillTokens();
            chunks.emplace_back(stream.begin() + have,
                                stream.begin() + have + take);
            order.push_back(id);
            new_commits.push_back(have + take);
            draft_kv.reserve(id, have + take, have);
            total += take;
        }
        if (order.empty()) break;
        invokeRagged(draft, order, chunks);
        ++stats_.draftCalls;
        for (size_t i = 0; i < order.size(); ++i) {
            draft_kv.commit(order[i], new_commits[i]);
        }
    }

    // --- propose: k batched single-token draft decodes. Call j feeds
    // each row its previous draft token (the pending target token for
    // j = 0) and samples the next proposal from the draft logits; rows
    // whose per-row budget ran out drop from later calls.
    int64_t max_k = 0;
    for (const auto& [id, k_row] : spec_k) max_k = std::max(max_k, k_row);
    for (int64_t j = 0; j < max_k; ++j) {
        std::vector<RequestId> order;
        std::vector<std::vector<int64_t>> toks;
        for (const SequenceStatePtr& seq : rows) {
            RequestId id = seq->request.id;
            auto it = spec_k.find(id);
            if (it == spec_k.end() || it->second <= j) continue;
            const SpecPlan& plan = plans[id];
            int64_t tok = j == 0 ? seq->generated.back()
                                 : plan.drafts.back();
            int64_t ctx = kv().committedTokens(id);
            draft_kv.reserve(id, ctx + j + 1, ctx + j);
            order.push_back(id);
            toks.push_back({tok});
        }
        if (order.empty()) break;
        NDArray logits = invokeRagged(draft, order, toks);
        ++stats_.draftCalls;
        for (size_t r = 0; r < order.size(); ++r) {
            SpecPlan& plan = plans[order[r]];
            // One fresh token per row, so row r's logits sit at packed
            // position r (== cu[r + 1] - 1).
            if (machine().dataMode()) {
                plan.drafts.push_back(
                    draft.sampler.samplePacked(logits, (int64_t)r));
                if (options_.sampler.topK > 1) {
                    plan.probs.push_back(
                        draft.sampler.topKProbs(logits, (int64_t)r));
                }
            } else {
                plan.drafts.push_back(
                    draft.sampler.sampleSynthetic(config_.vocabSize));
            }
            draft_kv.commit(order[r],
                            kv().committedTokens(order[r]) + j + 1);
        }
    }

    TraceRecorder& trace = machine().dev().trace();
    if (trace.enabled()) {
        for (const SequenceStatePtr& seq : rows) {
            auto it = plans.find(seq->request.id);
            if (it == plans.end()) continue;
            trace.instant(trace_lanes::kEngine, trace_lanes::kSpeculation,
                          "propose", "speculation",
                          machine().dev().clockUs(),
                          {{"request", seq->request.id},
                           {"tokens", (int64_t)it->second.drafts.size()}});
        }
    }
}

bool
Engine::step()
{
    if (!hasPendingWork()) return false;
    double clock_before = machine().dev().clockUs();

    int64_t spec_budget =
        speculationEnabled() ? options_.speculation.draftTokens : 0;

    // A running row decodes when only its last sampled token is pending;
    // any other row is still prefilling its stream (prompt plus tokens
    // generated before an eviction) and takes the step's prefill budget
    // in admission order, ahead of the rows admitted now. Admission
    // plans against the most the decode rows may carry: 1 + k each.
    std::vector<SequenceStatePtr> decoding;
    int64_t carried = 0;
    for (const SequenceStatePtr& seq : running_) {
        int64_t pending = seq->prefillLength() -
                          kv().committedTokens(seq->request.id);
        if (!seq->generated.empty() && pending == 1) {
            decoding.push_back(seq);
        } else {
            carried += pending;
        }
    }
    int64_t budget =
        prefillBudget((int64_t)decoding.size() * (1 + spec_budget));
    std::vector<SequenceStatePtr> admitted = scheduler_.admit(
        kv(), (int64_t)running_.size(), budget - std::min(carried, budget));
    running_.insert(running_.end(), admitted.begin(), admitted.end());

    // Own every decoding row's write range up front: one decode position
    // plus its speculation window. This may evict, including rows
    // admitted above — phases are re-checked when the batch is built.
    // Admission already reserved the prefilling rows' whole streams,
    // from the prefix-matched offset, past every shared page.
    // The sweep's copy-on-write copies price as one burst at the flush
    // below, so b sequences copying shared pages pay one launch, not b.
    std::map<RequestId, int64_t> spec_k;
    for (const SequenceStatePtr& seq : decoding) {
        int64_t ctx = kv().committedTokens(seq->request.id);
        int64_t k_row = 0;
        if (spec_budget > 0) {
            // Per-row window: never propose past the request's token
            // budget or the context ceiling (the verify row writes
            // k+1 positions), and degrade speculation before letting
            // it evict anyone — pressure behavior must match k=0.
            k_row = std::min(spec_budget,
                             seq->request.maxNewTokens -
                                 (int64_t)seq->generated.size() - 1);
            k_row = std::min(k_row, config_.maxContext - ctx - 1);
            k_row = std::max<int64_t>(k_row, 0);
            while (k_row > 0 &&
                   !kv().canHold(seq->request.id, ctx + 1 + k_row, ctx)) {
                --k_row;
            }
        }
        ensureWritable(seq, ctx + 1 + k_row, ctx);
        if (k_row > 0) spec_k[seq->request.id] = k_row;
    }
    // The draft pool never shares a page, so its flush prices nothing.
    for (Model& model : models_) model.kv->flushCowBatch();

    // Draft proposals for the rows that survived the reservation sweep
    // (eviction may have reclaimed some).
    std::map<RequestId, SpecPlan> plans;
    if (!spec_k.empty()) {
        std::vector<SequenceStatePtr> spec_rows;
        for (const SequenceStatePtr& seq : running_) {
            if (seq->phase == RequestPhase::kRunning &&
                spec_k.count(seq->request.id) > 0) {
                spec_rows.push_back(seq);
            }
        }
        if (!spec_rows.empty()) proposeDrafts(spec_rows, spec_k, plans);
    }

    // The packed call's prefill budget is what the decode rows it
    // really carries leave (the sweep may have evicted rows or narrowed
    // windows): never below the admission plan, so every tail admitted
    // whole still fits.
    int64_t decode_tokens = 0;
    for (const SequenceStatePtr& seq : decoding) {
        if (seq->phase != RequestPhase::kRunning) continue;
        auto plan_it = plans.find(seq->request.id);
        decode_tokens += 1 + (plan_it == plans.end()
                                  ? 0
                                  : (int64_t)plan_it->second.drafts.size());
    }
    budget = prefillBudget(decode_tokens);

    // One packed-varlen call per step: prefill chunks, n=1 decode rows
    // and n=k+1 verify rows ride together — row r owns packed positions
    // [cu[r], cu[r+1]). A prefilling row's fresh tokens are the next
    // chunk of its stream the budget admits (a row the budget does not
    // reach waits for the next step); a verify row's are its pending
    // token followed by the draft proposals.
    std::vector<SequenceStatePtr> batch;
    std::vector<std::vector<int64_t>> tokens;
    std::vector<bool> is_prefill;
    for (const SequenceStatePtr& seq : running_) {
        if (seq->phase != RequestPhase::kRunning) continue;
        bool prefill = std::find(decoding.begin(), decoding.end(), seq) ==
                       decoding.end();
        if (prefill) {
            int64_t start = kv().committedTokens(seq->request.id);
            int64_t take = std::min(seq->prefillLength() - start, budget);
            if (take == 0) continue;
            budget -= take;
            std::vector<int64_t> all = seq->prefillTokens();
            tokens.emplace_back(all.begin() + start,
                                all.begin() + start + take);
        } else {
            std::vector<int64_t> fresh{seq->generated.back()};
            auto plan_it = plans.find(seq->request.id);
            if (plan_it != plans.end()) {
                fresh.insert(fresh.end(), plan_it->second.drafts.begin(),
                             plan_it->second.drafts.end());
            }
            tokens.push_back(std::move(fresh));
        }
        batch.push_back(seq);
        is_prefill.push_back(prefill);
    }
    if (batch.empty()) return false;

    std::vector<RequestId> order;
    order.reserve(batch.size());
    for (const SequenceStatePtr& seq : batch) {
        order.push_back(seq->request.id);
    }
    NDArray logits = invokeRagged(models_.front(), order, tokens);
    ++stats_.decodeBatches; // one packed call per step, by construction
    bool any_prefill =
        std::find(is_prefill.begin(), is_prefill.end(), true) !=
        is_prefill.end();
    if (any_prefill) {
        // Mixed steps move the shape signature (the packed token count
        // changes), so only pure-decode steps feed the graph counters
        // that measure the steady-state replay win.
        ++stats_.prefillBatches;
    } else {
        stats_.decodeGraphBegins += machine().lastRunStats().graphBegins;
        stats_.decodeGraphReplays +=
            machine().lastRunStats().graphReplays;
    }

    TraceRecorder& trace = machine().dev().trace();
    double clock_after = machine().dev().clockUs();
    int64_t packed_end = 0;
    for (size_t row = 0; row < batch.size(); ++row) {
        const SequenceStatePtr& seq = batch[row];
        RequestId id = seq->request.id;
        int64_t fresh = (int64_t)tokens[row].size();
        int64_t packed_start = packed_end; // == cu[row]
        packed_end += fresh;               // == cu[row + 1]
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kRequests,
                          is_prefill[row] ? "prefill" : "decode", "phase",
                          clock_after,
                          {{"request", id}, {"tokens", fresh}});
        }
        if (is_prefill[row]) {
            int64_t committed = kv().committedTokens(id) + fresh;
            kv().commit(id, committed);
            seq->stats.prefillTokens += fresh;
            stats_.prefillTokens += fresh;
            // Register the freshly committed page-aligned blocks in the
            // prefix index so later duplicate prompts match them.
            kv().registerCommitted(id, seq->prefillTokens());
            // The first token comes after the stream's last chunk.
            if (committed == seq->prefillLength()) {
                appendToken(seq, sampleFor(logits, packed_end - 1));
            }
            continue;
        }
        auto plan_it = plans.find(id);
        if (plan_it == plans.end()) {
            // Plain decode row (speculation off, or this row's window
            // collapsed to zero).
            kv().commit(id, kv().committedTokens(id) + 1);
            appendToken(seq, sampleFor(logits, packed_end - 1));
            continue;
        }

        // Verify row: the packed positions [packed_start, packed_end)
        // hold the target distributions for the pending token and every
        // draft; accept a prefix, emit its tokens exactly as sequential
        // decode steps would (stop token / budget / context checks per
        // token), then roll both caches back to the accepted stream.
        const SpecPlan& plan = plan_it->second;
        int64_t k_row = (int64_t)plan.drafts.size();
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kSpeculation,
                          "verify", "speculation", clock_after,
                          {{"request", id}, {"proposed", k_row}});
        }
        SpecAcceptance acc;
        Sampler& sampler = models_.front().sampler;
        if (machine().dataMode()) {
            acc = sampler.acceptDrafts(logits, packed_start, plan.drafts,
                                       plan.probs);
        } else {
            acc.accepted = sampler.sampleSyntheticAcceptance(
                k_row, options_.speculation.syntheticAcceptanceRate);
            acc.next = sampler.sampleSynthetic(config_.vocabSize);
        }
        stats_.specProposed += k_row;
        stats_.specAccepted += acc.accepted;
        meters_.specAccepted->record((double)acc.accepted);
        for (int64_t i = 0;
             i <= acc.accepted && seq->phase == RequestPhase::kRunning;
             ++i) {
            kv().commit(id, kv().committedTokens(id) + 1);
            appendToken(seq, i < acc.accepted ? plan.drafts[i] : acc.next);
        }
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kSpeculation,
                          "accept", "speculation",
                          machine().dev().clockUs(),
                          {{"request", id},
                           {"proposed", k_row},
                           {"accepted", acc.accepted}});
        }
        if (seq->phase == RequestPhase::kRunning) {
            // Rejected drafts leave K/V junk past the committed length
            // and surplus reserved pages: every model's cache returns
            // whole pages and drops any index entry the rewind
            // invalidated (the draft's is clamped to a no-op when every
            // draft survived).
            int64_t ctx = kv().committedTokens(id);
            for (Model& model : models_) model.kv->truncate(id, ctx);
        }
    }

    ++stats_.steps;
    stats_.busyUs += machine().dev().clockUs() - clock_before;

    // Per-step gauge sampling (always on: the metrics snapshot).
    meters_.usedPages->sample((double)kv().usedPages());
    meters_.freePages->sample((double)kv().freePages());
    meters_.occupancy->sample(kv().totalPages() > 0
                                  ? (double)kv().usedPages() /
                                        (double)kv().totalPages()
                                  : 0.0);
    meters_.running->sample((double)running_.size());
    meters_.replayHitRate->sample(stats_.decodeReplayHitRate());
    for (int i = 0; i < tensorParallel(); ++i) {
        device::SimDevice& dev = group_->device(i);
        meters_.deviceAlloc[i]->sample((double)dev.allocatedBytes());
        meters_.devicePeak[i]->sample((double)dev.peakBytes());
    }
    if (speculationEnabled()) {
        meters_.specAcceptanceRate->sample(stats_.specAcceptanceRate());
    }

    if (trace.enabled()) {
        trace.span(trace_lanes::kEngine, trace_lanes::kSteps, "step",
                   "step", clock_before, clock_after - clock_before,
                   {{"step", stats_.steps - 1},
                    {"rows", (int64_t)batch.size()},
                    {"fresh_tokens", packed_end},
                    {"mixed", (int64_t)(any_prefill ? 1 : 0)}});
        trace.counter(trace_lanes::kEngine, trace_lanes::kKvPool,
                      "kv_pages", clock_after,
                      {{"used", kv().usedPages()},
                       {"free", kv().freePages()}});
    }
    return true;
}

int64_t
Engine::prefillBudget(int64_t decode_tokens) const
{
    int64_t budget = scheduler_.options().maxPrefillTokensPerStep;
    if (packedTokenBound_) {
        budget = std::min(budget, *packedTokenBound_ - decode_tokens);
    }
    return std::max<int64_t>(budget, 0);
}

const EngineStats&
Engine::run()
{
    while (hasPendingWork()) {
        if (!step()) {
            RELAX_THROW(RuntimeError)
                << "serving stalled: " << scheduler_.waitingCount()
                << " waiting request(s) cannot fit the KV budget ("
                << kv().budgetBytes() << " bytes)";
        }
    }
    return stats_;
}

void
Engine::snapshotJson(std::ostream& os) const
{
    // Counters are read from their only store at export time.
    auto kv_sum = [this](int64_t (KVCacheManager::*tally)() const) {
        int64_t sum = 0;
        for (const Model& model : models_) sum += ((*model.kv).*tally)();
        return sum;
    };
    std::map<std::string, int64_t> counters = {
        {"kv.cow_copies", kv_sum(&KVCacheManager::cowCopies)},
        {"kv.prefix_hits", kv_sum(&KVCacheManager::prefixHits)},
        {"kv.prefix_tokens_matched",
         kv_sum(&KVCacheManager::prefixTokensMatched)},
        {"kv.truncates", kv_sum(&KVCacheManager::truncateCount)},
        {"serve.decode_calls", stats_.decodeBatches},
        {"serve.draft_calls", stats_.draftCalls},
        {"serve.evictions", stats_.evictions},
        {"serve.requests_finished", stats_.requestsFinished},
        {"serve.requests_submitted", nextId_},
        {"serve.spec_accepted_tokens", stats_.specAccepted},
        {"serve.spec_proposed_tokens", stats_.specProposed},
        {"serve.steps", stats_.steps},
    };
    metrics_.snapshotJson(os, counters);
}

std::vector<FinishedRequest>
Engine::collect()
{
    std::sort(finished_.begin(), finished_.end(),
              [](const SequenceStatePtr& a, const SequenceStatePtr& b) {
                  return a->request.id < b->request.id;
              });
    std::vector<FinishedRequest> results;
    results.reserve(finished_.size());
    for (const SequenceStatePtr& seq : finished_) {
        FinishedRequest done;
        done.id = seq->request.id;
        done.promptTokens = seq->request.promptTokens;
        done.outputTokens = seq->generated;
        done.stats = seq->stats;
        results.push_back(std::move(done));
    }
    finished_.clear();
    return results;
}

} // namespace serve
} // namespace relax
