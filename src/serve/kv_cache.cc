/**
 * @file
 * KVCacheManager implementation: the resident page pool, the free-list /
 * refcount page lifecycle (reserve, copy-on-write, release), the
 * prefix-caching index (matchPrefix / registerCommitted),
 * and the lengths/block-table views the ragged kernels consume (see
 * kv_cache.h).
 */
#include "serve/kv_cache.h"

#include <algorithm>

namespace relax {
namespace serve {

KVCacheManager::KVCacheManager(const frontend::LlamaConfig& config,
                               std::vector<vm::VirtualMachine*> ranks,
                               int64_t budgetBytes, int64_t blockTokens)
    : ranks_(std::move(ranks)), blockTokens_(blockTokens),
      bytesPerBlock_(config.kvBytesPerToken() * blockTokens),
      budgetBytes_(budgetBytes),
      totalBlocks_(bytesPerBlock_ > 0 ? budgetBytes / bytesPerBlock_ : 0)
{
    RELAX_ICHECK(blockTokens_ > 0) << "KV block size must be positive";
    RELAX_ICHECK(budgetBytes_ >= 0) << "negative KV budget";
    int64_t n = (int64_t)ranks_.size();
    RELAX_ICHECK(n >= 1) << "KV pool needs at least one rank";
    RELAX_ICHECK(config.numHeads % n == 0)
        << "KV pool: " << config.numHeads << " heads not divisible by "
        << n << " ranks";

    // The pool is resident for the manager's lifetime: one [p, h/N,
    // block, d] tensor per layer per k/v on each rank's device, backed
    // by one persistent allocation per device (vLLM preallocates its
    // page pool the same way). Page-table state is LOGICAL: one page id
    // names the same rows of every rank's pools.
    std::vector<int64_t> pool_shape{totalBlocks_, config.numHeads / n,
                                    blockTokens_, config.headDim};
    poolStorages_.reserve(ranks_.size());
    pools_.resize(ranks_.size());
    for (size_t s = 0; s < ranks_.size(); ++s) {
        poolStorages_.push_back(ranks_[s]->allocPersistentStorage(
            totalBlocks_ * bytesPerBlock_ / n));
        pools_[s].reserve(2 * (size_t)config.numLayers);
        for (int64_t layer = 0; layer < 2 * config.numLayers; ++layer) {
            pools_[s].push_back(
                ranks_[0]->dataMode()
                    ? NDArray::zeros(pool_shape, DataType::f16())
                    : NDArray::metaOnly(pool_shape, DataType::f16()));
        }
    }
    refCounts_.assign((size_t)totalBlocks_, 0);
    pageEntries_.assign((size_t)totalBlocks_, index_.end());
    // LIFO stack ordered so the first acquisitions hand out pages 0, 1,
    // 2, ... (deterministic tables in tests and traces).
    freePages_.reserve((size_t)totalBlocks_);
    for (int64_t page = totalBlocks_; page-- > 0;) {
        freePages_.push_back(page);
    }
}

KVCacheManager::~KVCacheManager()
{
    // Return the whole pool to each device so engine teardown leaves the
    // accounting balanced.
    for (size_t s = 0; s < ranks_.size(); ++s) {
        ranks_[s]->releasePersistentStorage(poolStorages_[s]);
    }
}

int64_t
KVCacheManager::blocksFor(int64_t tokens) const
{
    return (tokens + blockTokens_ - 1) / blockTokens_;
}

int64_t
KVCacheManager::acquirePage()
{
    if (freePages_.empty()) {
        RELAX_THROW(RuntimeError)
            << "KV page pool exhausted: " << usedPages() << "/"
            << totalBlocks_ << " pages in use";
    }
    int64_t page = freePages_.back();
    freePages_.pop_back();
    RELAX_ICHECK(refCounts_[page] == 0) << "free page had references";
    refCounts_[page] = 1;
    peakBlocks_ = std::max(peakBlocks_, usedPages());
    return page;
}

void
KVCacheManager::copyPage(int64_t src, int64_t dst)
{
    // A device-side page copy (cudaMemcpyDeviceToDevice): one page of
    // K/V across every layer is read and written once. Copy-on-write is
    // not free, it is just rare: the cost joins the burst the next
    // flushCowBatch() prices, so one step's copies pay the per-launch
    // overhead once.
    ++cowBatchPages_;
    ++cowCopies_;
    if (!ranks_[0]->dataMode()) return;
    for (auto& rank_pools : pools_) {
        for (NDArray& pool : rank_pools) {
            int64_t row =
                pool.numel() / std::max<int64_t>(totalBlocks_, 1);
            auto& data = pool.data();
            std::copy(data.begin() + src * row,
                      data.begin() + (src + 1) * row,
                      data.begin() + dst * row);
        }
    }
}

bool
KVCacheManager::canHold(RequestId seq, int64_t tokens,
                        int64_t writeStart) const
{
    int64_t owned = 0;
    const Sequence* state = nullptr;
    if (auto it = sequences_.find(seq); it != sequences_.end()) {
        state = &it->second;
        owned = (int64_t)state->pages.size();
    }
    int64_t needed = std::max<int64_t>(blocksFor(tokens) - owned, 0);
    // Each already-owned page in the write range that is shared with
    // another sequence costs one fresh page to copy into.
    if (state && tokens > writeStart) {
        int64_t first = writeStart / blockTokens_;
        int64_t last = (tokens - 1) / blockTokens_;
        for (int64_t idx = first; idx <= last && idx < owned; ++idx) {
            if (refCounts_[state->pages[idx]] > 1) ++needed;
        }
    }
    return needed <= freePages();
}

void
KVCacheManager::reserve(RequestId seq, int64_t tokens, int64_t writeStart)
{
    if (!canHold(seq, tokens, writeStart)) {
        RELAX_THROW(RuntimeError)
            << "KV budget exhausted: sequence " << seq
            << " cannot own its write range up to " << tokens
            << " positions (" << usedPages() << "/" << totalBlocks_
            << " pages in use)";
    }
    Sequence& state = sequences_[seq];
    int64_t target = blocksFor(tokens);
    while ((int64_t)state.pages.size() < target) {
        state.pages.push_back(acquirePage());
    }
    state.tokens = std::max(state.tokens, tokens);
    if (tokens <= writeStart) return;
    for (int64_t idx = writeStart / blockTokens_; idx < target; ++idx) {
        int64_t page = state.pages[idx];
        if (refCounts_[page] <= 1) continue;
        // Copy-on-write: the writer repoints to a private copy; readers
        // keep the original page untouched.
        int64_t fresh = acquirePage();
        copyPage(page, fresh);
        --refCounts_[page];
        state.pages[idx] = fresh;
        TraceRecorder& trace = ranks_[0]->dev().trace();
        if (trace.enabled()) {
            trace.instant(trace_lanes::kEngine, trace_lanes::kKvPool,
                          "cow_copy", "kv", ranks_[0]->dev().clockUs(),
                          {{"request", seq},
                           {"src_page", page},
                           {"dst_page", fresh}});
        }
    }
}

void
KVCacheManager::release(RequestId seq)
{
    auto it = sequences_.find(seq);
    if (it == sequences_.end()) return;
    for (int64_t page : it->second.pages) {
        if (--refCounts_[page] == 0) {
            // The page's content is gone the moment it can be
            // reacquired, so its prefix-index entry goes with it.
            unregisterPage(page);
            freePages_.push_back(page);
        }
    }
    sequences_.erase(it);
}

int64_t
KVCacheManager::truncate(RequestId seq, int64_t tokens)
{
    RELAX_ICHECK(tokens >= 0) << "cannot truncate to a negative length";
    auto it = sequences_.find(seq);
    if (it == sequences_.end()) return 0;
    Sequence& state = it->second;
    int64_t new_committed = std::min(state.committed, tokens);
    int64_t keep = std::min((int64_t)state.pages.size(), blocksFor(tokens));
    if (new_committed == state.committed &&
        keep == (int64_t)state.pages.size()) {
        return 0;
    }

    int64_t dropped = (int64_t)state.pages.size() - keep;
    for (int64_t idx = keep; idx < (int64_t)state.pages.size(); ++idx) {
        int64_t page = state.pages[idx];
        if (--refCounts_[page] == 0) {
            unregisterPage(page);
            freePages_.push_back(page);
        }
    }
    state.pages.resize((size_t)keep);

    // Retained pages whose block is no longer fully committed will be
    // rewritten in place once decode resumes — if this sequence is the
    // sole owner, their index entries' token snapshots would diverge
    // from the pool content, so they must go before the page can be
    // re-matched. Shared pages stay indexed: copy-on-write repoints this
    // writer to a private copy, leaving the original content (and its
    // entry) intact for the other holders.
    int64_t full_blocks = new_committed / blockTokens_;
    for (int64_t idx = full_blocks; idx < keep; ++idx) {
        if (refCounts_[state.pages[idx]] == 1) {
            unregisterPage(state.pages[idx]);
        }
    }
    state.registeredBlocks = std::min(state.registeredBlocks, full_blocks);
    state.committed = new_committed;
    state.tokens = std::min(state.tokens, keep * blockTokens_);
    ++truncates_;
    TraceRecorder& trace = ranks_[0]->dev().trace();
    if (trace.enabled()) {
        trace.instant(trace_lanes::kEngine, trace_lanes::kKvPool,
                      "truncate", "kv", ranks_[0]->dev().clockUs(),
                      {{"request", seq},
                       {"tokens", new_committed},
                       {"pages_dropped", dropped}});
    }
    return dropped;
}

int64_t
KVCacheManager::flushCowBatch()
{
    int64_t pages = cowBatchPages_;
    cowBatchPages_ = 0;
    if (pages == 0) return 0;
    // All pending page copies land as one burst: the bytes add up but
    // the launch overhead is paid once, the way a batched
    // cudaMemcpyAsync sweep behaves. Each rank bursts its 1/N slice on
    // its own device.
    device::KernelCost cost;
    cost.bytes = 2.0 * (double)bytesPerBlock_ * (double)pages /
                 (double)ranks_.size();
    cost.flops = 0.0;
    cost.efficiency = ranks_[0]->dev().spec().genElemwiseEfficiency;
    for (vm::VirtualMachine* rank : ranks_) {
        rank->dev().launchKernel(cost, "kv.cow_copy_burst");
    }
    return pages;
}

void
KVCacheManager::dropMatch(RequestId child)
{
    auto it = sequences_.find(child);
    if (it == sequences_.end()) return;
    if (it->second.matched > 0) {
        --prefixHits_;
        prefixTokensMatched_ -= it->second.matched;
    }
    release(child);
}

void
KVCacheManager::unregisterPage(int64_t page)
{
    auto& entry = pageEntries_[page];
    if (entry == index_.end()) return;
    index_.erase(entry);
    entry = index_.end();
}

int64_t
KVCacheManager::matchPrefix(RequestId child,
                            const std::vector<int64_t>& tokens)
{
    RELAX_ICHECK(sequences_.find(child) == sequences_.end())
        << "matchPrefix target " << child << " already holds pages";
    // Cap so the child always prefills at least one token itself: the
    // final prompt position must run through the model to produce the
    // sequence's first logits.
    int64_t max_blocks = ((int64_t)tokens.size() - 1) / blockTokens_;
    if (max_blocks <= 0) return 0;

    // Induction on the predecessor page: block k's tokens plus the page
    // matched for block k-1 pin the whole prefix behind the page, which
    // the K/V values depend on. lower_bound() lands on the earliest
    // registered page under an equal key.
    std::vector<int64_t> pages;
    BlockKey key{-1, {}};
    for (int64_t blk = 0; blk < max_blocks; ++blk) {
        const int64_t* block = tokens.data() + blk * blockTokens_;
        key.second.assign(block, block + blockTokens_);
        auto it = index_.lower_bound(key);
        if (it == index_.end() || it->first != key) break;
        pages.push_back(it->second);
        key.first = it->second;
    }
    if (pages.empty()) return 0;

    Sequence& state = sequences_[child];
    state.pages = std::move(pages);
    for (int64_t page : state.pages) ++refCounts_[page];
    state.tokens = (int64_t)state.pages.size() * blockTokens_;
    state.committed = state.tokens;
    state.registeredBlocks = (int64_t)state.pages.size();
    state.matched = state.tokens;
    ++prefixHits_;
    prefixTokensMatched_ += state.tokens;
    TraceRecorder& trace = ranks_[0]->dev().trace();
    if (trace.enabled()) {
        trace.instant(trace_lanes::kEngine, trace_lanes::kKvPool,
                      "prefix_hit", "kv", ranks_[0]->dev().clockUs(),
                      {{"request", child},
                       {"tokens", state.tokens},
                       {"pages", (int64_t)state.pages.size()}});
    }
    return state.tokens;
}

void
KVCacheManager::registerCommitted(RequestId seq,
                                  const std::vector<int64_t>& tokens)
{
    auto it = sequences_.find(seq);
    if (it == sequences_.end()) return;
    Sequence& state = it->second;
    int64_t limit = std::min(state.committed, (int64_t)tokens.size());
    int64_t full_blocks = limit / blockTokens_;
    // A page another sequence already indexed (e.g. one matchPrefix()
    // mapped) keeps its entry. emplace() files a new page after every
    // page under an equal key, preserving registration order.
    for (int64_t blk = state.registeredBlocks; blk < full_blocks; ++blk) {
        int64_t page = state.pages[blk];
        if (pageEntries_[page] != index_.end()) continue;
        const int64_t* block = tokens.data() + blk * blockTokens_;
        pageEntries_[page] = index_.emplace(
            BlockKey{blk == 0 ? -1 : state.pages[blk - 1],
                     std::vector<int64_t>(block, block + blockTokens_)},
            page);
    }
    state.registeredBlocks = std::max(state.registeredBlocks, full_blocks);
}

int64_t
KVCacheManager::reservedTokens(RequestId seq) const
{
    auto it = sequences_.find(seq);
    return it == sequences_.end() ? 0 : it->second.tokens;
}

int64_t
KVCacheManager::pagesOf(RequestId seq) const
{
    auto it = sequences_.find(seq);
    return it == sequences_.end() ? 0 : (int64_t)it->second.pages.size();
}

void
KVCacheManager::commit(RequestId seq, int64_t tokens)
{
    auto it = sequences_.find(seq);
    RELAX_ICHECK(it != sequences_.end())
        << "commit for sequence " << seq << " without a reservation";
    RELAX_ICHECK(tokens <= it->second.tokens)
        << "commit of " << tokens << " positions exceeds the "
        << it->second.tokens << " reserved for sequence " << seq;
    it->second.committed = tokens;
}

int64_t
KVCacheManager::committedTokens(RequestId seq) const
{
    auto it = sequences_.find(seq);
    return it == sequences_.end() ? 0 : it->second.committed;
}

NDArray
KVCacheManager::lengthsView(const std::vector<RequestId>& order) const
{
    std::vector<double> lens;
    lens.reserve(order.size());
    for (RequestId id : order) {
        lens.push_back((double)committedTokens(id));
    }
    return NDArray::fromVector({(int64_t)order.size()}, DataType::i64(),
                               std::move(lens));
}

NDArray
KVCacheManager::blockTableView(const std::vector<RequestId>& order,
                               int64_t width) const
{
    RELAX_ICHECK(width >= 1) << "block table width must be positive";
    std::vector<double> table;
    table.reserve(order.size() * width);
    for (RequestId id : order) {
        auto it = sequences_.find(id);
        const std::vector<int64_t>* pages =
            it == sequences_.end() ? nullptr : &it->second.pages;
        int64_t owned = pages ? (int64_t)pages->size() : 0;
        RELAX_ICHECK(owned <= width)
            << "sequence " << id << " owns " << owned
            << " pages, table width is only " << width;
        for (int64_t j = 0; j < width; ++j) {
            table.push_back(j < owned ? (double)(*pages)[j] : -1.0);
        }
    }
    return NDArray::fromVector({(int64_t)order.size(), width},
                               DataType::i64(), std::move(table));
}

} // namespace serve
} // namespace relax
