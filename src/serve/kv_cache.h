/**
 * @file
 * KVCacheManager: the persistent KV page pool of the serving engine.
 *
 * The cache is one pool tensor per layer per k/v, `[p, h, block, d]` —
 * p physical pages of `blockTokens` positions — allocated once as VM
 * persistent storage (the whole budget is resident up front, vLLM
 * style) and addressed by every compiled `decode_ragged` call through
 * the block table. The manager owns the pool tensors, a free-page list,
 * and per-page reference counts:
 *
 *  - reserve/release move pages between sequences and the free list;
 *  - automatic prefix caching: registerCommitted() files each full
 *    page-aligned block of a sequence's committed prompt in an index
 *    keyed by the block's predecessor page and its tokens, and
 *    matchPrefix() maps a new sequence onto the chain of pages those
 *    keys lead to (refcount++, zero copies) — shared system prompts
 *    are served once;
 *  - reserve() enforces copy-on-write: before a sequence writes a page
 *    whose refcount exceeds one, the page is copied to a fresh one on
 *    the device (priced on the simulated clock) and the writer's table
 *    entry is repointed;
 *  - eviction (release) returns pages to the pool only when their last
 *    reference drops, at which point their index entries are removed
 *    (the index never outlives page content).
 *
 * Cache *values* live in the pool tensors (real data in data mode,
 * metadata-only in timing mode); the compiled kernels mutate them in
 * place. No host relayout can happen: the engine passes the
 * poolTensors() handles into every call and the in-place
 * `kv.append_ragged` aliases them, so the next call reads what the last
 * one wrote. A copied pool would lose those writes, and the data-mode
 * token oracles would diverge from sequential runs.
 */
#ifndef RELAX_SERVE_KV_CACHE_H_
#define RELAX_SERVE_KV_CACHE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "frontend/llama.h"
#include "serve/request.h"
#include "vm/vm.h"

namespace relax {
namespace serve {

/** Page-pool KV-block owner with a hard byte budget. */
class KVCacheManager
{
  public:
    /**
     * Allocates the page pool: `budgetBytes / bytesPerBlock()` pages,
     * resident as VM persistent storage for the manager's lifetime.
     *
     * @param config      model whose kvBytesPerToken() prices a position
     * @param ranks       the model's rank VMs, one per device, in rank
     *                    order; rank 0 carries the trace and its data
     *                    mode decides real vs metadata-only pools. N
     *                    ranks split the head axis: rank s gets
     *                    [p, h/N, block, d] pool tensors resident on ITS
     *                    device (1/N of the logical bytes each). All
     *                    page-table state — budget, page count,
     *                    bytesPerBlock(), admission math — stays in
     *                    LOGICAL full-model bytes, so scheduling
     *                    decisions are identical at every N; only the
     *                    per-device residency and copy pricing divide.
     * @param budgetBytes hard cap on total reserved KV bytes
     * @param blockTokens cache positions per page
     */
    KVCacheManager(const frontend::LlamaConfig& config,
                   std::vector<vm::VirtualMachine*> ranks,
                   int64_t budgetBytes, int64_t blockTokens = 16);

    ~KVCacheManager();

    KVCacheManager(const KVCacheManager&) = delete;
    KVCacheManager& operator=(const KVCacheManager&) = delete;

    int64_t blockTokens() const { return blockTokens_; }
    int64_t bytesPerBlock() const { return bytesPerBlock_; }
    int64_t budgetBytes() const { return budgetBytes_; }
    /** Total physical pages in the pool. */
    int64_t totalPages() const { return totalBlocks_; }
    /** Unique pages currently referenced by at least one sequence. */
    int64_t usedPages() const { return totalBlocks_ - freePages(); }
    /** High-water unique-page mark. */
    int64_t peakPages() const { return peakBlocks_; }
    int64_t freePages() const { return (int64_t)freePages_.size(); }
    int64_t usedBytes() const { return usedPages() * bytesPerBlock_; }
    int64_t peakBytes() const { return peakBlocks_ * bytesPerBlock_; }
    int64_t freeBytes() const { return budgetBytes_ - usedBytes(); }

    /** Blocks needed to hold `tokens` cache positions. */
    int64_t blocksFor(int64_t tokens) const;

    /**
     * True when growing (or admitting) `seq` to `tokens` positions AND
     * exclusively owning every page of its write range
     * [writeStart, tokens) fits the free list: pages `seq` already owns
     * or shares count toward `tokens`, and each shared page in the range
     * costs one fresh page to copy into.
     */
    bool canHold(RequestId seq, int64_t tokens, int64_t writeStart) const;

    /**
     * Acquires pages so `seq` holds `tokens` positions, then gives it
     * every page covering [writeStart, tokens) with refcount 1: a shared
     * page is copied to a fresh one on the device (priced at the next
     * flushCowBatch()) and repointed. The compiled call may then scatter
     * into the pool. Throws RuntimeError when canHold() is false —
     * callers are expected to check it and queue/evict instead.
     */
    void reserve(RequestId seq, int64_t tokens, int64_t writeStart);

    /** Drops every page reference held by `seq` (no-op for unknown
     *  ids); pages return to the free list when unreferenced. */
    void release(RequestId seq);

    /**
     * Rolls `seq` back to `tokens` committed positions — the rejection
     * path of speculative decoding. Whole pages past the new length drop
     * their reference (returning to the free list when unreferenced, as
     * release() would), the committed length rewinds inside the last
     * retained page, and reserved capacity shrinks to the retained
     * pages. Prefix-index entries for retained pages whose block is no
     * longer fully committed are dropped when `seq` is their sole owner:
     * the rewound positions will be rewritten in place, so the entry's
     * token snapshot would otherwise diverge from the pool content and a
     * later matchPrefix() could serve rejected-draft K/V. Shared pages
     * keep their entries — copy-on-write repoints this writer before the
     * page can change. Returns the number of page references dropped.
     * No-op (returns 0) for unknown ids or when nothing exceeds
     * `tokens`.
     */
    int64_t truncate(RequestId seq, int64_t tokens);

    /**
     * Prices every page copy made since the last flush as one launch
     * (`kv.cow_copy_burst`) on each rank. reserve() copies page data at
     * once but defers the device cost, so b sequences copying in one
     * step pay one cudaMemcpyAsync-burst-shaped launch instead of b; the
     * engine flushes each model's pool once per step. Returns the number
     * of pages priced.
     */
    int64_t flushCowBatch();

    /**
     * Undoes a matchPrefix() whose admission fell through before any
     * reservation: drops `child`'s references like release() and takes
     * the share back out of prefixHits() and prefixTokensMatched(), so
     * the statistics report only shares that actually admitted. No-op
     * when `child` is unknown (including probes that matched nothing).
     */
    void dropMatch(RequestId child);

    /**
     * Automatic prefix caching — the detection half: walks `tokens`
     * (the child's pending prefill stream) in page-aligned blocks and
     * maps `child` (which must hold no pages) onto every consecutive
     * indexed pool page keyed by the page matched for the previous block
     * (-1 for block 0) and this block's tokens. Among pages under one
     * key the earliest registered wins. Matching is capped so the child
     * always prefills at least one token itself (the position producing
     * its first logits). Returns the matched token count (a multiple of
     * blockTokens(), 0 when nothing matched); on a match the child's
     * committed length equals the return value and prefixHits() rises.
     */
    int64_t matchPrefix(RequestId child, const std::vector<int64_t>& tokens);

    /**
     * Automatic prefix caching — the registration half: files every
     * not-yet-registered full page-aligned block of `seq`'s committed
     * prefix of `tokens` in the index under (predecessor page, block
     * tokens). Pages already indexed (e.g. mapped from a parent by
     * matchPrefix) are skipped but still count as registered. Full
     * committed pages are immutable while live — copy-on-write repoints
     * writers, and release() drops index entries with the page — so
     * registrations never go stale. Call after committing a prefill;
     * no-op for unknown ids.
     */
    void registerCommitted(RequestId seq, const std::vector<int64_t>& tokens);

    /** Positions reserved for `seq` (0 for unknown ids). */
    int64_t reservedTokens(RequestId seq) const;

    /** Pages owned/shared by `seq` (0 for unknown ids) — the block-table
     *  row width it needs. */
    int64_t pagesOf(RequestId seq) const;

    /**
     * Records the positions actually written for `seq` (its true context
     * length), decoupled from the block-granular reservation. The ragged
     * decode path reads these back through lengthsView().
     */
    void commit(RequestId seq, int64_t tokens);

    /** Committed (written) positions for `seq` (0 for unknown ids). */
    int64_t committedTokens(RequestId seq) const;

    // --- ragged-decode views ------------------------------------------------
    //
    // The ragged decode kernel consumes per-sequence cache lengths and the
    // paged-KV block table as tensors. Both are host-side integer metadata
    // (the paper's "integer host tensor"), so they carry real data in both
    // data and timing mode.

    /** [b] i64 tensor of committed context lengths, in `order`. */
    NDArray lengthsView(const std::vector<RequestId>& order) const;

    /**
     * [b, width] i64 block table, in `order`: row i lists the physical
     * pool pages backing sequence i, -1 padded to `width`. `width` must
     * cover every listed sequence's pages.
     */
    NDArray blockTableView(const std::vector<RequestId>& order,
                           int64_t width) const;

    /**
     * The persistent pool tensors in `decode_ragged` argument order
     * (k_pool_0, v_pool_0, k_pool_1, ...), each [p, h, block, d] —
     * [p, h/N, block, d] under tensor parallelism, where `rank` picks
     * the device-local set. Copies share storage with the manager's
     * tensors, so in-place kernel writes land in the pool.
     */
    const std::vector<NDArray>&
    poolTensors(int rank = 0) const
    {
        return pools_.at((size_t)rank);
    }

    // --- sharing statistics -------------------------------------------------
    //
    // The only store of these tallies: Engine::snapshotJson() exports them
    // as the kv.* counters, summed over the target and draft pools.

    /** Copy-on-write page copies performed (device-priced). */
    int64_t cowCopies() const { return cowCopies_; }
    /** Device bytes moved by copy-on-write page copies. */
    int64_t cowBytes() const { return cowCopies_ * bytesPerBlock_; }
    /** truncate() calls that dropped at least one page or rewound the
     *  committed length. */
    int64_t truncateCount() const { return truncates_; }
    /** matchPrefix() calls that mapped at least one page. */
    int64_t prefixHits() const { return prefixHits_; }
    /** Total cache positions resolved from the index by matchPrefix(). */
    int64_t prefixTokensMatched() const { return prefixTokensMatched_; }
    /** Live prefix-index entries (test introspection). */
    int64_t indexedBlocks() const { return (int64_t)index_.size(); }

  private:
    struct Sequence
    {
        std::vector<int64_t> pages; //!< physical pool pages, in order
        int64_t tokens = 0;    //!< reserved capacity in positions
        int64_t committed = 0; //!< positions actually written
        int64_t matched = 0;   //!< positions mapped by matchPrefix()
        /** Leading full blocks registered or matched (registration
         *  progress of the prefix-caching index). */
        int64_t registeredBlocks = 0;
    };
    /** A block's prefix-index key: the page holding the previous block
     *  of its chain (-1 for the first block) and the block's tokens. */
    using BlockKey = std::pair<int64_t, std::vector<int64_t>>;
    /** Equal keys keep registration order, so lower_bound() finds the
     *  earliest registered live page. */
    using PrefixIndex = std::multimap<BlockKey, int64_t>;

    /** Pops a free page (throws RuntimeError when the pool is empty). */
    int64_t acquirePage();
    /** Device-side page copy (all layers, k+v): copies pool data rows in
     *  data mode and adds the page to the burst flushCowBatch() prices. */
    void copyPage(int64_t src, int64_t dst);
    /** Drops `page`'s index entry, if any. */
    void unregisterPage(int64_t page);

    std::vector<vm::VirtualMachine*> ranks_; //!< in rank order
    int64_t blockTokens_;
    int64_t bytesPerBlock_;
    int64_t budgetBytes_;
    int64_t totalBlocks_;
    int64_t peakBlocks_ = 0;
    int64_t cowCopies_ = 0;
    int64_t truncates_ = 0;
    int64_t cowBatchPages_ = 0; //!< copies not yet priced by a flush
    int64_t prefixHits_ = 0;
    int64_t prefixTokensMatched_ = 0;
    /** [rank][layer-k/v] pool tensors, [p, h/N, block, d] each. */
    std::vector<std::vector<NDArray>> pools_;
    std::vector<int64_t> freePages_;  //!< LIFO of unreferenced page ids
    std::vector<int32_t> refCounts_;  //!< per-page reference counts
    /** The resident pool allocation on each rank's device. */
    std::vector<vm::StoragePtr> poolStorages_;
    std::map<RequestId, Sequence> sequences_;
    /** (predecessor page, block tokens) → page holding the block */
    PrefixIndex index_;
    /** per-page entry in index_, index_.end() when not indexed */
    std::vector<PrefixIndex::iterator> pageEntries_;
};

} // namespace serve
} // namespace relax

#endif // RELAX_SERVE_KV_CACHE_H_
