/**
 * @file
 * KVCacheManager tests: page-pool geometry, the resident upfront pool
 * allocation, the reserve/match/copy-on-write/release page lifecycle,
 * budget enforcement, and that the byte accounting always matches pool
 * occupancy (used + free pages == the whole pool).
 */
#include <gtest/gtest.h>

#include "serve/kv_cache.h"

namespace relax {
namespace serve {
namespace {

struct Fixture
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    std::shared_ptr<device::SimDevice> dev;
    vm::VirtualMachine machine;

    explicit Fixture(int64_t vram = int64_t(1) << 30)
        : dev(std::make_shared<device::SimDevice>([vram] {
              device::DeviceSpec spec;
              spec.name = "host";
              spec.backend = "cpu";
              spec.vramBytes = vram;
              return spec;
          }())),
          machine(std::make_shared<vm::Executable>(), dev,
                  /*data_mode=*/true)
    {
    }
};

/** Prefills `seq` with `prompt` and indexes its full blocks: the state a
 *  finished prefill leaves for matchPrefix() to share. */
void
prefillAndRegister(KVCacheManager& kv, RequestId seq,
                   const std::vector<int64_t>& prompt)
{
    kv.reserve(seq, (int64_t)prompt.size(), 0);
    kv.commit(seq, (int64_t)prompt.size());
    kv.registerCommitted(seq, prompt);
}

TEST(KVCacheTest, BlockGeometry)
{
    Fixture fx;
    // tiny: 2 layers * 2 heads * 4 dim * 2 (k+v) * 2 bytes = 64 B/token.
    EXPECT_EQ(fx.config.kvBytesPerToken(), 64);
    KVCacheManager kv(fx.config, {&fx.machine}, /*budget=*/64 * 4 * 10,
                      /*blockTokens=*/4);
    EXPECT_EQ(kv.bytesPerBlock(), 64 * 4);
    EXPECT_EQ(kv.totalPages(), 10);
    EXPECT_EQ(kv.blocksFor(1), 1);
    EXPECT_EQ(kv.blocksFor(4), 1);
    EXPECT_EQ(kv.blocksFor(5), 2);
    EXPECT_EQ(kv.blocksFor(12), 3);
    // One pool tensor per layer per k/v, [p, h, block, d].
    ASSERT_EQ(kv.poolTensors().size(), (size_t)2 * fx.config.numLayers);
    EXPECT_EQ(kv.poolTensors()[0].shape(),
              (std::vector<int64_t>{10, fx.config.numHeads, 4,
                                    fx.config.headDim}));
}

TEST(KVCacheTest, PoolIsResidentUpFront)
{
    // vLLM-style preallocation: the whole pool is device-resident for
    // the manager's lifetime; reserve/release move logical pages only.
    Fixture fx;
    int64_t base = fx.dev->allocatedBytes();
    {
        KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
        EXPECT_EQ(fx.dev->allocatedBytes() - base,
                  kv.totalPages() * kv.bytesPerBlock());
        kv.reserve(1, 8, 0);
        EXPECT_EQ(fx.dev->allocatedBytes() - base,
                  kv.totalPages() * kv.bytesPerBlock());
    }
    EXPECT_EQ(fx.dev->allocatedBytes(), base);
}

TEST(KVCacheTest, ReserveGrowReleaseTracksPoolOccupancy)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);

    kv.reserve(/*seq=*/1, /*tokens=*/4, /*writeStart=*/0); // 1 page
    EXPECT_EQ(kv.usedPages(), 1);
    EXPECT_EQ(kv.usedBytes(), kv.bytesPerBlock());

    kv.reserve(1, 5, 4); // grows to 2 pages
    EXPECT_EQ(kv.usedPages(), 2);
    kv.reserve(1, 5, 4); // idempotent: already holds 5 positions
    EXPECT_EQ(kv.usedPages(), 2);
    EXPECT_EQ(kv.reservedTokens(1), 5);
    EXPECT_EQ(kv.pagesOf(1), 2);

    // Accounting identity: used + free pages always cover the pool.
    EXPECT_EQ(kv.usedPages() + kv.freePages(), kv.totalPages());

    kv.release(1);
    EXPECT_EQ(kv.usedPages(), 0);
    EXPECT_EQ(kv.usedBytes(), 0);
    EXPECT_EQ(kv.freePages(), kv.totalPages());
    EXPECT_EQ(kv.reservedTokens(1), 0);
    kv.release(1); // unknown id: no-op
}

TEST(KVCacheTest, BudgetRefusesOverCommit)
{
    Fixture fx;
    // Room for exactly 3 pages.
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 3, 4);
    EXPECT_TRUE(kv.canHold(1, 12, 0));
    EXPECT_FALSE(kv.canHold(1, 13, 0));
    kv.reserve(1, 8, 0); // 2 pages
    EXPECT_EQ(kv.freeBytes(), kv.budgetBytes() - 2 * kv.bytesPerBlock());
    EXPECT_TRUE(kv.canHold(2, 4, 0));
    EXPECT_FALSE(kv.canHold(2, 5, 0));
    // A sequence's own pages count toward what it can still hold.
    EXPECT_TRUE(kv.canHold(1, 12, 8));
    EXPECT_THROW(kv.reserve(2, 8, 0), RuntimeError);
    kv.release(1);
    kv.reserve(2, 8, 0);
    EXPECT_EQ(kv.usedPages(), 2);
}

TEST(KVCacheTest, PeakTracksHighWaterMark)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    kv.reserve(1, 8, 0);
    kv.reserve(2, 8, 0);
    EXPECT_EQ(kv.peakBytes(), 4 * kv.bytesPerBlock());
    kv.release(1);
    kv.release(2);
    EXPECT_EQ(kv.usedBytes(), 0);
    EXPECT_EQ(kv.peakBytes(), 4 * kv.bytesPerBlock());
}

TEST(KVCacheTest, CommitTracksWrittenPositionsBelowReservation)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    kv.reserve(1, 6, 0); // 2 pages reserved
    EXPECT_EQ(kv.committedTokens(1), 0);
    kv.commit(1, 5);
    EXPECT_EQ(kv.committedTokens(1), 5);
    EXPECT_EQ(kv.reservedTokens(1), 6);
    kv.commit(1, 6);
    EXPECT_EQ(kv.committedTokens(1), 6);
    kv.release(1);
    EXPECT_EQ(kv.committedTokens(1), 0);
}

TEST(KVCacheTest, RaggedViewsExposeLengthsAndBlockTable)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    kv.reserve(7, 6, 0); // pages 0, 1
    kv.commit(7, 5);
    kv.reserve(9, 3, 0); // page 2
    kv.commit(9, 3);

    NDArray lens = kv.lengthsView({9, 7});
    ASSERT_EQ(lens.shape(), (std::vector<int64_t>{2}));
    EXPECT_TRUE(lens.hasData()); // host metadata: data in timing mode too
    EXPECT_EQ((int64_t)lens.at(0), 3);
    EXPECT_EQ((int64_t)lens.at(1), 5);

    NDArray table = kv.blockTableView({9, 7}, /*width=*/3);
    ASSERT_EQ(table.shape(), (std::vector<int64_t>{2, 3}));
    // Row 0 (seq 9): one owned page, -1 padding after.
    EXPECT_EQ((int64_t)table.at(0), 2);
    EXPECT_EQ((int64_t)table.at(1), -1);
    EXPECT_EQ((int64_t)table.at(2), -1);
    // Row 1 (seq 7): two owned pages.
    EXPECT_EQ((int64_t)table.at(3), 0);
    EXPECT_EQ((int64_t)table.at(4), 1);
    EXPECT_EQ((int64_t)table.at(5), -1);
}

TEST(KVCacheTest, MatchedPrefixSharesPagesByRefcount)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6};
    prefillAndRegister(kv, 1, prompt); // pages 0, 1

    // A child whose prompt extends the parent's maps onto both of its
    // pages: zero new pages in use, identical table rows.
    std::vector<int64_t> longer = prompt;
    longer.push_back(5);
    EXPECT_EQ(kv.matchPrefix(2, longer), 8);
    EXPECT_EQ(kv.prefixHits(), 1);
    EXPECT_EQ(kv.usedPages(), 2);
    EXPECT_EQ(kv.pagesOf(2), 2);
    EXPECT_EQ(kv.committedTokens(2), 8);
    NDArray table = kv.blockTableView({1, 2}, 2);
    EXPECT_EQ((int64_t)table.at(0), (int64_t)table.at(2));
    EXPECT_EQ((int64_t)table.at(1), (int64_t)table.at(3));

    // A second child sharing only the first block.
    EXPECT_EQ(kv.matchPrefix(3, {3, 1, 4, 1, 7}), 4);
    EXPECT_EQ(kv.prefixHits(), 2);

    // Releasing the parent keeps shared pages alive for the children.
    kv.release(1);
    EXPECT_EQ(kv.usedPages(), 2);
    kv.release(2);
    EXPECT_EQ(kv.usedPages(), 1); // seq 3 still references page 0
    kv.release(3);
    EXPECT_EQ(kv.usedPages(), 0);

    // With every holder gone nothing is indexed: a probe degrades to no
    // share and leaves the child unknown.
    EXPECT_EQ(kv.matchPrefix(5, longer), 0);
    EXPECT_EQ(kv.pagesOf(5), 0);
    EXPECT_EQ(kv.prefixHits(), 2);
}

TEST(KVCacheTest, CopyOnWriteUnsharesTheWriteRange)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {2, 7, 1, 8, 2, 8, 1, 8};
    prefillAndRegister(kv, 1, prompt); // pages 0, 1
    // Poison page 1 so the copy is observable: pool row of page 1.
    NDArray pool = kv.poolTensors()[0];
    int64_t row = pool.numel() / kv.totalPages();
    for (int64_t i = 0; i < row; ++i) pool.set(1 * row + i, 42.0);

    std::vector<int64_t> longer = prompt;
    longer.push_back(0);
    kv.matchPrefix(2, longer); // two children share pages 0 and 1
    kv.matchPrefix(3, longer);
    int64_t launches_before = fx.dev->kernelLaunches();

    // The parent rewrites position 6 inside shared page 1:
    // copy-on-write gives the writer a private copy, priced on the
    // device clock at the next flush, and repoints only the writer's
    // table row.
    EXPECT_TRUE(kv.canHold(1, 7, 6));
    kv.reserve(1, 7, 6);
    EXPECT_EQ(kv.cowCopies(), 1);
    EXPECT_EQ(kv.cowBytes(), kv.bytesPerBlock());
    EXPECT_EQ(fx.dev->kernelLaunches(), launches_before);
    EXPECT_EQ(kv.flushCowBatch(), 1);
    EXPECT_EQ(fx.dev->kernelLaunches(), launches_before + 1);
    EXPECT_EQ(kv.usedPages(), 3); // page 0 (shared), page 1, the copy

    NDArray parent_table = kv.blockTableView({1}, 2);
    NDArray child_table = kv.blockTableView({2}, 2);
    EXPECT_EQ((int64_t)parent_table.at(0), (int64_t)child_table.at(0));
    int64_t copied = (int64_t)parent_table.at(1);
    EXPECT_NE(copied, (int64_t)child_table.at(1));
    // The copy carried the page contents (data mode).
    for (int64_t i = 0; i < row; ++i) {
        EXPECT_EQ(pool.at(copied * row + i), 42.0) << "element " << i;
    }

    // Writing an exclusively-owned range never copies.
    kv.reserve(1, 8, 7);
    EXPECT_EQ(kv.cowCopies(), 1);

    // The first child's write still hits a page shared with the second
    // child: it copies too...
    kv.reserve(2, 7, 6);
    EXPECT_EQ(kv.cowCopies(), 2);
    EXPECT_EQ(kv.usedPages(), 4);
    // ...after which the second child owns the original page alone and
    // writes without copying (refcounts transferred all the way down).
    kv.reserve(3, 7, 6);
    EXPECT_EQ(kv.cowCopies(), 2);
}

TEST(KVCacheTest, CanHoldWriteCountsCowPages)
{
    Fixture fx;
    // Pool of exactly 3 pages.
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 3, 4);
    std::vector<int64_t> prompt = {1, 1, 2, 3, 5, 8, 1, 3};
    prefillAndRegister(kv, 1, prompt); // pages 0, 1
    std::vector<int64_t> longer = prompt;
    longer.push_back(2);
    kv.matchPrefix(2, longer); // both pages shared; 1 page free
    kv.reserve(3, 4, 0);       // takes the last free page
    // The parent's write at position 6 needs one COW page, and none is
    // free — canHold must say so instead of letting reserve run the
    // pool dry mid-copy.
    EXPECT_FALSE(kv.canHold(1, 7, 6));
    EXPECT_THROW(kv.reserve(1, 7, 6), RuntimeError);
    EXPECT_EQ(kv.cowCopies(), 0);
    kv.release(3); // a page frees up: the same write now fits
    EXPECT_TRUE(kv.canHold(1, 7, 6));
    kv.reserve(1, 7, 6);
    EXPECT_EQ(kv.cowCopies(), 1);
    EXPECT_EQ(kv.freePages(), 0);
    // The COW repointed the parent, so the child now owns its last page
    // exclusively: its own write needs no pages even with none free.
    EXPECT_TRUE(kv.canHold(2, 7, 6));
    kv.reserve(2, 7, 6);
    EXPECT_EQ(kv.cowCopies(), 1);
}

TEST(KVCacheTest, PrefixIndexLifecycleMatchForkThenCowOnDivergence)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6};

    // Nothing indexed yet: a probe matches nothing and leaves no trace.
    EXPECT_EQ(kv.matchPrefix(9, prompt), 0);
    EXPECT_EQ(kv.committedTokens(9), 0);

    // Prefill seq 1 and register: both full blocks land in the index.
    kv.reserve(1, 8, 0);
    kv.commit(1, 8);
    kv.registerCommitted(1, prompt);
    EXPECT_EQ(kv.indexedBlocks(), 2);
    // Registration is idempotent (pages already indexed only advance
    // the chain).
    kv.registerCommitted(1, prompt);
    EXPECT_EQ(kv.indexedBlocks(), 2);

    // A duplicate prompt with a fresh tail matches both blocks and maps
    // straight onto seq 1's pages — refcounts rise, no copies.
    std::vector<int64_t> duplicate = prompt;
    duplicate.push_back(8);
    EXPECT_EQ(kv.matchPrefix(2, duplicate), 8);
    EXPECT_EQ(kv.committedTokens(2), 8);
    EXPECT_EQ(kv.pagesOf(2), 2);
    EXPECT_EQ(kv.usedPages(), 2); // fully shared
    EXPECT_EQ(kv.prefixHits(), 1);
    EXPECT_EQ(kv.prefixTokensMatched(), 8);
    NDArray tables = kv.blockTableView({1, 2}, 2);
    EXPECT_EQ((int64_t)tables.at(0), (int64_t)tables.at(2));
    EXPECT_EQ((int64_t)tables.at(1), (int64_t)tables.at(3));

    // An identical-prompt probe is capped so the child still prefills
    // its first-logits token itself: 8 tokens match only the first block.
    EXPECT_EQ(kv.matchPrefix(3, prompt), 4);
    EXPECT_EQ(kv.prefixTokensMatched(), 12);

    // Divergence inside a shared block (the COW safety net): a write
    // into matched page 0 copies it for the writer and leaves the other
    // holders' tables untouched.
    int64_t shared_page = (int64_t)tables.at(0);
    kv.reserve(2, 4, 2);
    EXPECT_EQ(kv.cowCopies(), 1);
    NDArray after = kv.blockTableView({1, 2}, 2);
    EXPECT_EQ((int64_t)after.at(0), shared_page);
    EXPECT_NE((int64_t)after.at(2), shared_page);
    kv.release(1);
    kv.release(2);
    kv.release(3);
    EXPECT_EQ(kv.usedPages(), 0);
    EXPECT_EQ(kv.indexedBlocks(), 0);
}

TEST(KVCacheTest, DropMatchTakesBackPrefixMatchTallies)
{
    // The scheduler matches a waiting head at every admission attempt and
    // drops the match when the head does not fit: only the match that
    // admits may count.
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6, 5};
    kv.reserve(1, 8, 0);
    kv.commit(1, 8);
    kv.registerCommitted(1, prompt);
    for (int attempt = 0; attempt < 2; ++attempt) {
        ASSERT_EQ(kv.matchPrefix(2, prompt), 8);
        kv.dropMatch(2);
        EXPECT_EQ(kv.pagesOf(2), 0);
        EXPECT_EQ(kv.prefixHits(), 0);
        EXPECT_EQ(kv.prefixTokensMatched(), 0);
    }
    // A probe that matched nothing leaves nothing to take back.
    EXPECT_EQ(kv.matchPrefix(3, {9, 9, 9, 9, 9}), 0);
    kv.dropMatch(3);
    EXPECT_EQ(kv.prefixHits(), 0);
    EXPECT_EQ(kv.usedPages(), 2);
}

TEST(KVCacheTest, MatchFollowsThePredecessorChain)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt_a = {1, 2, 3, 4, 5, 6, 7, 8};
    kv.reserve(1, 8, 0);
    kv.commit(1, 8);
    kv.registerCommitted(1, prompt_a);
    EXPECT_EQ(kv.indexedBlocks(), 2);

    // Identical content matches block by block...
    std::vector<int64_t> duplicate_a = prompt_a;
    duplicate_a.push_back(1);
    EXPECT_EQ(kv.matchPrefix(3, duplicate_a), 8);
    kv.release(3);

    // ...and a block whose tokens match under another predecessor does
    // not: the probe's block 0 matches seq 4's chain, its block 1 tokens
    // equal seq 1's block 1 ({5,6,7,8}) — but that page's predecessor is
    // seq 1's block-0 page, not seq 4's, so accepting it would serve KV
    // values computed under a different prefix. The match must stop
    // after block 0.
    std::vector<int64_t> prompt_c = {7, 7, 7, 7, 9, 9, 9, 9};
    kv.reserve(4, 8, 0);
    kv.commit(4, 8);
    kv.registerCommitted(4, prompt_c);
    std::vector<int64_t> probe = {7, 7, 7, 7, 5, 6, 7, 8, 0};
    EXPECT_EQ(kv.matchPrefix(5, probe), 4);
    kv.release(5);

    kv.release(1);
    kv.release(4);
    EXPECT_EQ(kv.indexedBlocks(), 0);
}

TEST(KVCacheTest, EqualBlocksMatchInRegistrationOrder)
{
    // Two sequences admitted in one step with the same first block
    // prefill it onto different pages, and both register it. A probe
    // maps the earlier registration; once that page is freed, the later
    // one must still be matchable.
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {4, 2, 4, 2, 1};
    prefillAndRegister(kv, 1, prompt); // pages 0, 1
    prefillAndRegister(kv, 2, prompt); // pages 2, 3
    EXPECT_EQ(kv.indexedBlocks(), 2);
    int64_t first = (int64_t)kv.blockTableView({1}, 2).at(0);
    int64_t second = (int64_t)kv.blockTableView({2}, 2).at(0);
    ASSERT_NE(first, second);

    EXPECT_EQ(kv.matchPrefix(3, prompt), 4);
    EXPECT_EQ((int64_t)kv.blockTableView({3}, 1).at(0), first);
    kv.release(3);

    kv.release(1);
    EXPECT_EQ(kv.indexedBlocks(), 1);
    EXPECT_EQ(kv.matchPrefix(4, prompt), 4);
    EXPECT_EQ((int64_t)kv.blockTableView({4}, 1).at(0), second);
    kv.release(2);
    kv.release(4);
    EXPECT_EQ(kv.indexedBlocks(), 0);
}

TEST(KVCacheTest, EvictionRemovesIndexEntriesAndReRegistrationRevives)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {2, 7, 1, 8, 2, 8, 1, 8};
    kv.reserve(1, 8, 0);
    kv.commit(1, 8);
    kv.registerCommitted(1, prompt);
    EXPECT_EQ(kv.indexedBlocks(), 2);

    // Shared pages stay indexed while ANY holder is live: releasing the
    // registrant does not strand the matcher that still references them.
    kv.matchPrefix(2, prompt); // matches block 0
    kv.release(1);
    EXPECT_EQ(kv.indexedBlocks(), 1); // block 1's page freed, block 0 lives
    std::vector<int64_t> longer = prompt;
    longer.push_back(3);
    EXPECT_EQ(kv.matchPrefix(3, longer), 4); // block 0 still matchable
    kv.release(3);

    // Last reference gone -> pages freed -> index fully emptied; a
    // stale-index match is now impossible by construction.
    kv.release(2);
    EXPECT_EQ(kv.usedPages(), 0);
    EXPECT_EQ(kv.indexedBlocks(), 0);
    EXPECT_EQ(kv.matchPrefix(4, longer), 0);

    // Re-prefill after eviction re-registers under the new pages and
    // serves matches again — the index tracks content, not history.
    kv.reserve(5, 8, 0);
    kv.commit(5, 8);
    kv.registerCommitted(5, prompt);
    EXPECT_EQ(kv.indexedBlocks(), 2);
    EXPECT_EQ(kv.matchPrefix(6, longer), 8);
    EXPECT_EQ(kv.usedPages(), 2);
}

TEST(KVCacheTest, RegisterCommittedCoversGeneratedTokensForReAdmission)
{
    // An evicted-and-requeued sequence re-prefills prompt + generated:
    // registration is keyed on committed content, whatever its origin,
    // so a requeued twin can reuse the survivor's pages.
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt_plus_generated = {5, 3, 0, 9, 4, 4, 1};
    kv.reserve(1, 7, 0);
    kv.commit(1, 7); // only block 0 is full (7 < 2*4)
    kv.registerCommitted(1, prompt_plus_generated);
    EXPECT_EQ(kv.indexedBlocks(), 1);
    EXPECT_EQ(kv.matchPrefix(2, prompt_plus_generated), 4);
    EXPECT_EQ(kv.committedTokens(2), 4);

    // Growing the committed prefix to the next full block extends the
    // registration chain incrementally.
    std::vector<int64_t> grown = prompt_plus_generated;
    grown.push_back(6);
    kv.reserve(1, 8, 7);
    kv.commit(1, 8);
    kv.registerCommitted(1, grown);
    EXPECT_EQ(kv.indexedBlocks(), 2);
    std::vector<int64_t> probe = grown;
    probe.push_back(0);
    EXPECT_EQ(kv.matchPrefix(3, probe), 8);
}

TEST(KVCacheTest, TruncateReturnsWholePagesAndRewindsCommitted)
{
    // Speculative-decode rollback: rejected draft positions are discarded
    // by rewinding the sequence, returning any page that held only
    // un-kept positions and clamping the committed frontier in the last
    // retained page.
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    kv.reserve(1, 10, 0); // pages 0, 1, 2
    kv.commit(1, 10);
    EXPECT_EQ(kv.usedPages(), 3);

    // Rewind to 5 positions: page 2 goes back to the pool whole, page 1
    // rewinds in place (reservation stays page-granular).
    EXPECT_EQ(kv.truncate(1, 5), 1);
    EXPECT_EQ(kv.usedPages(), 2);
    EXPECT_EQ(kv.committedTokens(1), 5);
    EXPECT_EQ(kv.reservedTokens(1), 8);
    EXPECT_EQ(kv.truncateCount(), 1);
    EXPECT_EQ(kv.usedPages() + kv.freePages(), kv.totalPages());

    // Truncating to the current length is a no-op and counts nothing —
    // the all-accepted speculation window costs no bookkeeping.
    EXPECT_EQ(kv.truncate(1, 5), 0);
    EXPECT_EQ(kv.truncate(1, 8), 0);
    EXPECT_EQ(kv.truncateCount(), 1);

    // Regrowing reuses the freed page; truncate(0) returns everything
    // while the id stays known; unknown ids are a graceful no-op.
    kv.reserve(1, 12, 5);
    EXPECT_EQ(kv.usedPages(), 3);
    EXPECT_EQ(kv.truncate(1, 0), 3);
    EXPECT_EQ(kv.usedPages(), 0);
    EXPECT_EQ(kv.committedTokens(1), 0);
    EXPECT_EQ(kv.truncate(42, 0), 0);
}

TEST(KVCacheTest, TruncateDropsStaleIndexEntriesBeforeReMatching)
{
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8};
    kv.reserve(1, 8, 0);
    kv.commit(1, 8);
    kv.registerCommitted(1, prompt);
    EXPECT_EQ(kv.indexedBlocks(), 2);

    // Rollback rewinds seq 1 into block 1. The page stays with its sole
    // owner, who will rewrite positions 5.. in place — but its index
    // entry still advertises the OLD tokens {5,6,7,8}. Serving that
    // entry to a matcher would share about-to-diverge content, so the
    // entry must be dropped before any re-match.
    EXPECT_EQ(kv.truncate(1, 5), 0); // rewind only: no page returned
    EXPECT_EQ(kv.indexedBlocks(), 1);
    std::vector<int64_t> probe = prompt;
    probe.push_back(9);
    EXPECT_EQ(kv.matchPrefix(2, probe), 4); // block 0 only
    kv.release(2);

    // Shared pages keep their entries: re-register, let a child map both
    // blocks, then rewind the registrant again. Copy-on-write repoints
    // the rewinder to a private page before it can write, so the shared
    // original (and its index entry) stays valid for everyone else.
    kv.commit(1, 8);
    kv.registerCommitted(1, prompt);
    EXPECT_EQ(kv.indexedBlocks(), 2);
    EXPECT_EQ(kv.matchPrefix(3, probe), 8);
    EXPECT_EQ(kv.truncate(1, 5), 0);
    EXPECT_EQ(kv.indexedBlocks(), 2);
    EXPECT_EQ(kv.matchPrefix(4, probe), 8);

    kv.release(1);
    kv.release(3);
    kv.release(4);
    EXPECT_EQ(kv.usedPages(), 0);
    EXPECT_EQ(kv.indexedBlocks(), 0);
}

TEST(KVCacheTest, CowBatchPricesOneBurstLaunch)
{
    // One engine step can trigger several copy-on-write page copies (one
    // per diverging writer). The data moves at once, but the device is
    // charged ONE burst launch at the next flush — the
    // cudaMemcpyAsync-batch shape — instead of one launch per page.
    Fixture fx;
    KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
    std::vector<int64_t> prompt = {6, 0, 2, 2, 1, 4, 0, 7};
    prefillAndRegister(kv, 1, prompt); // pages 0, 1
    NDArray pool = kv.poolTensors()[0];
    int64_t row = pool.numel() / kv.totalPages();
    for (int64_t i = 0; i < row; ++i) pool.set(1 * row + i, 42.0);
    std::vector<int64_t> longer = prompt;
    longer.push_back(1);
    kv.matchPrefix(2, longer);
    kv.matchPrefix(3, longer);

    int64_t launches_before = fx.dev->kernelLaunches();
    kv.reserve(1, 7, 6); // COW of page 1 (three-way shared)
    kv.reserve(2, 7, 6); // COW of the original (still shared with 3)
    EXPECT_EQ(kv.cowCopies(), 2);
    EXPECT_EQ(kv.cowBytes(), 2 * kv.bytesPerBlock());
    // Pricing is deferred until the flush...
    EXPECT_EQ(fx.dev->kernelLaunches(), launches_before);
    EXPECT_EQ(kv.flushCowBatch(), 2);
    // ...which issues exactly one launch for both pages.
    EXPECT_EQ(fx.dev->kernelLaunches(), launches_before + 1);

    // The copies carried the page contents despite deferred pricing.
    NDArray parent_table = kv.blockTableView({1}, 2);
    int64_t copied = (int64_t)parent_table.at(1);
    for (int64_t i = 0; i < row; ++i) {
        EXPECT_EQ(pool.at(copied * row + i), 42.0) << "element " << i;
    }

    // An empty batch flushes to nothing — no phantom launch.
    EXPECT_EQ(kv.flushCowBatch(), 0);
    EXPECT_EQ(fx.dev->kernelLaunches(), launches_before + 1);
}

TEST(KVCacheTest, DestructorReturnsThePool)
{
    Fixture fx;
    int64_t base = fx.dev->allocatedBytes();
    {
        KVCacheManager kv(fx.config, {&fx.machine}, 64 * 4 * 8, 4);
        kv.reserve(1, 8, 0);
        EXPECT_GT(fx.dev->allocatedBytes(), base);
    }
    EXPECT_EQ(fx.dev->allocatedBytes(), base);
}

} // namespace
} // namespace serve
} // namespace relax
