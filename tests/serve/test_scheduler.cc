/**
 * @file
 * Scheduler tests: FCFS vs shortest-prompt-first admission order, batch
 * caps, the step's prefill budget (a tail within the cap waits for room,
 * one above it enters with a first chunk), and head-of-line blocking
 * under memory pressure. The eviction rule and chunked prefill live in
 * the engine (test_engine.cc).
 */
#include <gtest/gtest.h>

#include "serve/scheduler.h"

namespace relax {
namespace serve {
namespace {

struct Fixture
{
    frontend::LlamaConfig config = frontend::LlamaConfig::tiny();
    std::shared_ptr<device::SimDevice> dev;
    vm::VirtualMachine machine;

    Fixture()
        : dev(std::make_shared<device::SimDevice>([] {
              device::DeviceSpec spec;
              spec.name = "host";
              spec.backend = "cpu";
              return spec;
          }())),
          machine(std::make_shared<vm::Executable>(), dev, true)
    {
    }

    KVCacheManager
    kvWithBlocks(int64_t blocks)
    {
        // tiny config: 64 bytes/token, 4-token blocks.
        return KVCacheManager(config, {&machine}, 64 * 4 * blocks, 4);
    }

    static SequenceStatePtr
    seq(RequestId id, int64_t prompt_len)
    {
        auto state = std::make_shared<SequenceState>();
        state->request.id = id;
        state->request.promptTokens.assign(prompt_len, 1);
        return state;
    }
};

TEST(SchedulerTest, FCFSAdmitsInArrivalOrder)
{
    Fixture fx;
    KVCacheManager kv = fx.kvWithBlocks(100);
    Scheduler scheduler;
    scheduler.enqueue(Fixture::seq(0, 8));
    scheduler.enqueue(Fixture::seq(1, 2));
    scheduler.enqueue(Fixture::seq(2, 4));

    auto admitted = scheduler.admit(kv, /*runningCount=*/0,
                                    /*prefillBudget=*/2048);
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0]->request.id, 0);
    EXPECT_EQ(admitted[1]->request.id, 1);
    EXPECT_EQ(admitted[2]->request.id, 2);
    for (const auto& s : admitted) {
        EXPECT_EQ(s->phase, RequestPhase::kRunning);
        EXPECT_GT(kv.reservedTokens(s->request.id), 0);
    }
    EXPECT_FALSE(scheduler.hasWaiting());
}

TEST(SchedulerTest, ShortestPromptFirstReorders)
{
    Fixture fx;
    KVCacheManager kv = fx.kvWithBlocks(100);
    SchedulerOptions options;
    options.policy = SchedulePolicy::kShortestPromptFirst;
    Scheduler scheduler(options);
    scheduler.enqueue(Fixture::seq(0, 8));
    scheduler.enqueue(Fixture::seq(1, 2));
    scheduler.enqueue(Fixture::seq(2, 4));

    auto admitted = scheduler.admit(kv, 0, 2048);
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0]->request.id, 1);
    EXPECT_EQ(admitted[1]->request.id, 2);
    EXPECT_EQ(admitted[2]->request.id, 0);
}

TEST(SchedulerTest, BatchSizeCapsAdmission)
{
    Fixture fx;
    KVCacheManager kv = fx.kvWithBlocks(100);
    SchedulerOptions options;
    options.maxBatchSize = 2;
    Scheduler scheduler(options);
    for (RequestId id = 0; id < 4; ++id) {
        scheduler.enqueue(Fixture::seq(id, 2));
    }
    EXPECT_EQ(scheduler.admit(kv, /*runningCount=*/1, 2048).size(), 1u);
    EXPECT_EQ(scheduler.waitingCount(), 3u);
}

TEST(SchedulerTest, MemoryPressureBlocksHeadOfLine)
{
    Fixture fx;
    KVCacheManager kv = fx.kvWithBlocks(3);
    Scheduler scheduler;
    scheduler.enqueue(Fixture::seq(0, 16)); // 4 blocks: never fits
    scheduler.enqueue(Fixture::seq(1, 2));  // would fit, but stays behind
    EXPECT_TRUE(scheduler.admit(kv, 0, 2048).empty());
    EXPECT_EQ(scheduler.waitingCount(), 2u);
}

TEST(SchedulerTest, PrefillBudgetDefersButNeverStrands)
{
    Fixture fx;
    KVCacheManager kv = fx.kvWithBlocks(100);
    SchedulerOptions options;
    options.maxPrefillTokensPerStep = 8;
    // A tail within the cap prefills whole in its admission step, so it
    // waits for a step with room for all of it.
    Scheduler scheduler(options);
    scheduler.enqueue(Fixture::seq(0, 6));
    scheduler.enqueue(Fixture::seq(1, 6)); // over what request 0 leaves
    auto first = scheduler.admit(kv, 0, /*prefillBudget=*/8);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0]->request.id, 0);

    // A tail above the cap fits no step whole: while other rows run it
    // is admitted with a first chunk of whatever budget is left, its
    // whole prompt's pages reserved, and FCFS holds behind it.
    Scheduler big(options);
    big.enqueue(Fixture::seq(2, 32));
    big.enqueue(Fixture::seq(3, 2));
    EXPECT_TRUE(big.admit(kv, /*runningCount=*/3, /*prefillBudget=*/0)
                    .empty());
    auto chunked = big.admit(kv, /*runningCount=*/3, /*prefillBudget=*/5);
    ASSERT_EQ(chunked.size(), 1u);
    EXPECT_EQ(chunked[0]->request.id, 2);
    EXPECT_EQ(kv.pagesOf(2), 8);
    EXPECT_EQ(big.waitingCount(), 1u);
    // Request 3 enters once a step leaves its whole tail free.
    auto next = big.admit(kv, /*runningCount=*/4, /*prefillBudget=*/2);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0]->request.id, 3);
}

} // namespace
} // namespace serve
} // namespace relax
