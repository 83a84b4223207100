/**
 * @file
 * Scheduler: iteration-level (continuous) batching policy. Owns the
 * waiting queue and admits requests into the running batch each engine
 * step when KV blocks, batch slots and the step's prefill budget allow.
 * Two admission policies: FCFS (head-of-line blocking, strict arrival
 * fairness) and shortest-prompt-first (smallest remaining prefill next,
 * better mean TTFT under mixed prompt lengths).
 */
#ifndef RELAX_SERVE_SCHEDULER_H_
#define RELAX_SERVE_SCHEDULER_H_

#include <deque>
#include <vector>

#include "serve/kv_cache.h"
#include "serve/request.h"

namespace relax {
namespace serve {

enum class SchedulePolicy {
    kFCFS,                //!< admit in arrival order; never reorder
    kShortestPromptFirst  //!< admit the smallest pending prefill first
};

struct SchedulerOptions
{
    SchedulePolicy policy = SchedulePolicy::kFCFS;
    /** Cap on concurrently running sequences (the symbolic-batch bound). */
    int64_t maxBatchSize = 8;
    /**
     * Cap on prompt tokens prefilled in one step (bounds prefill
     * bursts). A prompt whose fresh tail exceeds it is prefilled in
     * chunks across steps; the engine lowers the cap to the packed-token
     * bound `n` its `decode_ragged` was compiled for, when that is
     * smaller, and each step's budget to what the step's decode rows
     * leave of `n`.
     */
    int64_t maxPrefillTokensPerStep = 2048;
};

/** Decides who runs: the admission queue. */
class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions options = {});

    /**
     * Attaches the simulated device whose clock and TraceRecorder the
     * scheduler stamps its lifecycle events with (enqueue instants with
     * queue depth, per-request admission instants with the prefix-match
     * size). Null (the default) disables emission; the engine attaches
     * its device at construction. Purely observational — admission
     * decisions never depend on it.
     */
    void attachDevice(device::SimDevice* dev) { dev_ = dev; }

    /** Adds a sequence to the waiting queue (arrival order preserved). */
    void enqueue(SequenceStatePtr seq);

    size_t waitingCount() const { return waiting_.size(); }
    bool hasWaiting() const { return !waiting_.empty(); }

    /**
     * Moves admissible sequences out of the waiting queue, reserving
     * the KV blocks of their whole prefill in `kv`. The write range
     * starts at the prefix-matched offset, past every shared page, so
     * admission never copies. A fresh tail within the per-step cap must
     * fit whole in what is left of `prefillBudget`, the fresh tokens
     * this step can still prefill; a tail above the cap, which no step
     * can take whole, is admitted once its first chunk fits, that is
     * while any budget is left, and prefills over later steps.
     * Admission stops at the first candidate that does not fit (memory,
     * batch slots or budget), so FCFS never reorders;
     * shortest-prompt-first sorts candidates by pending prefill length
     * before applying the same rule.
     */
    std::vector<SequenceStatePtr> admit(KVCacheManager& kv,
                                        int64_t runningCount,
                                        int64_t prefillBudget);

    const SchedulerOptions& options() const { return options_; }

  private:
    std::deque<SequenceStatePtr> waiting_;
    SchedulerOptions options_;
    device::SimDevice* dev_ = nullptr; //!< clock + trace lane (optional)
};

} // namespace serve
} // namespace relax

#endif // RELAX_SERVE_SCHEDULER_H_
