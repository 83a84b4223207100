/**
 * @file
 * Scheduler implementation: policy-ordered admission against the KV
 * budget, batch-slot caps and the step's prefill budget (see
 * scheduler.h).
 */
#include "serve/scheduler.h"

#include <algorithm>

namespace relax {
namespace serve {

Scheduler::Scheduler(SchedulerOptions options) : options_(options)
{
    RELAX_ICHECK(options_.maxBatchSize >= 1) << "batch size must be >= 1";
    RELAX_ICHECK(options_.maxPrefillTokensPerStep >= 1)
        << "prefill budget must be >= 1";
}

void
Scheduler::enqueue(SequenceStatePtr seq)
{
    seq->phase = RequestPhase::kWaiting;
    RequestId id = seq->request.id;
    waiting_.push_back(std::move(seq));
    if (dev_ && dev_->trace().enabled()) {
        dev_->trace().instant(trace_lanes::kEngine,
                              trace_lanes::kRequests, "enqueue",
                              "lifecycle", dev_->clockUs(),
                              {{"request", id},
                               {"queue_depth", (int64_t)waiting_.size()}});
    }
}

std::vector<SequenceStatePtr>
Scheduler::admit(KVCacheManager& kv, int64_t runningCount,
                 int64_t prefillBudget)
{
    std::vector<SequenceStatePtr> candidates(waiting_.begin(),
                                             waiting_.end());
    if (options_.policy == SchedulePolicy::kShortestPromptFirst) {
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const SequenceStatePtr& a,
                            const SequenceStatePtr& b) {
                             return a->prefillLength() <
                                    b->prefillLength();
                         });
    }

    std::vector<SequenceStatePtr> admitted;
    for (const SequenceStatePtr& seq : candidates) {
        int64_t tokens = seq->prefillLength();
        // Automatic prefix caching: before sizing the reservation, map
        // the candidate onto any indexed pool pages holding its prompt
        // prefix — shared pages cost nothing and only the unmatched
        // tail is prefilled. No hint from the caller: the cache detects
        // duplicates itself (re-admissions after eviction re-match the
        // same way, against whatever is still indexed). Undone below
        // when the candidate does not fit after all. A waiting sequence
        // holds no pages, so the match is its whole committed prefix.
        int64_t matched =
            kv.matchPrefix(seq->request.id, seq->prefillTokens());
        int64_t fresh = tokens - matched;
        // A tail within the cap prefills whole in its admission step
        // (splitting it to fill the budget is not done); one above the
        // cap never fits a step, so it enters with a first chunk of
        // whatever budget is left and the engine prefills the rest over
        // later steps.
        bool within_budget =
            fresh > options_.maxPrefillTokensPerStep ? prefillBudget > 0
                                                     : fresh <= prefillBudget;
        bool fits = runningCount + (int64_t)admitted.size() <
                        options_.maxBatchSize &&
                    within_budget &&
                    kv.canHold(seq->request.id, tokens, matched);
        // Stop at the first misfit: admitting someone behind a blocked
        // head would starve large requests under memory pressure.
        if (!fits) {
            kv.dropMatch(seq->request.id); // undo this attempt's match
            break;
        }
        kv.reserve(seq->request.id, tokens, matched);
        prefillBudget -= std::min(fresh, prefillBudget);
        seq->phase = RequestPhase::kRunning;
        admitted.push_back(seq);
        waiting_.erase(std::find(waiting_.begin(), waiting_.end(), seq));
        if (dev_ && dev_->trace().enabled()) {
            dev_->trace().instant(
                trace_lanes::kEngine, trace_lanes::kRequests, "admit",
                "lifecycle", dev_->clockUs(),
                {{"request", seq->request.id},
                 {"prefill_tokens", fresh},
                 {"prefix_matched", matched},
                 {"queue_depth", (int64_t)waiting_.size()}});
        }
    }
    return admitted;
}

} // namespace serve
} // namespace relax
