/**
 * @file
 * Router implementation: discrete-event dispatch over M engine
 * replicas. See router.h for the event-ordering and admission-control
 * contract.
 */
#include "serve/router.h"

#include <algorithm>
#include <limits>

#include "support/error.h"

namespace relax {
namespace serve {

Router::Router(std::vector<std::unique_ptr<Engine>> replicas,
               RouterOptions options)
    : replicas_(std::move(replicas)), options_(options)
{
    RELAX_ICHECK(!replicas_.empty()) << "Router needs at least one replica";
    for (const auto& replica : replicas_) {
        RELAX_ICHECK(replica != nullptr) << "Router replica is null";
    }
    outstanding_.assign(replicas_.size(), 0);
    outstandingGauge_ = &metrics_.gauge("router.outstanding_tokens");
    ttftHistogram_ = &metrics_.histogram("router.ttft_us");
}

int64_t
Router::tenantTokensInFlight(const std::string& tenant) const
{
    auto it = tenantInFlight_.find(tenant);
    return it == tenantInFlight_.end() ? 0 : it->second;
}

void
Router::submit(std::string tenant, std::vector<int64_t> prompt,
               int64_t max_new_tokens, double arrival_us)
{
    RELAX_ICHECK(pending_.empty() ||
                 arrival_us >= pending_.back().arrivalUs)
        << "Router arrivals must be submitted in time order";
    ++stats_.submitted;
    pending_.push_back(Arrival{std::move(tenant), std::move(prompt),
                               max_new_tokens, arrival_us});
}

double
Router::replicaClockUs(size_t r) const
{
    return const_cast<Engine&>(*replicas_[r]).machine().dev().clockUs();
}

void
Router::dispatch(Arrival arrival)
{
    int64_t charge =
        (int64_t)arrival.prompt.size() + arrival.maxNewTokens;
    int64_t cluster_outstanding = 0;
    for (int64_t tokens : outstanding_) cluster_outstanding += tokens;
    outstandingGauge_->sample((double)cluster_outstanding);

    // Tenant budget first: a tenant blowing its own cap is its overage,
    // not cluster overload, whatever the replicas look like.
    if (options_.maxTenantTokensInFlight > 0 &&
        tenantTokensInFlight(arrival.tenant) + charge >
            options_.maxTenantTokensInFlight) {
        ++stats_.tenantRejected;
        ++stats_.rejectedByTenant[arrival.tenant];
        return;
    }

    size_t best = 0;
    for (size_t r = 1; r < replicas_.size(); ++r) {
        if (outstanding_[r] < outstanding_[best]) best = r;
    }
    if (options_.maxOutstandingTokensPerReplica > 0 &&
        outstanding_[best] >= options_.maxOutstandingTokensPerReplica) {
        ++stats_.shed;
        return;
    }

    // A replica that sat idle consumed real wall-clock doing nothing;
    // bring it to the arrival instant before the request lands on it.
    Engine& engine = *replicas_[best];
    double clock = replicaClockUs(best);
    if (!engine.hasPendingWork() && clock < arrival.arrivalUs) {
        engine.machine().dev().hostOverhead(arrival.arrivalUs - clock);
    }
    RequestId id = engine.addRequest(std::move(arrival.prompt),
                                     arrival.maxNewTokens,
                                     /*stop_token=*/-1, arrival.arrivalUs);
    outstanding_[best] += charge;
    tenantInFlight_[arrival.tenant] += charge;
    inFlight_[{best, id}] = InFlight{std::move(arrival.tenant), charge};
    ++stats_.dispatched;
}

void
Router::stepReplica(size_t r)
{
    Engine& engine = *replicas_[r];
    if (!engine.step()) {
        RELAX_ICHECK(!engine.hasPendingWork())
            << "Router replica " << r << " stalled: requests wait but "
            << "none fit the KV budget";
        return;
    }
    for (auto& finished : engine.collect()) {
        auto it = inFlight_.find({r, finished.id});
        RELAX_ICHECK(it != inFlight_.end())
            << "Router collected an unrouted request";
        outstanding_[r] -= it->second.chargedTokens;
        auto tenant_it = tenantInFlight_.find(it->second.tenant);
        tenant_it->second -= it->second.chargedTokens;
        if (tenant_it->second <= 0) tenantInFlight_.erase(tenant_it);
        double ttft = finished.stats.ttftUs();
        if (ttft >= 0) ttftHistogram_->record(ttft);
        ++stats_.finished;
        finished_.push_back(RoutedRequest{std::move(it->second.tenant),
                                          (int)r, std::move(finished)});
        inFlight_.erase(it);
    }
}

const RouterStats&
Router::run()
{
    const double inf = std::numeric_limits<double>::infinity();
    for (;;) {
        // The laggard busy replica defines how far simulated time has
        // progressed; an arrival is only dispatched once every busy
        // replica has caught up to it.
        double min_busy = inf;
        size_t min_replica = 0;
        for (size_t r = 0; r < replicas_.size(); ++r) {
            if (!replicas_[r]->hasPendingWork()) continue;
            double clock = replicaClockUs(r);
            if (clock < min_busy) {
                min_busy = clock;
                min_replica = r;
            }
        }
        if (!pending_.empty() && pending_.front().arrivalUs <= min_busy) {
            Arrival arrival = std::move(pending_.front());
            pending_.pop_front();
            dispatch(std::move(arrival));
        } else if (min_busy != inf) {
            stepReplica(min_replica);
        } else {
            break; // no arrivals left, no replica busy
        }
    }
    RELAX_ICHECK(inFlight_.empty())
        << "Router finished with requests still in flight";
    return stats_;
}

std::vector<RoutedRequest>
Router::collect()
{
    std::vector<RoutedRequest> out;
    out.swap(finished_);
    return out;
}

} // namespace serve
} // namespace relax
