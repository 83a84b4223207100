/**
 * @file
 * Router: the cluster front door above M engine replicas. Each replica
 * is a full Engine (its own device — or tensor-parallel device group —
 * compiled executable and KV pool); the router owns the arrival stream
 * and drives the replicas as one discrete-event simulation on their
 * virtual clocks.
 *
 * Placement is least-outstanding-tokens: every dispatched request
 * charges `prompt + max_new` tokens to its replica until it finishes,
 * and a new arrival goes to the replica with the smallest charge — a
 * cheap proxy for both queue depth and KV pressure that needs no
 * engine internals. Two admission-control valves sit in front:
 *
 *  - overload shedding: when even the least-loaded replica's charge
 *    exceeds `maxOutstandingTokensPerReplica`, the arrival is shed
 *    immediately (HTTP-503 semantics) instead of queueing. Under
 *    sustained overload this bounds the queue — and therefore the
 *    admitted p99 TTFT — at the cost of rejected work; with shedding
 *    off, queues (and tail TTFT) grow without bound for as long as the
 *    overload lasts. bench_router_overload measures exactly this trade.
 *  - per-tenant budgets: a tenant may hold at most
 *    `maxTenantTokensInFlight` charged tokens across all replicas;
 *    arrivals beyond that are rejected as the tenant's own overage
 *    (never shed-counted), so one chatty tenant cannot starve the rest.
 *
 * Event order: an arrival is dispatched only once every busy replica's
 * clock has reached the arrival time (so placement sees the true
 * outstanding state at that moment); otherwise the laggard replica
 * steps. Idle replicas are advanced to the arrival time through
 * hostOverhead — a replica that sat idle does not time-travel.
 *
 * Metrics (`router.*` in the router's own registry; event counts live
 * in RouterStats alone):
 *   histogram router.ttft_us — admitted requests only, measured from
 *             the original arrival stamp (shed requests never enter it)
 *   gauge     router.outstanding_tokens — cluster-wide charge, sampled
 *             at every dispatch decision (admitted or not)
 */
#ifndef RELAX_SERVE_ROUTER_H_
#define RELAX_SERVE_ROUTER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"

namespace relax {
namespace serve {

struct RouterOptions
{
    /**
     * Shed arrivals once the least-loaded replica already holds this
     * many charged tokens. 0 disables shedding (queues grow unbounded
     * under overload — the control arm of the overload bench).
     */
    int64_t maxOutstandingTokensPerReplica = 0;
    /**
     * Per-tenant cap on charged tokens in flight across the cluster.
     * 0 disables tenant budgets.
     */
    int64_t maxTenantTokensInFlight = 0;
};

/** Router-level aggregate statistics (the registry has distributions). */
struct RouterStats
{
    int64_t submitted = 0;
    int64_t dispatched = 0;
    int64_t shed = 0;           //!< rejected by the overload valve
    int64_t tenantRejected = 0; //!< rejected by the tenant budget
    /** tenantRejected per tenant (tenants never rejected are absent). */
    std::map<std::string, int64_t> rejectedByTenant;
    int64_t finished = 0;
};

/** A completed request annotated with its routing decision. */
struct RoutedRequest
{
    std::string tenant;
    int replica = -1;
    FinishedRequest finished;
};

/** The cluster front door. */
class Router
{
  public:
    /** Takes ownership of the replicas; at least one is required. */
    Router(std::vector<std::unique_ptr<Engine>> replicas,
           RouterOptions options = {});

    /**
     * Queues an arrival for the discrete-event run. Arrivals must be
     * submitted in non-decreasing `arrival_us` order (the bench draws
     * them from a Poisson process, which is naturally ordered).
     */
    void submit(std::string tenant, std::vector<int64_t> prompt,
                int64_t max_new_tokens, double arrival_us);

    /**
     * Runs the cluster until every submitted arrival is dispatched,
     * shed, or rejected, and every dispatched request has finished.
     */
    const RouterStats& run();

    /** Finished requests in completion order; clears the buffer. */
    std::vector<RoutedRequest> collect();

    const RouterStats& stats() const { return stats_; }
    const MetricsRegistry& metrics() const { return metrics_; }
    MetricsRegistry& metrics() { return metrics_; }
    int replicaCount() const { return (int)replicas_.size(); }
    Engine& replica(int i) { return *replicas_.at((size_t)i); }
    /** Charged tokens currently in flight on replica `i`. */
    int64_t outstandingTokens(int i) const
    {
        return outstanding_.at((size_t)i);
    }
    /** Charged tokens currently in flight for `tenant` (0 if none). */
    int64_t tenantTokensInFlight(const std::string& tenant) const;

  private:
    struct Arrival
    {
        std::string tenant;
        std::vector<int64_t> prompt;
        int64_t maxNewTokens = 0;
        double arrivalUs = 0.0;
    };
    struct InFlight
    {
        std::string tenant;
        int64_t chargedTokens = 0;
    };

    void dispatch(Arrival arrival);
    void stepReplica(size_t r);
    double replicaClockUs(size_t r) const;

    std::vector<std::unique_ptr<Engine>> replicas_;
    RouterOptions options_;
    std::deque<Arrival> pending_;
    std::vector<int64_t> outstanding_; //!< charged tokens per replica
    std::map<std::string, int64_t> tenantInFlight_;
    /** (replica, engine request id) -> charge to release on finish. */
    std::map<std::pair<size_t, RequestId>, InFlight> inFlight_;
    std::vector<RoutedRequest> finished_;
    RouterStats stats_;
    MetricsRegistry metrics_;
    // Registry handles, resolved once at construction.
    Gauge* outstandingGauge_ = nullptr;
    Histogram* ttftHistogram_ = nullptr;
};

} // namespace serve
} // namespace relax

#endif // RELAX_SERVE_ROUTER_H_
