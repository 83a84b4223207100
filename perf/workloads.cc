/**
 * @file
 * The four benchmark workloads. Each pass builds what the workload needs
 * (timed as set-up), sends its requests open loop and reads the results
 * back, then runs the decode probes. Metrics come from two clocks: the
 * simulated device clock (exact for a seed) and the host wall clock.
 *
 * Stable-API rule: this file reaches the stack only through
 * serve::Engine::build / addRequest / step / hasPendingWork / collect
 * (and FinishedRequest::stats), machine().dev() (clockUs, hostOverhead,
 * peakBytes), machine().lastRunStats(), the kv() getters, deviceGroup()
 * and its collective getters, serve::Router submit / run / collect /
 * replica, frontend::buildLlama / compile / makeLlamaWeights and
 * vm::Executable::functions. It never reads EngineStats, RouterStats,
 * the MetricsRegistry or the dense prefill/decode functions, which later
 * changes are free to delete or reshape.
 */
#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "frontend/compile.h"
#include "frontend/llama.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "tracer.h"

namespace perf {
namespace {

using namespace relax;
using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// --- fixed inputs ----------------------------------------------------------
//
// Rates, sizes and SLOs are constants. None is derived from a measured
// capacity, so a given seed gives every commit the same requests.

constexpr double kSloTtftMs = 1000.0;
constexpr double kSloTpotMs = 25.0;

/** Requests per arrival window (see Streams::arrivalsUs): bursty
 *  traffic, or paced traffic with one request per slot of 1 / rate. */
constexpr size_t kBursty = 10;
constexpr size_t kPaced = 1;

constexpr int kChatRequests = 1000;
constexpr double kChatRate = 2.0; //!< requests per simulated second

constexpr int kSharedRequests = 1000;
constexpr double kSharedRate = 6.0;
constexpr int kSystemPrompts = 8;
constexpr int64_t kSystemPromptTokens = 192; //!< 12 KV pages

constexpr int kClusterRequests = 2400;
constexpr double kClusterRate = 48.0;
constexpr int kReplicas = 2;
constexpr int64_t kClusterTp = 2;
constexpr int kTenants = 4;
/** Shed cap: 2 full batches of the mean charge (136 prompt + 40 output),
 *  so that the queue it admits stays inside the TTFT SLO. */
constexpr int64_t kShedCapTokens = 2 * 8 * (136 + 40);

/** Decode probes: step 1 prefills every row, steps 2..33 only decode. */
constexpr int64_t kProbeNewTokens = 33;
constexpr int64_t kProbeRowsB16 = 16;

/** Set-up repetitions the setup_s median rests on, at least. */
constexpr size_t kMinSetups = 7;

/** Generator stream families: traffic, decode probes, data-mode check. */
constexpr uint32_t kTrafficStreams = 0;
constexpr uint32_t kProbeStreams = 1;
constexpr uint32_t kTinyStreams = 2;

enum class Kind { kChat, kSharedPrefix, kCluster, kCompileDecode };

Kind
parseKind(const std::string& name)
{
    if (name == "chat") return Kind::kChat;
    if (name == "shared_prefix") return Kind::kSharedPrefix;
    if (name == "cluster") return Kind::kCluster;
    if (name == "compile_decode") return Kind::kCompileDecode;
    throw std::invalid_argument("unknown workload: " + name);
}

/**
 * The generator. Three independent streams feed it: prompt content,
 * lengths (and prompt choices), and arrival gaps, so drawing more or
 * fewer content tokens never moves an arrival time.
 *
 * Lengths and choices are stratified: n draws take one value from each
 * of n equal slices of the distribution, in shuffled order, and arrivals
 * come a fixed number to a window. Seeds then differ in order, bursts and
 * content, not in how much work a trace carries or when, which keeps
 * tail metrics steady from seed to seed.
 */
class Streams
{
  public:
    Streams(uint64_t seed, uint32_t family)
        : content_(make(seed, 3 * family)),
          lengths_(make(seed, 3 * family + 1)),
          gaps_(make(seed, 3 * family + 2))
    {}

    /** `n` stratified draws from U[0, 1), shuffled. */
    std::vector<double>
    strata(size_t n)
    {
        std::uniform_real_distribution<double> u(0.0, 1.0);
        std::vector<double> out(n);
        for (size_t i = 0; i < n; ++i) {
            out[i] = ((double)i + u(lengths_)) / (double)n;
        }
        std::shuffle(out.begin(), out.end(), lengths_);
        return out;
    }

    /** `n` stratified integers, uniform on [lo, hi]. */
    std::vector<int64_t>
    lengths(size_t n, int64_t lo, int64_t hi)
    {
        std::vector<int64_t> out;
        for (double u : strata(n)) {
            int64_t offset = (int64_t)(u * (double)(hi - lo + 1));
            out.push_back(lo + std::min(hi - lo, offset));
        }
        return out;
    }

    /**
     * Due times of `n` arrivals at `per_second`: each `window`
     * consecutive requests land uniformly at random inside their own
     * window / per_second seconds (a Poisson process conditioned on
     * `window` arrivals per window). Bursts form inside a window, but the
     * rate never drifts from one window to the next.
     */
    std::vector<double>
    arrivalsUs(size_t n, double per_second, size_t window)
    {
        std::uniform_real_distribution<double> u(0.0, (double)window);
        std::vector<double> out(n);
        for (size_t i = 0; i < n; ++i) {
            out[i] = ((double)(i - i % window) + u(gaps_)) / per_second * 1e6;
        }
        for (size_t i = 0; i < n; i += window) {
            std::sort(out.begin() + i, out.begin() + std::min(n, i + window));
        }
        return out;
    }

    std::vector<int64_t>
    tokens(int64_t count, int64_t vocab)
    {
        std::uniform_int_distribution<int64_t> token(0, vocab - 1);
        std::vector<int64_t> out((size_t)count);
        for (int64_t& t : out) t = token(content_);
        return out;
    }

  private:
    static std::mt19937_64
    make(uint64_t seed, uint32_t stream)
    {
        std::seed_seq seq{(uint32_t)seed, (uint32_t)(seed >> 32), stream};
        return std::mt19937_64(seq);
    }

    std::mt19937_64 content_, lengths_, gaps_;
};

struct Arrival
{
    double dueUs = 0.0;
    std::vector<int64_t> prompt;
    int64_t maxNew = 0;
};

const int64_t kVocab = frontend::LlamaConfig::llama3_8b().vocabSize;

/** Content-distinct prompts U[16,256], except every tenth request, whose
 *  prompt is U[257,1024] (over the 256-token prefill cap); outputs
 *  U[16,128]. */
std::vector<Arrival>
chatTrace(uint64_t seed)
{
    Streams s(seed, kTrafficStreams);
    const size_t n = kChatRequests, longs = n / 10;
    std::vector<double> due = s.arrivalsUs(n, kChatRate, kBursty);
    std::vector<int64_t> short_len = s.lengths(n - longs, 16, 256);
    std::vector<int64_t> long_len = s.lengths(longs, 257, 1024);
    std::vector<int64_t> out_len = s.lengths(n, 16, 128);
    std::vector<Arrival> trace;
    for (size_t i = 0; i < n; ++i) {
        int64_t len = i % 10 == 9 ? long_len[i / 10] : short_len[i - i / 10];
        trace.push_back({due[i], s.tokens(len, kVocab), out_len[i]});
    }
    return trace;
}

/** One of 8 system prompts of 192 tokens, picked with Zipf 1/k weights,
 *  plus a distinct U[16,64] tail; outputs U[16,64]. */
std::vector<Arrival>
sharedPrefixTrace(uint64_t seed)
{
    Streams s(seed, kTrafficStreams);
    const size_t n = kSharedRequests;
    std::vector<std::vector<int64_t>> system;
    std::vector<double> cdf;
    double total = 0.0;
    for (int k = 1; k <= kSystemPrompts; ++k) {
        system.push_back(s.tokens(kSystemPromptTokens, kVocab));
        cdf.push_back(total += 1.0 / k);
    }
    std::vector<double> due = s.arrivalsUs(n, kSharedRate, kPaced);
    std::vector<double> pick = s.strata(n);
    std::vector<int64_t> tail_len = s.lengths(n, 16, 64);
    std::vector<int64_t> out_len = s.lengths(n, 16, 64);
    std::vector<Arrival> trace;
    for (size_t i = 0; i < n; ++i) {
        size_t k = std::upper_bound(cdf.begin(), cdf.end(), pick[i] * total) -
                   cdf.begin();
        std::vector<int64_t> prompt = system[std::min(k, system.size() - 1)];
        std::vector<int64_t> tail = s.tokens(tail_len[i], kVocab);
        prompt.insert(prompt.end(), tail.begin(), tail.end());
        trace.push_back({due[i], std::move(prompt), out_len[i]});
    }
    return trace;
}

/** Prompts U[16,256], outputs U[16,64], at a fixed rate above what two
 *  tp=2 replicas sustain, so the router sheds. */
std::vector<Arrival>
clusterTrace(uint64_t seed)
{
    Streams s(seed, kTrafficStreams);
    const size_t n = kClusterRequests;
    std::vector<double> due = s.arrivalsUs(n, kClusterRate, kBursty);
    std::vector<int64_t> prompt_len = s.lengths(n, 16, 256);
    std::vector<int64_t> out_len = s.lengths(n, 16, 64);
    std::vector<Arrival> trace;
    for (size_t i = 0; i < n; ++i) {
        trace.push_back({due[i], s.tokens(prompt_len[i], kVocab), out_len[i]});
    }
    return trace;
}

// --- deployments -----------------------------------------------------------

struct Deployment
{
    frontend::LlamaConfig model;
    frontend::CompileOptions compile;
    serve::EngineOptions engine;
};

/** Llama3-8B on an RTX 4090: batch cap 8, prefill cap 256 per step,
 *  bounds b=8, n=288 (the cap plus the other rows' decode tokens). */
Deployment
serving(int64_t tp)
{
    Deployment d;
    d.model = frontend::LlamaConfig::llama3_8b();
    d.compile.device = device::rtx4090();
    d.compile.bounds = {{"b", 8}, {"n", 288}};
    d.engine.scheduler.maxBatchSize = 8;
    d.engine.scheduler.maxPrefillTokensPerStep = 256;
    d.engine.kvBlockTokens = 16;
    d.engine.tensorParallel = tp;
    d.engine.interconnect = "nvlink";
    return d;
}

/** Decode probes: up to 16 rows of <= 128 prompt tokens prefill in one
 *  step, so the prefill cap is 16*128 and the bounds b=16, n=2064. */
Deployment
probing(frontend::LlamaConfig model, int64_t tp)
{
    Deployment d = serving(tp);
    d.model = std::move(model);
    d.compile.bounds = {{"b", 16}, {"n", 16 * 128 + 16}};
    d.engine.scheduler.maxBatchSize = 16;
    d.engine.scheduler.maxPrefillTokensPerStep = 16 * 128;
    return d;
}

std::vector<frontend::LlamaConfig>
figure14Models()
{
    return {frontend::LlamaConfig::llama3_8b(),
            frontend::LlamaConfig::gemma1_1_7b(),
            frontend::LlamaConfig::qwen2_7b()};
}

std::unique_ptr<serve::Engine>
build(const Deployment& d, Tracer& tr)
{
    return tr.span("serve.engine.build", "Engine::build", -1, [&] {
        return serve::Engine::build(d.model, d.compile, /*data_mode=*/false,
                                    d.engine);
    });
}

/** Everything a workload builds before its first request. */
struct Stack
{
    std::vector<std::unique_ptr<serve::Engine>> engines;
    std::unique_ptr<serve::Router> router; //!< owns the engines when set
};

Stack
setUp(Kind kind, Tracer& tr)
{
    Stack st;
    switch (kind) {
      case Kind::kChat:
      case Kind::kSharedPrefix:
        st.engines.push_back(build(serving(1), tr));
        break;
      case Kind::kCluster: {
        for (int r = 0; r < kReplicas; ++r) {
            st.engines.push_back(build(serving(kClusterTp), tr));
        }
        serve::RouterOptions options;
        options.maxOutstandingTokensPerReplica = kShedCapTokens;
        st.router = std::make_unique<serve::Router>(std::move(st.engines),
                                                    options);
        st.engines.clear();
        break;
      }
      case Kind::kCompileDecode:
        for (const frontend::LlamaConfig& model : figure14Models()) {
            st.engines.push_back(build(probing(model, 1), tr));
        }
        break;
    }
    return st;
}

// --- one pass ----------------------------------------------------------------

struct StepSample
{
    double hostUs;
    double simUs;
    int64_t launches;
    int64_t graphBegins;
    int64_t graphReplays;
    int64_t usedPages;
};

struct Done
{
    serve::FinishedRequest request;
    int lane; //!< engine or replica that served it
};

/** Device, KV-pool and interconnect state read after a phase. */
struct Totals
{
    int64_t prefixHits = 0;
    int64_t peakPages = 0;
    int64_t cowCopies = 0;
    int64_t leakedPages = 0;
    int64_t peakBytes = 0;
    int64_t busyEngines = 0;
    int64_t cclCount = 0;
    double cclBytes = 0.0;
    double cclUs = 0.0;

    void
    add(serve::Engine& e)
    {
        prefixHits += e.kv().prefixHits();
        peakPages = std::max(peakPages, e.kv().peakPages());
        cowCopies += e.kv().cowCopies();
        leakedPages += e.kv().usedPages();
        busyEngines += e.hasPendingWork() ? 1 : 0;
        peakBytes = std::max(peakBytes, e.machine().dev().peakBytes());
        if (device::DeviceGroup* g = e.deviceGroup()) {
            for (int i = 0; i < g->size(); ++i) {
                peakBytes = std::max(peakBytes, g->device(i).peakBytes());
            }
            cclCount += g->collectiveCount();
            cclBytes += g->collectiveBytes();
            cclUs += g->collectiveUs();
        }
    }
};

/** The requests of one phase and what serving them left behind. */
struct Phase
{
    std::vector<Arrival> sent;
    std::vector<Done> done;
    std::vector<StepSample> steps; //!< steps the benchmark drove itself
    Totals totals;
    bool sharedClock = false; //!< lanes are router replicas on one timeline
};

struct Pass
{
    double setupS = 0.0;
    double mainHostS = 0.0; //!< host seconds of the main phase's loop
    Phase main;
    Phase probe; //!< decode probes after serving (empty on compile_decode)
    std::vector<double> decodeB1Ms, decodeB16Ms; //!< one per probed model
    std::vector<double> lagUs; //!< admission time minus due time
};

/** One engine step driven by the benchmark, timed on both clocks. */
bool
timedStep(serve::Engine& engine, Tracer& tr, std::vector<StepSample>& log)
{
    device::SimDevice& dev = engine.machine().dev();
    double sim0 = dev.clockUs();
    auto t0 = SteadyClock::now();
    bool progressed = tr.span("serve.engine", "Engine::step", -1,
                              [&] { return engine.step(); });
    double host_us = secondsSince(t0) * 1e6;
    if (progressed) {
        const vm::RunStats& run = engine.machine().lastRunStats();
        log.push_back({host_us, dev.clockUs() - sim0, run.kernelLaunches,
                       run.graphBegins, run.graphReplays,
                       engine.kv().usedPages()});
    }
    return progressed;
}

void
add(serve::Engine& engine, const Arrival& a, int64_t index, Tracer& tr)
{
    tr.span("serve.engine", "Engine::addRequest", index, [&] {
        engine.addRequest(a.prompt, a.maxNew, /*stop_token=*/-1, a.dueUs);
    });
}

void
collect(serve::Engine& engine, int lane, Tracer& tr, Phase& phase)
{
    auto finished = tr.span("serve.engine", "Engine::collect", -1,
                            [&] { return engine.collect(); });
    for (serve::FinishedRequest& f : finished) {
        phase.done.push_back({std::move(f), lane});
    }
}

/**
 * Open loop on the engine's simulated clock: every request whose due
 * time has passed is added (its arrival stamp backdated to the due
 * time, so TTFT counts the wait behind the step in flight), the engine
 * steps while it has work, and idles forward to the next due time when
 * it has none.
 */
void
serveOpenLoop(serve::Engine& engine, const std::vector<Arrival>& trace,
              Tracer& tr, Pass& p)
{
    device::SimDevice& dev = engine.machine().dev();
    size_t next = 0;
    while (next < trace.size() || engine.hasPendingWork()) {
        while (next < trace.size() && trace[next].dueUs <= dev.clockUs()) {
            p.lagUs.push_back(dev.clockUs() - trace[next].dueUs);
            add(engine, trace[next], (int64_t)next, tr);
            ++next;
        }
        if (!engine.hasPendingWork()) {
            dev.hostOverhead(trace[next].dueUs - dev.clockUs());
        } else if (!timedStep(engine, tr, p.main.steps)) {
            throw std::runtime_error("engine stalled with requests waiting");
        }
    }
    collect(engine, 0, tr, p.main);
    p.main.sent = trace;
    p.main.totals.add(engine);
}

/**
 * Sends `rows` distinct prompts of U[96,128] tokens at once, each asking
 * for 33 tokens, and steps until all finish. Step 1 prefills every row;
 * returns the mean simulated time of the 32 pure-decode steps after it.
 * Prompt lengths vary with the seed so that a cost-model change shows on
 * every seed.
 */
double
decodeProbe(serve::Engine& engine, int64_t rows, int lane, Streams& s,
            Tracer& tr, Phase& phase)
{
    device::SimDevice& dev = engine.machine().dev();
    for (int64_t len : s.lengths((size_t)rows, 96, 128)) {
        Arrival a;
        a.dueUs = dev.clockUs();
        a.maxNew = kProbeNewTokens;
        a.prompt = s.tokens(len, kVocab);
        add(engine, a, (int64_t)phase.sent.size(), tr);
        phase.sent.push_back(std::move(a));
    }
    size_t first = phase.steps.size();
    while (engine.hasPendingWork()) {
        if (!timedStep(engine, tr, phase.steps)) {
            throw std::runtime_error("decode probe stalled");
        }
    }
    collect(engine, lane, tr, phase);
    size_t steps = phase.steps.size() - first;
    if (steps != (size_t)kProbeNewTokens) {
        throw std::runtime_error("decode probe of " + std::to_string(rows) +
                                 " rows took " + std::to_string(steps) +
                                 " steps, not one prefill step plus " +
                                 std::to_string(kProbeNewTokens - 1) +
                                 " decode steps");
    }
    double decode_us = 0.0;
    for (size_t i = first + 1; i < phase.steps.size(); ++i) {
        decode_us += phase.steps[i].simUs;
    }
    return decode_us / 1e3 / (double)(steps - 1);
}

/** Batch-1 and batch-16 decode probes on one engine (one probed model). */
void
probeBoth(serve::Engine& engine, int lane, Streams& s, Tracer& tr,
          Phase& phase, Pass& p)
{
    p.decodeB1Ms.push_back(decodeProbe(engine, 1, lane, s, tr, phase));
    p.decodeB16Ms.push_back(
        decodeProbe(engine, kProbeRowsB16, lane, s, tr, phase));
    phase.totals.add(engine);
}

Pass
runPass(Kind kind, const std::vector<Arrival>& trace, uint64_t seed,
        Tracer& tr)
{
    Pass p;
    auto t0 = SteadyClock::now();
    Stack st = tr.span("bench", "setup", -1, [&] { return setUp(kind, tr); });
    p.setupS = secondsSince(t0);
    Streams probe_streams(seed, kProbeStreams);

    if (kind == Kind::kCompileDecode) {
        tr.span("bench", "decode_probes", -1, [&] {
            t0 = SteadyClock::now();
            for (size_t m = 0; m < st.engines.size(); ++m) {
                probeBoth(*st.engines[m], (int)m, probe_streams, tr, p.main,
                          p);
            }
            p.mainHostS = secondsSince(t0);
        });
        return p;
    }

    tr.span("bench", "serve", -1, [&] {
        t0 = SteadyClock::now();
        if (kind == Kind::kCluster) {
            serve::Router& router = *st.router;
            for (size_t i = 0; i < trace.size(); ++i) {
                const Arrival& a = trace[i];
                std::string tenant = "tenant" + std::to_string(i % kTenants);
                tr.span("serve.router", "Router::submit", (int64_t)i, [&] {
                    router.submit(tenant, a.prompt, a.maxNew, a.dueUs);
                });
            }
            tr.span("serve.router", "Router::run", -1,
                    [&] { router.run(); });
            auto routed = tr.span("serve.router", "Router::collect", -1,
                                  [&] { return router.collect(); });
            p.mainHostS = secondsSince(t0);
            for (serve::RoutedRequest& r : routed) {
                p.main.done.push_back({std::move(r.finished), r.replica});
            }
            for (int r = 0; r < kReplicas; ++r) {
                p.main.totals.add(router.replica(r));
            }
            p.main.sent = trace;
            p.main.sharedClock = true;
        } else {
            serveOpenLoop(*st.engines[0], trace, tr, p);
            p.mainHostS = secondsSince(t0);
        }
    });

    // Decode probes on the same deployment, outside set-up and the
    // serving loop: what one user waits per token at batch 1 and 16.
    tr.span("bench", "decode_probes", -1, [&] {
        int64_t tp = kind == Kind::kCluster ? kClusterTp : 1;
        auto engine = build(probing(frontend::LlamaConfig::llama3_8b(), tp),
                            tr);
        probeBoth(*engine, 0, probe_streams, tr, p.probe, p);
    });
    return p;
}

// --- metrics ---------------------------------------------------------------

/** Nearest-rank percentile (the bench/serve_throughput.cc convention). */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return values[(size_t)((double)(values.size() - 1) * p + 0.5)];
}

/** Median of host-clock samples (the mean of the middle two when even). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
geomean(const std::vector<double>& values)
{
    double log_sum = 0.0;
    for (double v : values) log_sum += std::log(v);
    return values.empty() ? 0.0 : std::exp(log_sum / (double)values.size());
}

int64_t
outputTokens(const Phase& phase)
{
    int64_t tokens = 0;
    for (const Done& d : phase.done) {
        tokens += (int64_t)d.request.outputTokens.size();
    }
    return tokens;
}

/** Per lane: the span from first arrival to last finish, and the time at
 *  least one request was in flight (the union of arrival..finish). */
struct LaneTime
{
    double spanUs = 0.0;
    double busyUs = 0.0;
    int64_t tokens = 0;
};

std::map<int, LaneTime>
laneTimes(const Phase& phase)
{
    std::map<int, std::vector<std::pair<double, double>>> intervals;
    std::map<int, LaneTime> lanes;
    for (const Done& d : phase.done) {
        intervals[d.lane].push_back(
            {d.request.stats.arrivalUs, d.request.stats.finishUs});
        lanes[d.lane].tokens += (int64_t)d.request.outputTokens.size();
    }
    for (auto& [lane, spans] : intervals) {
        std::sort(spans.begin(), spans.end());
        LaneTime& t = lanes[lane];
        double start = spans.front().first, end = start, last = start;
        for (const auto& [a, f] : spans) {
            if (a > end) {
                t.busyUs += end - start;
                start = a;
                end = a;
            }
            end = std::max(end, f);
            last = std::max(last, f);
        }
        t.busyUs += end - start;
        t.spanUs = last - spans.front().first;
    }
    return lanes;
}

/** Simulated seconds the phase spent serving: router replicas share one
 *  timeline; separate engines (compile_decode's models) add up. */
double
simSeconds(const Phase& phase)
{
    std::map<int, LaneTime> lanes = laneTimes(phase);
    if (!phase.sharedClock) {
        double us = 0.0;
        for (const auto& [lane, t] : lanes) us += t.spanUs;
        return us / 1e6;
    }
    double first = 1e300, last = 0.0;
    for (const Done& d : phase.done) {
        first = std::min(first, d.request.stats.arrivalUs);
        last = std::max(last, d.request.stats.finishUs);
    }
    return phase.done.empty() ? 0.0 : (last - first) / 1e6;
}

/** The end-to-end metrics that repeat exactly for a seed. */
std::vector<Metric>
exactEndToEnd(const Pass& p, int64_t exec_instrs)
{
    const Phase& m = p.main;
    std::vector<double> ttft, tpot;
    int64_t good = 0;
    for (const Done& d : m.done) {
        double ttft_ms = d.request.stats.ttftUs() / 1e3;
        double tpot_ms = d.request.stats.meanInterTokenUs() / 1e3;
        ttft.push_back(ttft_ms);
        tpot.push_back(tpot_ms);
        if (ttft_ms <= kSloTtftMs && tpot_ms <= kSloTpotMs) ++good;
    }
    double sent = (double)m.sent.size();
    auto e2e = [](const char* name, double value, const char* unit) {
        return Metric{Scope::kEndToEnd, name, value, unit, Clock::kExact};
    };
    return {
        e2e("ttft_p50_ms", percentile(ttft, 0.50), "ms"),
        e2e("ttft_p99_ms", percentile(ttft, 0.99), "ms"),
        e2e("tpot_p50_ms", percentile(tpot, 0.50), "ms"),
        e2e("tpot_p99_ms", percentile(tpot, 0.99), "ms"),
        e2e("slo_goodput_frac", (double)good / sent, "fraction"),
        e2e("sim_tok_s", (double)outputTokens(m) / simSeconds(m), "tok/s"),
        e2e("served_frac", (double)m.done.size() / sent, "fraction"),
        e2e("decode_step_ms_b1", geomean(p.decodeB1Ms), "ms"),
        e2e("decode_step_ms_b16", geomean(p.decodeB16Ms), "ms"),
        e2e("exec_instrs", (double)exec_instrs, "count"),
    };
}

/**
 * Per-request and per-phase correctness: every request sent either
 * finished with exactly its max_new tokens and TTFT >= 0 or was refused
 * by the router; no pages leak; no device exceeds its VRAM.
 */
void
checkPhase(const char* what, const Phase& phase, int64_t vram_bytes,
           Report& report)
{
    std::map<std::vector<int64_t>, int64_t> expected;
    for (const Arrival& a : phase.sent) {
        report.check(expected.emplace(a.prompt, a.maxNew).second,
                     std::string(what) + ": two prompts share content");
    }
    int64_t bad = 0;
    for (const Done& d : phase.done) {
        auto it = expected.find(d.request.promptTokens);
        bool ok = it != expected.end() &&
                  (int64_t)d.request.outputTokens.size() == it->second &&
                  d.request.stats.ttftUs() >= 0;
        if (it != expected.end()) expected.erase(it); // finished once only
        bad += ok ? 0 : 1;
    }
    report.failed += bad;
    report.check(bad == 0, std::string(what) + ": " + std::to_string(bad) +
                               " finished request(s) with a wrong token "
                               "count, a negative TTFT or no matching "
                               "prompt");
    // The router may refuse (shed) a request; an engine never does, so
    // sent == finished + refused holds with refused = 0 there. Refused
    // router requests must have left no work behind on any replica.
    report.check(phase.sharedClock || phase.done.size() == phase.sent.size(),
                 std::string(what) + ": sent " +
                     std::to_string(phase.sent.size()) + " but finished " +
                     std::to_string(phase.done.size()));
    report.check(phase.totals.busyEngines == 0,
                 std::string(what) + ": an engine still holds work");
    report.check(phase.totals.leakedPages == 0,
                 std::string(what) + ": " +
                     std::to_string(phase.totals.leakedPages) +
                     " KV page(s) still in use after the run");
    report.check(phase.totals.peakBytes <= vram_bytes,
                 std::string(what) + ": device peak exceeds VRAM");
}

/**
 * Token identity in data mode: 8 distinct prompts batched through one
 * tiny engine emit exactly the greedy tokens each emits served alone.
 */
void
checkBatchingKeepsTokens(uint64_t seed, Report& report)
{
    frontend::LlamaConfig tiny = frontend::LlamaConfig::tiny();
    frontend::CompileOptions copts;
    copts.device = device::rtx4090();
    copts.bounds = {{"b", 8}, {"n", 128}};
    serve::EngineOptions options;
    options.kvBlockTokens = 4;
    const int64_t max_new = 8;
    Streams s(seed, kTinyStreams);
    std::vector<std::vector<int64_t>> prompts;
    for (int64_t len : s.lengths(8, 3, 12)) {
        prompts.push_back(s.tokens(len, tiny.vocabSize));
        prompts.back()[0] = (int64_t)prompts.size(); // distinct content
    }
    auto serve_all = [&](const std::vector<std::vector<int64_t>>& batch) {
        auto engine =
            serve::Engine::build(tiny, copts, /*data_mode=*/true, options);
        for (const auto& prompt : batch) engine->addRequest(prompt, max_new);
        while (engine->hasPendingWork()) {
            if (!engine->step()) {
                throw std::runtime_error("tiny engine stalled");
            }
        }
        std::vector<std::vector<int64_t>> out;
        for (auto& f : engine->collect()) out.push_back(f.outputTokens);
        return out;
    };
    std::vector<std::vector<int64_t>> batched = serve_all(prompts);
    report.check(batched.size() == prompts.size(),
                 "tiny data-mode batch lost requests");
    for (size_t i = 0; i < prompts.size() && i < batched.size(); ++i) {
        std::vector<std::vector<int64_t>> alone = serve_all({prompts[i]});
        report.check(alone.size() == 1 && alone[0] == batched[i],
                     "tiny data-mode request " + std::to_string(i) +
                         ": batched tokens differ from the prompt served "
                         "alone");
    }
}

struct ExecCounts
{
    int64_t instrs = 0;
    int64_t functions = 0;
    int64_t kernelCalls = 0;  //!< generated kernels in decode_ragged
    int64_t libraryCalls = 0; //!< library kernels in decode_ragged
    int64_t graphRegions = 0; //!< capture regions in decode_ragged
};

ExecCounts
countExec(const vm::Executable& exec)
{
    ExecCounts c;
    c.functions = (int64_t)exec.functions.size();
    for (const auto& [name, fn] : exec.functions) {
        c.instrs += (int64_t)fn.instrs.size();
        if (name != "decode_ragged") continue;
        for (const vm::Instr& instr : fn.instrs) {
            if (instr.op == vm::Instr::Op::kKernelCall) {
                ++(instr.isLibrary ? c.libraryCalls : c.kernelCalls);
            } else if (instr.op == vm::Instr::Op::kGraphBegin) {
                ++c.graphRegions;
            }
        }
    }
    return c;
}

struct FrontendCost
{
    double buildLlamaMs = 0.0;
    double compileMs = 0.0; //!< passes plus VM codegen
    double weightsMs = 0.0;
};

/**
 * The public calls Engine::build makes, timed one by one, with the same
 * option rewrite it applies (graph buckets follow KV pages; a sharded
 * compile under tensor parallelism). Returns the executable.
 */
vm::ExecutablePtr
frontendOnce(const Deployment& d, Tracer& tr, FrontendCost& cost)
{
    frontend::CompileOptions copts = d.compile;
    if (copts.graphBucketTokens == 0) {
        copts.graphBucketTokens = d.engine.kvBlockTokens;
    }
    copts.tensorParallel = d.engine.tensorParallel;
    auto t0 = SteadyClock::now();
    ir::IRModulePtr module =
        tr.span("frontend", "frontend::buildLlama", -1,
                [&] { return frontend::buildLlama(d.model); });
    cost.buildLlamaMs += secondsSince(t0) * 1e3;
    t0 = SteadyClock::now();
    vm::ExecutablePtr exec = tr.span("frontend", "frontend::compile", -1, [&] {
        return frontend::compile(module, copts);
    });
    cost.compileMs += secondsSince(t0) * 1e3;
    t0 = SteadyClock::now();
    tr.span("frontend", "frontend::makeLlamaWeights", -1, [&] {
        frontend::makeLlamaWeights(d.model, /*with_data=*/false);
    });
    cost.weightsMs += secondsSince(t0) * 1e3;
    return exec;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return (double)usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB
}

/** The per-layer metrics of the traced pass; README.md lists what each
 *  should move. */
void
reportLayers(const Pass& p, const FrontendCost& fc, const ExecCounts& ex,
             double untraced_host_tok_s, const Tracer& tr, Report& r)
{
    auto exact = [&](const std::string& name, double v, const char* unit) {
        r.add(Scope::kLayer, name, v, unit, Clock::kExact);
    };
    auto host = [&](const std::string& name, double v, const char* unit) {
        r.add(Scope::kLayer, name, v, unit, Clock::kHost);
    };
    const Phase& m = p.main;
    // Per-step numbers cover the steps the benchmark drives itself; on
    // cluster Router::run steps the replicas, so they come from the
    // decode probes there.
    const Phase& stepped = m.steps.empty() ? p.probe : m;
    std::vector<double> step_host, step_sim;
    int64_t launches = 0, begins = 0, replays = 0;
    double used_pages = 0.0;
    for (const StepSample& s : stepped.steps) {
        step_host.push_back(s.hostUs);
        step_sim.push_back(s.simUs / 1e3);
        launches += s.launches;
        begins += s.graphBegins;
        replays += s.graphReplays;
        used_pages += (double)s.usedPages;
    }
    double steps = std::max<double>(1.0, (double)stepped.steps.size());

    host("frontend.build_llama_ms", fc.buildLlamaMs, "ms");
    host("frontend.compile_ms", fc.compileMs, "ms");
    host("frontend.weights_ms", fc.weightsMs, "ms");
    exact("vm.decode_kernel_calls", (double)ex.kernelCalls, "count");
    exact("vm.decode_graph_regions", (double)ex.graphRegions, "count");
    exact("vm.decode_library_calls", (double)ex.libraryCalls, "count");
    exact("vm.exec_functions", (double)ex.functions, "count");
    exact("vm.launches_per_step", (double)launches / steps, "count");
    exact("vm.graph_replay_frac",
          begins > 0 ? (double)replays / (double)begins : 0.0, "fraction");

    std::map<int, LaneTime> lanes = laneTimes(m);
    double busy = 0.0, span = 0.0, max_tokens = 0.0, all_tokens = 0.0;
    for (const auto& [lane, t] : lanes) {
        busy += t.busyUs;
        span += t.spanUs;
        max_tokens = std::max(max_tokens, (double)t.tokens);
        all_tokens += (double)t.tokens;
    }
    if (m.sharedClock) span = simSeconds(m) * 1e6 * (double)lanes.size();
    exact("device.busy_frac", span > 0 ? busy / span : 0.0, "fraction");
    exact("device.peak_mib", (double)m.totals.peakBytes / (1 << 20), "MiB");

    host("engine.step_host_us_p50", percentile(step_host, 0.50), "us");
    host("engine.step_host_us_p99", percentile(step_host, 0.99), "us");
    exact("engine.step_sim_ms_p50", percentile(step_sim, 0.50), "ms");
    exact("engine.step_sim_ms_p99", percentile(step_sim, 0.99), "ms");
    exact("engine.steps", (double)stepped.steps.size(), "count");
    exact("engine.tokens_per_step", (double)outputTokens(stepped) / steps,
          "tok");

    int64_t preemptions = 0, prefilled = 0, prompt_tokens = 0;
    for (const Done& d : m.done) {
        preemptions += d.request.stats.preemptions;
        prefilled += d.request.stats.prefillTokens;
        prompt_tokens += (int64_t)d.request.promptTokens.size();
    }
    exact("sched.preemptions", (double)preemptions, "count");
    exact("kv.prefill_token_frac",
          prompt_tokens > 0 ? (double)prefilled / (double)prompt_tokens : 0.0,
          "fraction");
    exact("kv.prefix_match_calls", (double)m.totals.prefixHits, "count");
    exact("kv.used_pages_mean", used_pages / steps, "pages");
    exact("kv.peak_pages", (double)m.totals.peakPages, "pages");
    exact("kv.cow_copies", (double)m.totals.cowCopies, "count");

    exact("ccl.count", (double)m.totals.cclCount, "count");
    exact("ccl.gbytes", m.totals.cclBytes / 1e9, "GB");
    exact("ccl.time_frac", busy > 0 ? m.totals.cclUs / busy : 0.0,
          "fraction");

    exact("router.replica_tok_imbalance",
          m.sharedClock && all_tokens > 0
              ? max_tokens / (all_tokens / (double)lanes.size()) - 1.0
              : 0.0,
          "fraction");
    host("router.run_host_s", m.sharedClock ? p.mainHostS : 0.0, "s");

    exact("bench.gen_lag_ms_p99", percentile(p.lagUs, 0.99) / 1e3, "ms");
    double traced_host_tok_s = (double)outputTokens(m) / p.mainHostS;
    host("bench.trace_overhead_frac",
         1.0 - traced_host_tok_s / untraced_host_tok_s, "fraction");

    std::map<std::string, double> self = tr.selfSeconds();
    for (const char* layer : {"bench", "frontend", "serve.engine.build",
                              "serve.engine", "serve.router"}) {
        host(std::string("self_s.") + layer, self[layer], "s");
    }
}

} // namespace

void
runWorkload(const std::string& workload, uint64_t seed, double seconds,
            const std::string& trace_path, Report& report)
{
    auto start = SteadyClock::now();
    Kind kind = parseKind(workload);
    Tracer tr;
    tr.enable(!trace_path.empty());

    // Once per process: the frontend calls one by one (the traced
    // breakdown of set-up) and the executable's instruction counts.
    std::vector<Deployment> built;
    if (kind == Kind::kCompileDecode) {
        for (const frontend::LlamaConfig& model : figure14Models()) {
            built.push_back(probing(model, 1));
        }
    } else {
        built.push_back(serving(kind == Kind::kCluster ? kClusterTp : 1));
    }
    FrontendCost fc;
    ExecCounts ex;
    tr.span("bench", "frontend_breakdown", -1, [&] {
        for (size_t i = 0; i < built.size(); ++i) {
            vm::ExecutablePtr exec = frontendOnce(built[i], tr, fc);
            if (i == 0) ex = countExec(*exec); // Llama3-8B
        }
    });
    tr.enable(false);
    if (kind == Kind::kCompileDecode) checkBatchingKeepsTokens(seed, report);

    std::vector<Arrival> trace;
    if (kind == Kind::kChat) trace = chatTrace(seed);
    if (kind == Kind::kSharedPrefix) trace = sharedPrefixTrace(seed);
    if (kind == Kind::kCluster) trace = clusterTrace(seed);

    // Untraced passes until `seconds` have elapsed. Exact metrics must
    // repeat bit for bit across passes; host metrics take the median.
    Pass first;
    std::vector<Metric> exact;
    std::vector<double> setup_s, host_tok_s;
    double rss_mib = 0.0;
    for (int pass = 0; pass == 0 || secondsSince(start) < seconds; ++pass) {
        Pass p = runPass(kind, trace, seed, tr);
        setup_s.push_back(p.setupS);
        host_tok_s.push_back((double)outputTokens(p.main) / p.mainHostS);
        std::vector<Metric> e2e = exactEndToEnd(p, ex.instrs);
        if (pass == 0) {
            // Peak RSS after one pass: the process grows with every pass
            // (README.md, findings), so a later reading would depend on
            // how many passes fit in the run.
            rss_mib = peakRssMib();
            exact = e2e;
            first = std::move(p);
            continue;
        }
        for (size_t i = 0; i < e2e.size(); ++i) {
            report.check(e2e[i].value == exact[i].value,
                         "pass " + std::to_string(pass) + " changed " +
                             e2e[i].name + " on the simulated clock");
        }
    }
    while (setup_s.size() < kMinSetups) {
        auto t0 = SteadyClock::now();
        setUp(kind, tr);
        setup_s.push_back(secondsSince(t0));
    }

    report.attempted =
        (int64_t)(first.main.sent.size() + first.probe.sent.size());
    const int64_t vram = device::rtx4090().vramBytes;
    checkPhase("main phase", first.main, vram, report);
    checkPhase("decode probes", first.probe, vram, report);
    if (kind == Kind::kChat) {
        report.check(first.main.totals.prefixHits == 0,
                     "chat served prompt tokens from the prefix cache");
    }

    for (const Metric& m : exact) report.metrics.push_back(m);
    report.add(Scope::kEndToEnd, "setup_s", median(setup_s), "s",
               Clock::kHost);
    report.add(Scope::kEndToEnd, "host_tok_s", median(host_tok_s), "tok/s",
               Clock::kHost);

    if (!trace_path.empty()) {
        tr.enable(true);
        Pass traced = runPass(kind, trace, seed, tr);
        tr.enable(false);
        reportLayers(traced, fc, ex, median(host_tok_s), tr, report);
        report.check(tr.writeJson(trace_path),
                     "could not write the trace to " + trace_path);
    }
    report.add(Scope::kEndToEnd, "host_rss_mib", rss_mib, "MiB", Clock::kHost);
}

} // namespace perf
