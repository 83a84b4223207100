/**
 * @file
 * Benchmark-side host spans. Every call the benchmark makes into a layer
 * of the stack can run inside Tracer::span(), which records the call's
 * name, layer, wall-clock start and end, the span it ran inside and the
 * request it serves. Spans stay in memory and are written once, as
 * Chrome/Perfetto JSON, when the run ends. A disabled tracer costs one
 * branch per call, so the end-to-end passes run with it off.
 */
#ifndef RELAX_PERF_TRACER_H_
#define RELAX_PERF_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perf {

class Tracer
{
  public:
    struct Span
    {
        const char* layer;
        const char* name;
        double startUs;
        double endUs;
        int64_t parent; //!< index of the enclosing span, -1 at the root
        int64_t request; //!< request index, -1 when the call serves none
    };

    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }
    const std::vector<Span>& spans() const { return spans_; }

    /** Runs `fn`, recording it as one span when tracing is on. */
    template <class Fn>
    decltype(auto)
    span(const char* layer, const char* name, int64_t request, Fn&& fn)
    {
        if (!on_) return fn();
        Scope scope(*this, layer, name, request);
        return fn();
    }

    /**
     * Host seconds each layer spent in its own spans, excluding the
     * spans nested inside them (a layer's self time).
     */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> children(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) children[s.parent] += s.endUs - s.startUs;
        }
        std::map<std::string, double> self;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            self[s.layer] += (s.endUs - s.startUs - children[i]) / 1e6;
        }
        return self;
    }

    /** Writes the spans as a Perfetto-loadable trace; false on I/O error. */
    bool
    writeJson(const std::string& path) const
    {
        FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                         "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"span\":%zu,\"parent\":%lld,\"request\":%lld}}\n",
                         i ? "," : "", s.name, s.layer, s.startUs,
                         s.endUs - s.startUs, i, (long long)s.parent,
                         (long long)s.request);
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    using SteadyClock = std::chrono::steady_clock;

    /** Opens a span on construction and closes it on destruction, so a
     *  call that throws still leaves a well-nested trace. */
    class Scope
    {
      public:
        Scope(Tracer& t, const char* layer, const char* name,
              int64_t request)
            : t_(t), index_(t.spans_.size())
        {
            int64_t parent = t.open_.empty() ? -1 : t.open_.back();
            t.spans_.push_back({layer, name, t.nowUs(), 0.0, parent, request});
            t.open_.push_back((int64_t)index_);
        }
        ~Scope()
        {
            t_.spans_[index_].endUs = t_.nowUs();
            t_.open_.pop_back();
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& t_;
        size_t index_;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                         origin_)
            .count();
    }

    bool on_ = false;
    SteadyClock::time_point origin_ = SteadyClock::now();
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

} // namespace perf

#endif // RELAX_PERF_TRACER_H_
