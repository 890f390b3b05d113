/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * Spans are opened and closed around the calls the benchmark makes
 * into each layer, nest LIFO, and carry the id of the config (one
 * simulation) they belong to.  Per-cycle calls are too many to keep:
 * they are recorded as hot spans, aggregated into their name's
 * histogram and kept as a span one time in 64.  Every span, kept or
 * not, charges its duration to its parent, so self time (duration
 * minus the time covered by child spans) is exact.  Spans are
 * written once, at exit, as Chrome-trace JSON.
 */

#ifndef DAMQ_BENCH_PERF_SPAN_TRACE_HH
#define DAMQ_BENCH_PERF_SPAN_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "perf.hh"
#include "stats/tail_histogram.hh"

namespace damq {
namespace perf {

class SpanTrace
{
  public:
    using NameId = std::uint32_t;

    /** Config id of spans that belong to no single config. */
    static constexpr std::int32_t kNoConfig = -1;

    SpanTrace();

    /** Intern @p name (a string literal that outlives the trace). */
    NameId name(const char *name);

    /** Label config @p config_id in the written trace. */
    void setConfigName(std::int32_t config_id, std::string label);

    /** Open a span nested in the innermost open one. */
    void open(const char *name, std::int32_t config_id);

    /** Close the innermost open span. */
    void close();

    /** Record a completed per-cycle span under the innermost open
     *  span: aggregated always, kept one time in 64. */
    void hot(NameId name, std::int32_t config_id, Clock::time_point start,
             Clock::time_point end);

    /** Histogram of the durations of spans named @p name, in ns
     *  (empty when no such span was recorded). */
    const TailHistogram &histogram(const char *name) const;

    /** Total, self time and count per span name, largest first. */
    void printSelfTimes(std::ostream &out) const;

    /** Write the kept spans as Chrome-trace JSON to @p path. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Name
    {
        const char *text = nullptr;
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
        std::uint64_t hotSeen = 0;
        TailHistogram durations;
    };

    struct Span
    {
        NameId name;
        std::int32_t config;
        std::int32_t parent; ///< index into spans, or -1
        std::int64_t startNs;
        std::int64_t endNs;
    };

    struct Open
    {
        std::int32_t span;
        std::int64_t childNs = 0;
    };

    std::int64_t sinceOrigin(Clock::time_point t) const
    {
        return nsBetween(origin, t);
    }

    Clock::time_point origin;
    std::vector<Name> names;
    std::vector<Span> spans;
    std::vector<Open> stack;
    std::vector<std::string> configNames;
};

/** Opens a span for its scope; does nothing without a trace. */
class SpanScope
{
  public:
    SpanScope(SpanTrace *trace, const char *name, std::int32_t config_id)
        : trace(trace)
    {
        if (trace)
            trace->open(name, config_id);
    }
    ~SpanScope()
    {
        if (trace)
            trace->close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanTrace *trace;
};

} // namespace perf
} // namespace damq

#endif // DAMQ_BENCH_PERF_SPAN_TRACE_HH
