#include "span_trace.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>

#include "common/json_writer.hh"
#include "common/logging.hh"

namespace damq {
namespace perf {

namespace {

/** One hot span in this many is kept for the written trace. */
constexpr std::uint64_t kKeepOneIn = 64;

} // namespace

SpanTrace::SpanTrace() : origin(Clock::now()) {}

SpanTrace::NameId
SpanTrace::name(const char *text)
{
    for (NameId id = 0; id < names.size(); ++id)
        if (std::strcmp(names[id].text, text) == 0)
            return id;
    names.emplace_back();
    names.back().text = text;
    return static_cast<NameId>(names.size() - 1);
}

const TailHistogram &
SpanTrace::histogram(const char *text) const
{
    static const TailHistogram empty;
    for (const Name &n : names)
        if (std::strcmp(n.text, text) == 0)
            return n.durations;
    return empty;
}

void
SpanTrace::setConfigName(std::int32_t config_id, std::string label)
{
    const auto index = static_cast<std::size_t>(config_id);
    if (configNames.size() <= index)
        configNames.resize(index + 1);
    configNames[index] = std::move(label);
}

void
SpanTrace::open(const char *text, std::int32_t config_id)
{
    const std::int32_t parent = stack.empty() ? -1 : stack.back().span;
    const std::int64_t now = sinceOrigin(Clock::now());
    spans.push_back(Span{name(text), config_id, parent, now, now});
    stack.push_back(Open{static_cast<std::int32_t>(spans.size() - 1)});
}

void
SpanTrace::close()
{
    damq_assert(!stack.empty(), "SpanTrace::close without open span");
    const Open top = stack.back();
    stack.pop_back();
    Span &span = spans[static_cast<std::size_t>(top.span)];
    span.endNs = sinceOrigin(Clock::now());
    const std::int64_t dur = span.endNs - span.startNs;
    Name &n = names[span.name];
    ++n.count;
    n.totalNs += dur;
    n.selfNs += dur - top.childNs;
    n.durations.add(static_cast<double>(dur));
    if (!stack.empty())
        stack.back().childNs += dur;
}

void
SpanTrace::hot(NameId id, std::int32_t config_id, Clock::time_point start,
               Clock::time_point end)
{
    const std::int64_t dur = nsBetween(start, end);
    Name &n = names[id];
    ++n.count;
    n.totalNs += dur;
    n.selfNs += dur;
    n.durations.add(static_cast<double>(dur));
    if (!stack.empty())
        stack.back().childNs += dur;
    if (n.hotSeen++ % kKeepOneIn == 0) {
        const std::int32_t parent =
            stack.empty() ? -1 : stack.back().span;
        spans.push_back(Span{id, config_id, parent, sinceOrigin(start),
                             sinceOrigin(end)});
    }
}

void
SpanTrace::printSelfTimes(std::ostream &out) const
{
    std::vector<NameId> order(names.size());
    for (NameId id = 0; id < names.size(); ++id)
        order[id] = id;
    std::sort(order.begin(), order.end(), [this](NameId a, NameId b) {
        return names[a].selfNs > names[b].selfNs;
    });
    out << "  " << std::left << std::setw(28) << "span" << std::right
        << std::setw(12) << "calls" << std::setw(14) << "total ms"
        << std::setw(14) << "self ms" << std::setw(14) << "self/call us"
        << "\n";
    for (const NameId id : order) {
        const Name &n = names[id];
        if (n.count == 0)
            continue;
        out << "  " << std::left << std::setw(28) << n.text << std::right
            << std::setw(12) << n.count << std::fixed
            << std::setprecision(3) << std::setw(14) << n.totalNs / 1e6
            << std::setw(14) << n.selfNs / 1e6 << std::setw(14)
            << n.selfNs / 1e3 / static_cast<double>(n.count) << "\n";
        out.unsetf(std::ios::floatfield);
    }
}

void
SpanTrace::writeChromeTrace(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        damq_fatal("cannot open trace file ", path, " for writing");
    JsonWriter json(file);
    json.beginObject();
    json.field("displayTimeUnit", "ns");
    json.key("traceEvents");
    json.beginArray();
    // One trace row per config; spans of no single config go to row 0.
    for (std::size_t i = 0; i < configNames.size(); ++i) {
        json.beginObject();
        json.field("name", "thread_name");
        json.field("ph", "M");
        json.field("pid", 1);
        json.field("tid", static_cast<std::int64_t>(i + 1));
        json.key("args");
        json.beginObject();
        json.field("name", configNames[i]);
        json.endObject();
        json.endObject();
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        json.beginObject();
        json.field("name", names[span.name].text);
        json.field("cat", "perf");
        json.field("ph", "X");
        json.field("ts", static_cast<double>(span.startNs) / 1e3);
        json.field("dur",
                   static_cast<double>(span.endNs - span.startNs) / 1e3);
        json.field("pid", 1);
        json.field("tid", static_cast<std::int64_t>(span.config + 1));
        json.key("args");
        json.beginObject();
        json.field("id", static_cast<std::int64_t>(i));
        json.field("parent", static_cast<std::int64_t>(span.parent));
        json.field("config", static_cast<std::int64_t>(span.config));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
}

} // namespace perf
} // namespace damq
