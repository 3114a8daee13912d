#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace ansmet::obs {

namespace {

constexpr std::uint64_t kDefaultEventLimit = 2'000'000;

struct Event
{
    enum class Type : std::uint8_t { kSpan, kCounter, kMeta };
    Type type;
    std::string name;
    std::uint32_t pid;
    std::uint32_t tid;
    Tick start;
    Tick end;         // spans only
    std::int64_t value; // counters only
    std::vector<std::pair<std::string, std::int64_t>> args;
};

/** Ticks are picoseconds; trace_event "ts"/"dur" are microseconds. */
double
us(Tick t)
{
    return static_cast<double>(t.raw()) / 1e6;
}

double
us(TickDelta d)
{
    return static_cast<double>(d.raw()) / 1e6;
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    out += buf;
}

} // namespace

struct TraceWriter::Impl
{
    Mutex mu;
    // path/limit are written once in the TraceWriter constructor
    // (inside the static-init guard, before any recording call can
    // exist) and read-only afterwards.
    std::string path;
    std::uint64_t limit = kDefaultEventLimit;
    std::vector<Event> events ANSMET_GUARDED_BY(mu);
    // Overflow tally. relaxed: monotonic counter read only for
    // reporting; no other data is ordered by it.
    std::atomic<std::uint64_t> dropped{0};
    // The run scope events are stamped with. Atomic rather than
    // mu-guarded: event builders read it before taking mu (the
    // annotation retrofit caught this as an unlocked read). relaxed:
    // beginRun happens-before the events of its run via the caller's
    // sequencing; cross-thread stamping tolerates last-writer-wins.
    std::atomic<std::uint32_t> currentPid{0};
    std::uint32_t nextPid ANSMET_GUARDED_BY(mu) = 1;

    std::uint32_t
    pid() const
    {
        return currentPid.load(std::memory_order_relaxed);
    }

    bool
    push(Event e) ANSMET_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        if (events.size() >= limit) {
            dropped.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        events.push_back(std::move(e));
        return true;
    }
};

TraceWriter::Impl &
TraceWriter::impl() const
{
    // NOLINTNEXTLINE(ansmet-rawnew): leaked singleton; atexit-safe.
    static Impl *impl = new Impl;
    return *impl;
}

TraceWriter::TraceWriter()
{
    // Read-only config knob, queried once under the static-init guard.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): nothing mutates the env.
    const char *path = std::getenv("ANSMET_TRACE");
    if (path == nullptr || *path == '\0')
        return;
    Impl &i = impl();
    i.path = path;
    // Read-only config knob, queried once under the static-init guard.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): nothing mutates the env.
    if (const char *lim = std::getenv("ANSMET_TRACE_LIMIT")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(lim, &end, 10);
        if (end != lim && v > 0)
            i.limit = v;
    }
    enabled_ = true;
    std::atexit([] { TraceWriter::instance().flush(); });
}

TraceWriter &
TraceWriter::instance()
{
    // NOLINTNEXTLINE(ansmet-rawnew): leaked singleton; atexit-safe.
    static TraceWriter *writer = new TraceWriter;
    return *writer;
}

void
TraceWriter::beginRun(std::string_view name)
{
    if (!enabled_)
        return;
    Impl &i = impl();
    std::uint32_t pid;
    {
        MutexLock lock(i.mu);
        pid = i.nextPid++;
        i.currentPid.store(pid, std::memory_order_relaxed);
    }
    Event e;
    e.type = Event::Type::kMeta;
    e.name = "process_name";
    e.pid = pid;
    e.tid = 0;
    e.start = Tick{};
    e.args.emplace_back("name", 0);
    // Metadata carries a string arg; reuse the name field of a second
    // slot to avoid widening TraceArg for this one case.
    e.args.back().first = std::string(name);
    i.push(std::move(e));
}

void
TraceWriter::span(std::string_view name, std::uint32_t tid, Tick start,
                  Tick end, const TraceArg *args, std::size_t numArgs)
{
    if (!enabled_)
        return;
    ANSMET_DCHECK(end >= start, "obs: span '", name,
                  "' ends before it starts");
    Impl &i = impl();
    Event e;
    e.type = Event::Type::kSpan;
    e.name = std::string(name);
    e.pid = i.pid();
    e.tid = tid;
    e.start = start;
    e.end = end;
    for (std::size_t a = 0; a < numArgs; ++a)
        e.args.emplace_back(std::string(args[a].key), args[a].value);
    i.push(std::move(e));
}

void
TraceWriter::counter(std::string_view name, std::uint32_t tid, Tick when,
                     std::int64_t value)
{
    if (!enabled_)
        return;
    Impl &i = impl();
    Event e;
    e.type = Event::Type::kCounter;
    e.name = std::string(name);
    e.pid = i.pid();
    e.tid = tid;
    e.start = when;
    e.value = value;
    i.push(std::move(e));
}

std::uint64_t
TraceWriter::dropped() const
{
    return impl().dropped.load(std::memory_order_relaxed);
}

void
TraceWriter::flush()
{
    if (!enabled_)
        return;
    Impl &i = impl();
    // Snapshot before taking mu: no code path holds one lock while
    // acquiring another (the registry locks its own mutex).
    const std::string metrics = Registry::instance().snapshotJson();
    MutexLock lock(i.mu);

    std::string out;
    out.reserve(i.events.size() * 96 + 4096);
    out += "{\"traceEvents\":[\n";
    bool first = true;
    for (const Event &e : i.events) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\":";
        appendJsonString(out, e.name);
        out += ",\"pid\":";
        out += std::to_string(e.pid);
        out += ",\"tid\":";
        out += std::to_string(e.tid);
        switch (e.type) {
        case Event::Type::kSpan:
            out += ",\"ph\":\"X\",\"ts\":";
            appendDouble(out, us(e.start));
            out += ",\"dur\":";
            appendDouble(out, us(e.end - e.start));
            if (!e.args.empty()) {
                out += ",\"args\":{";
                for (std::size_t a = 0; a < e.args.size(); ++a) {
                    if (a)
                        out += ",";
                    appendJsonString(out, e.args[a].first);
                    out += ":";
                    out += std::to_string(e.args[a].second);
                }
                out += "}";
            }
            break;
        case Event::Type::kCounter:
            out += ",\"ph\":\"C\",\"ts\":";
            appendDouble(out, us(e.start));
            out += ",\"args\":{\"value\":";
            out += std::to_string(e.value);
            out += "}";
            break;
        case Event::Type::kMeta:
            out += ",\"ph\":\"M\",\"ts\":0,\"args\":{\"name\":";
            appendJsonString(out, e.args.empty() ? std::string_view{}
                                                 : e.args[0].first);
            out += "}";
            break;
        }
        out += "}";
    }
    out += "\n],\n\"otherData\":{\"droppedEvents\":";
    out += std::to_string(i.dropped.load(std::memory_order_relaxed));
    out += "},\n\"metrics\":";
    out += metrics;
    out += "}\n";

    std::FILE *f = std::fopen(i.path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr,
                     "ansmet: cannot open ANSMET_TRACE path '%s'\n",
                     i.path.c_str());
        return;
    }
    // Both calls can fail (a full disk shows only at fclose, once the
    // stdio buffer drains); either loses the trace.
    const bool written =
        std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (std::fclose(f) != 0 || !written) {
        std::fprintf(stderr,
                     "ansmet: cannot write ANSMET_TRACE path '%s'\n",
                     i.path.c_str());
    }
}

} // namespace ansmet::obs
