#include "obs/metrics.h"

#include <array>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "common/sync.h"

namespace ansmet::obs {

namespace detail {

/** Formats without locale interference. */
void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
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

} // namespace detail

std::string
Snapshot::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        detail::appendJsonString(out, name);
        out += ": ";
        out += std::to_string(v);
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        detail::appendJsonString(out, name);
        out += ": {\"count\": ";
        out += std::to_string(h.count);
        out += ", \"sum\": ";
        out += std::to_string(h.sum);
        out += ", \"buckets\": [";
        // Trailing zero buckets are elided to keep files compact; the
        // log2 bucket index is implicit in the position.
        std::size_t last = h.buckets.size();
        while (last > 0 && h.buckets[last - 1] == 0)
            --last;
        for (std::size_t i = 0; i < last; ++i) {
            if (i)
                out += ", ";
            out += std::to_string(h.buckets[i]);
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

namespace {

enum class Kind { kCounter, kHistogram };

/** Largest histogram bucket count Registry::histogram() accepts. */
constexpr std::uint32_t kMaxBuckets = 64;

struct MetricInfo
{
    Kind kind;
    std::uint32_t slot;    //!< first shard slot
    std::uint32_t buckets; //!< histogram bucket count (0 for counters)
};

} // namespace

struct Registry::Impl
{
    mutable Mutex mu;
    std::unordered_map<std::string, MetricInfo> metrics
        ANSMET_GUARDED_BY(mu);
    std::vector<std::unique_ptr<detail::Shard>> shards
        ANSMET_GUARDED_BY(mu);
    std::uint32_t nextSlot ANSMET_GUARDED_BY(mu) = 0;

    std::uint32_t
    allocate(std::string_view name, Kind kind, std::uint32_t slots,
             std::uint32_t buckets) ANSMET_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        auto it = metrics.find(std::string(name));
        if (it != metrics.end()) {
            ANSMET_CHECK(it->second.kind == kind &&
                             it->second.buckets == buckets,
                         "obs: metric '", name,
                         "' re-registered with a different kind or shape");
            return it->second.slot;
        }
        ANSMET_CHECK(nextSlot + slots <= detail::kShardSlots,
                     "obs: shard capacity exhausted (",
                     detail::kShardSlots, " slots); raise kShardSlots");
        std::uint32_t slot = nextSlot;
        nextSlot += slots;
        metrics.emplace(std::string(name),
                        MetricInfo{kind, slot, buckets});
        return slot;
    }
};

Registry::Impl &
Registry::impl() const
{
    // NOLINTNEXTLINE(ansmet-rawnew): leaked singleton; atexit-safe.
    static Impl *impl = new Impl;
    return *impl;
}

Registry &
Registry::instance()
{
    // NOLINTNEXTLINE(ansmet-rawnew): leaked singleton; atexit-safe.
    static Registry *reg = new Registry;
    return *reg;
}

namespace detail {

Shard &
newShard()
{
    // Registry-owned so snapshot() sees the shard and the storage
    // outlives the recording thread (handles cache a raw pointer and
    // may flush from atexit handlers after thread teardown).
    Registry::Impl &i = Registry::instance().impl();
    auto shard = std::make_unique<Shard>();
    Shard &ref = *shard;
    MutexLock lock(i.mu);
    i.shards.push_back(std::move(shard));
    return ref;
}

} // namespace detail

Counter
Registry::counter(std::string_view name)
{
    return Counter(impl().allocate(name, Kind::kCounter, 1, 0));
}

Histogram
Registry::histogram(std::string_view name, unsigned buckets)
{
    ANSMET_CHECK(buckets >= 1 && buckets <= kMaxBuckets,
                 "obs: histogram bucket count ", buckets, " out of range");
    std::uint32_t slot = impl().allocate(name, Kind::kHistogram,
                                         buckets + 1, buckets);
    return Histogram(slot, buckets);
}

namespace {

/**
 * Add @p shard's share of histogram @p info into @p h. The bucket and
 * sum slots are copied inside one seqlock window of the shard epoch
 * (even before, unchanged after), and copied again until a window
 * holds, so a sample in flight never splits its bucket from its sum.
 * The window spans only this histogram's slots, which keeps it short;
 * a failed attempt yields so a writer preempted mid-sample can finish.
 */
void
addHistogramShard(const detail::Shard &shard, const MetricInfo &info,
                  HistogramData &h)
{
    std::array<std::uint64_t, kMaxBuckets + 1> copy{};
    for (;;) {
        const std::uint64_t e = shard.epoch.load(std::memory_order_acquire);
        if ((e & 1) == 0) {
            for (std::uint32_t s = 0; s <= info.buckets; ++s)
                copy[s] = shard.slots[info.slot + s].load(
                    std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (shard.epoch.load(std::memory_order_relaxed) == e)
                break;
        }
        std::this_thread::yield();
    }
    for (std::uint32_t b = 0; b < info.buckets; ++b)
        h.buckets[b] += copy[b];
    h.sum += copy[info.buckets];
}

} // namespace

Snapshot
Registry::snapshot() const
{
    Impl &i = impl();
    MutexLock lock(i.mu);

    // A counter is one slot, exact on its own, so it is read outside
    // any window; each histogram is read in its own window per shard.
    Snapshot snap;
    for (const auto &[name, info] : i.metrics) {
        if (info.kind == Kind::kCounter) {
            std::uint64_t v = 0;
            for (const auto &shard : i.shards)
                v += shard->slots[info.slot].load(std::memory_order_relaxed);
            snap.counters[name] = v;
        } else {
            HistogramData h;
            h.buckets.assign(info.buckets, 0);
            for (const auto &shard : i.shards)
                addHistogramShard(*shard, info, h);
            for (std::uint64_t b : h.buckets)
                h.count += b;
            snap.histograms[name] = std::move(h);
        }
    }
    return snap;
}

std::string
Registry::snapshotJson() const
{
    return snapshot().toJson();
}

void
Registry::reset()
{
    Impl &i = impl();
    MutexLock lock(i.mu);
    for (const auto &shard : i.shards)
        for (auto &slot : shard->slots)
            slot.store(0, std::memory_order_relaxed);
}

} // namespace ansmet::obs
