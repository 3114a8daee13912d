/**
 * @file
 * Low-overhead metrics registry: process-wide named counters, gauges,
 * and fixed-bucket (log2) histograms.
 *
 * Design constraints (see DESIGN.md, "Observability layer"):
 *  - recording on a hot path is one relaxed atomic add into a
 *    thread-local shard — no locks, no allocation, no contention;
 *  - shards are owned by the registry and merged only on snapshot(),
 *    so concurrent writers never synchronize with each other;
 *  - the whole layer compiles to no-ops under -DANSMET_OBS=OFF
 *    (ANSMET_OBS_DISABLED), and recording never feeds back into any
 *    simulated quantity, so figure output is bitwise identical with
 *    observability on or off.
 *
 * Handles are tiny value types: obtain them once (typically via a
 * function-local static) and record through them ever after:
 *
 *   static obs::Counter c = obs::Registry::instance().counter("x.y");
 *   c.add(n);
 */

#ifndef ANSMET_OBS_METRICS_H
#define ANSMET_OBS_METRICS_H

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#ifndef ANSMET_OBS_DISABLED
#include <array>
#include <atomic>
#endif

namespace ansmet::obs {

/** Merged histogram state: log2 buckets plus a value sum. */
struct HistogramData
{
    /** bucket 0 = value 0; bucket i>=1 = values in [2^(i-1), 2^i),
     *  with the last bucket absorbing everything larger. */
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    double mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    /**
     * Approximate q-quantile (0 < q <= 1) by nearest rank over the
     * log2 buckets, returned as the inclusive upper bound of the
     * bucket holding that rank (0 for the zero bucket, 2^i - 1 for
     * bucket i). For samples below the last bucket's absorption point
     * the estimate e brackets the true sample v as e/2 < v <= e — the
     * log2 error bound the recorder tests assert. Returns 0 when
     * empty.
     */
    [[nodiscard]] std::uint64_t
    quantile(double q) const
    {
        if (count == 0)
            return 0;
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(count)));
        rank = rank < 1 ? 1 : (rank > count ? count : rank);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            seen += buckets[i];
            if (seen >= rank)
                return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
        }
        return 0; // unreachable: count == sum of buckets
    }
};

/** Point-in-time merged view of every registered metric. */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramData> histograms;

    /** Stable, machine-readable JSON rendering. */
    std::string toJson() const;
};

#ifndef ANSMET_OBS_DISABLED

namespace detail {

/** Slots per thread shard; registration past this capacity panics. */
constexpr std::uint32_t kShardSlots = 4096;

struct Shard
{
    // relaxed everywhere: each slot is written by exactly one thread
    // (the shard owner) and merged by snapshot() under the registry
    // mutex. Single-slot metrics (counters) are exact in any snapshot
    // on their own; multi-slot updates (a histogram sample touches a
    // bucket slot and the sum slot) are bracketed by `epoch` so
    // snapshot() can detect and retry past a mid-sample read instead
    // of tearing bucket against sum.
    std::array<std::atomic<std::uint64_t>, kShardSlots> slots{};

    // Seqlock-style write epoch: odd while the shard owner is inside a
    // multi-slot update. Counters skip it (their one fetch_add is
    // atomic on its own), so the common hot path stays a single RMW.
    std::atomic<std::uint64_t> epoch{0};
};

/** Allocate this thread's shard and register it (metrics.cc). */
Shard &newShard();

inline Shard &
shard()
{
    thread_local Shard *s = &newShard();
    return *s;
}

} // namespace detail

/** Monotonic event counter (per-thread sharded). */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t n)
    {
        detail::shard().slots[slot_].fetch_add(n,
                                               std::memory_order_relaxed);
    }
    void inc() { add(1); }

  private:
    friend class Registry;
    explicit Counter(std::uint32_t slot) : slot_(slot) {}
    std::uint32_t slot_ = 0;
};

/**
 * Last-value metric (queue depths, configuration echoes). Stored as a
 * single registry-owned atomic: set/add are rare relative to counter
 * traffic and need cross-thread last-writer semantics, not merging.
 * relaxed: a gauge value orders nothing else; last-writer-wins with
 * atomicity is the whole contract.
 */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(std::int64_t v)
    {
        if (cell_)
            cell_->store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t d)
    {
        if (cell_)
            cell_->fetch_add(d, std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    explicit Gauge(std::atomic<std::int64_t> *cell) : cell_(cell) {}
    std::atomic<std::int64_t> *cell_ = nullptr;
};

/** Fixed-bucket log2 histogram (per-thread sharded). */
class Histogram
{
  public:
    Histogram() = default;

    void
    sample(std::uint64_t v)
    {
        detail::Shard &s = detail::shard();
        // Seqlock write side: the entry increment is acq_rel so the
        // slot adds cannot appear before it, the exit increment is
        // release so they cannot appear after it; the adds themselves
        // stay relaxed. snapshot() re-reads any histogram window that
        // catches an odd or moving epoch.
        s.epoch.fetch_add(1, std::memory_order_acq_rel);
        s.slots[first_ + bucketOf(v)].fetch_add(
            1, std::memory_order_relaxed);
        s.slots[first_ + buckets_].fetch_add(v,
                                             std::memory_order_relaxed);
        s.epoch.fetch_add(1, std::memory_order_release);
    }

  private:
    friend class Registry;
    Histogram(std::uint32_t first, std::uint32_t buckets)
        : first_(first), buckets_(buckets)
    {
    }

    std::uint32_t
    bucketOf(std::uint64_t v) const
    {
        if (v == 0)
            return 0;
        std::uint32_t w = 0;
        while (v != 0) {
            ++w;
            v >>= 1;
        }
        return w < buckets_ ? w : buckets_ - 1;
    }

    std::uint32_t first_ = 0;   //!< bucket slots, then one sum slot
    std::uint32_t buckets_ = 1;
};

/** Process-wide metric registry. */
class Registry
{
  public:
    /** The singleton (leaky; safe from atexit handlers). */
    static Registry &instance();

    /**
     * Register (or fetch) a metric by name. Idempotent: the same name
     * always returns a handle to the same storage; re-registering a
     * name as a different metric kind panics.
     */
    Counter counter(std::string_view name);
    Gauge gauge(std::string_view name);
    Histogram histogram(std::string_view name, unsigned buckets = 40);

    /** Merge all shards into one view. Concurrent recording is
     *  allowed: each counter is read atomically, and each histogram's
     *  buckets and sum are read together, never torn. */
    Snapshot snapshot() const;

    /** snapshot().toJson() convenience. */
    std::string snapshotJson() const;

    /**
     * Zero every slot and gauge (tests and run-scoped collection).
     * Racy against concurrent writers by design — callers quiesce
     * recording threads first.
     */
    void reset();

    ~Registry() = delete;

  private:
    friend detail::Shard &detail::newShard();
    Registry() = default;
    struct Impl;
    Impl &impl() const;
};

#else // ANSMET_OBS_DISABLED ------------------------------------------

class Counter
{
  public:
    void add(std::uint64_t) {}
    void inc() {}
};

class Gauge
{
  public:
    void set(std::int64_t) {}
    void add(std::int64_t) {}
};

class Histogram
{
  public:
    void sample(std::uint64_t) {}
};

class Registry
{
  public:
    static Registry &
    instance()
    {
        static Registry r;
        return r;
    }

    Counter counter(std::string_view) { return {}; }
    Gauge gauge(std::string_view) { return {}; }
    Histogram histogram(std::string_view, unsigned = 40) { return {}; }
    Snapshot snapshot() const { return {}; }
    std::string snapshotJson() const { return "{}"; }
    void reset() {}
};

#endif // ANSMET_OBS_DISABLED

} // namespace ansmet::obs

#endif // ANSMET_OBS_METRICS_H
