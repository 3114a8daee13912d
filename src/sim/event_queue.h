/**
 * @file
 * Discrete-event simulation core.
 *
 * Time is measured in ticks (picoseconds). Components schedule
 * callbacks at absolute ticks; the queue executes them in (tick,
 * priority, insertion-order) order, which makes runs fully
 * deterministic.
 *
 * Implementation: a calendar queue tuned for the DRAM timing model,
 * where almost every schedule is a short scheduleIn() delta. Time is
 * divided into fixed "days" of 2^kDayShift ticks, tracked by three
 * tiers that together always hold the earliest pending event at the
 * front of `cur_heap_`:
 *
 *  - cur_heap_: a small binary heap of events due on or before the
 *    current day, ordered by (tick, priority, insertion seq);
 *  - a ring of kNumBuckets per-day buckets (plain vectors of event
 *    slots, unordered) for events within the horizon, with an occupancy
 *    bitmap so advancing to the next non-empty day is a word scan;
 *  - overflow_: a binary heap for events beyond the horizon, migrated
 *    into the ring as the current day advances past their distance.
 *
 * Every pending event lives in a slot of a pooled table; handles are
 * (generation << 32 | slot), which makes deschedule() an O(1)
 * tombstone write instead of the old cancelled-list scan, and lets the
 * heaps/buckets move 24-byte keys instead of whole callbacks.
 * Callbacks are InlineFunction (see inline_callback.h): captures
 * beyond kInlineCallbackBytes fail to compile, so the hot loop never
 * touches the allocator. See DESIGN.md, "Event-queue architecture".
 */

#ifndef ANSMET_SIM_EVENT_QUEUE_H
#define ANSMET_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/inline_callback.h"

namespace ansmet::sim {

/** Event priority: lower values run first within the same tick. */
using Priority = int;

constexpr Priority kDefaultPriority = 0;

/** Central event queue driving a simulation. */
class EventQueue
{
  public:
    /** Inline capture budget for event callbacks (compile-enforced). */
    static constexpr std::size_t kInlineCallbackBytes = 48;

    using Callback = InlineFunction<void(), kInlineCallbackBytes>;

    /** Ticks per calendar day; DRAM-model deltas span a few days. */
    static constexpr unsigned kDayShift = 10;
    /** Ring size (days); must be a power of two. */
    static constexpr std::size_t kNumBuckets = 4096;
    /** Events scheduled further than this go to the overflow tier. */
    static constexpr TickDelta kHorizonTicks{
        static_cast<std::uint64_t>(kNumBuckets) << kDayShift};

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** Number of events still pending (descheduled ones excluded). */
    std::size_t pending() const { return live_; }

    /**
     * Schedule @p cb at absolute time @p when (>= now), fire-and-
     * forget. Use scheduleCancelable() when the event may need to be
     * descheduled — only that variant hands out a handle, and its
     * result is [[nodiscard]]: a dropped handle means the event can
     * never be cancelled again.
     */
    void
    schedule(Tick when, Callback cb, Priority prio = kDefaultPriority)
    {
        static_cast<void>(
            scheduleCancelable(when, std::move(cb), prio));
    }

    /**
     * Schedule @p cb at absolute time @p when (>= now).
     * @return a handle usable with deschedule(); must not be
     *         discarded (use schedule() for fire-and-forget events).
     */
    [[nodiscard]] std::uint64_t
    scheduleCancelable(Tick when, Callback cb,
                       Priority prio = kDefaultPriority)
    {
        ANSMET_CHECK(when >= now_, "scheduling in the past: ", when,
                     " < ", now_);
        std::uint32_t slot;
        if (free_.empty()) {
            ANSMET_DCHECK(slots_.size() < 0xffffffffu,
                          "event slot space exhausted");
            slots_.emplace_back();
            slot = static_cast<std::uint32_t>(slots_.size() - 1);
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        EventRec &r = slots_[slot];
        r.cb = std::move(cb);
        r.when = when;
        r.seq = seq_++;
        r.prio = prio;
        r.dead = false;
        ++live_;
        place(Key{when, r.seq, slot, prio});
        return (static_cast<std::uint64_t>(r.gen) << 32) | slot;
    }

    /** Schedule @p delta ticks from now, fire-and-forget. */
    void
    scheduleIn(TickDelta delta, Callback cb,
               Priority prio = kDefaultPriority)
    {
        schedule(now_ + delta, std::move(cb), prio);
    }

    /** Schedule @p delta ticks from now; returns a deschedule handle. */
    [[nodiscard]] std::uint64_t
    scheduleInCancelable(TickDelta delta, Callback cb,
                         Priority prio = kDefaultPriority)
    {
        return scheduleCancelable(now_ + delta, std::move(cb), prio);
    }

    /**
     * Cancel a pending event by handle: an O(1) tombstone write. A
     * handle whose event already executed is a benign no-op (the slot
     * generation has moved on).
     */
    void
    deschedule(std::uint64_t id)
    {
        const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
        const auto gen = static_cast<std::uint32_t>(id >> 32);
        ANSMET_DCHECK(slot < slots_.size(),
                      "descheduling unknown handle ", id);
        if (slot >= slots_.size())
            return;
        EventRec &r = slots_[slot];
        if (r.gen != gen || r.dead)
            return; // already executed or already descheduled
        r.dead = true;
        r.cb = nullptr; // release captured resources eagerly
        --live_;
    }

    /** Run until the queue is empty or @p limit is reached. */
    void
    run(Tick limit = kMaxTick)
    {
        std::uint64_t processed = 0;
        for (;;) {
            const Key *top = front();
            if (top == nullptr || top->when > limit)
                break;
            ANSMET_DCHECK(top->when >= now_,
                          "event queue time ran backwards: ", top->when,
                          " < ", now_);
            now_ = top->when;
            const std::uint32_t slot = top->slot;
            Callback cb = std::move(slots_[slot].cb);
            heapPop(cur_heap_);
            releaseSlot(slot);
            --live_;
            cb();
            ++processed;
            if ((processed & ((1u << 16) - 1)) == 0)
                depthGauge().set(static_cast<std::int64_t>(live_));
        }
        if (processed != 0) {
            static obs::Counter events =
                obs::Registry::instance().counter("sim.events");
            events.add(processed);
            depthGauge().set(static_cast<std::int64_t>(live_));
        }
    }

    /** Execute exactly one event; returns false if none pending. */
    bool
    step()
    {
        const Key *top = front();
        if (top == nullptr)
            return false;
        ANSMET_DCHECK(top->when >= now_,
                      "event queue time ran backwards: ", top->when, " < ",
                      now_);
        now_ = top->when;
        const std::uint32_t slot = top->slot;
        Callback cb = std::move(slots_[slot].cb);
        heapPop(cur_heap_);
        releaseSlot(slot);
        --live_;
        cb();
        return true;
    }

    /** Reset to an empty queue at time zero. */
    void
    reset()
    {
        slots_.clear();
        free_.clear();
        cur_heap_.clear();
        overflow_.clear();
        for (auto &b : buckets_)
            b.clear();
        occupied_.fill(0);
        ring_count_ = 0;
        cur_day_ = 0;
        seq_ = 0;
        live_ = 0;
        now_ = Tick{};
    }

  private:
    /** Pooled per-event state; `slot` indexes into slots_. */
    struct EventRec
    {
        Callback cb;
        Tick when{};
        std::uint64_t seq = 0;   //!< global insertion order
        std::uint32_t gen = 0;   //!< bumped on release; part of handle
        Priority prio = 0;
        bool dead = false;       //!< descheduled, not yet reaped
    };

    /** Heap entry: full ordering key plus the owning slot (24 B). */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        Priority prio;
    };

    /** a executes after b (max-heap comparator → min at front). */
    struct After
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    static void
    heapPush(std::vector<Key> &h, const Key &k)
    {
        h.push_back(k);
        std::push_heap(h.begin(), h.end(), After{});
    }

    static void
    heapPop(std::vector<Key> &h)
    {
        std::pop_heap(h.begin(), h.end(), After{});
        h.pop_back();
    }

    /** File @p k into the tier its day belongs to. */
    void
    place(const Key &k)
    {
        const std::uint64_t day = k.when.raw() >> kDayShift;
        if (day <= cur_day_) {
            // Current (or, after a bounded run(), an already-passed)
            // day: must be visible to the next front() immediately.
            heapPush(cur_heap_, k);
        } else if (day - cur_day_ < kNumBuckets) {
            const std::size_t idx = day & (kNumBuckets - 1);
            buckets_[idx].push_back(k.slot);
            occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            ++ring_count_;
        } else {
            heapPush(overflow_, k);
        }
    }

    /**
     * Earliest live event, advancing the calendar as needed; null iff
     * the queue is empty. Dead (descheduled) events are reaped here.
     */
    const Key *
    front()
    {
        for (;;) {
            while (!cur_heap_.empty()) {
                const Key &top = cur_heap_.front();
                if (!slots_[top.slot].dead)
                    return &cur_heap_.front();
                releaseSlot(top.slot);
                heapPop(cur_heap_);
            }
            if (!advanceDay())
                return nullptr;
        }
    }

    /** Move the calendar to the next day holding events, if any. */
    bool
    advanceDay()
    {
        if (ring_count_ > 0) {
            adoptDay(nextOccupiedDay());
            return true;
        }
        if (overflow_.empty())
            return false;
        // Ring empty: jump straight to the earliest overflow day and
        // pull everything newly within the horizon back in.
        ANSMET_DCHECK((overflow_.front().when.raw() >> kDayShift) >=
                          cur_day_,
                      "overflow event behind the calendar");
        cur_day_ = overflow_.front().when.raw() >> kDayShift;
        migrateOverflow();
        return true;
    }

    /** Move day @p day's bucket into cur_heap_ and advance the ring. */
    void
    adoptDay(std::uint64_t day)
    {
        cur_day_ = day;
        const std::size_t idx = day & (kNumBuckets - 1);
        std::vector<std::uint32_t> &b = buckets_[idx];
        for (const std::uint32_t slot : b) {
            const EventRec &r = slots_[slot];
            if (r.dead)
                releaseSlot(slot);
            else
                cur_heap_.push_back(Key{r.when, r.seq, slot, r.prio});
        }
        ring_count_ -= b.size();
        b.clear(); // keeps capacity: steady state stops allocating
        occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        std::make_heap(cur_heap_.begin(), cur_heap_.end(), After{});
        migrateOverflow();
    }

    /** Ring-index bitmap scan for the next occupied day > cur_day_.
     *  Precondition: ring_count_ > 0 (a hit is guaranteed within one
     *  lap because occupied days all lie inside the horizon). */
    std::uint64_t
    nextOccupiedDay() const
    {
        std::uint64_t d = cur_day_ + 1;
        for (;;) {
            const std::size_t idx = d & (kNumBuckets - 1);
            const std::size_t bit = idx & 63;
            const std::uint64_t word =
                occupied_[idx >> 6] & (~std::uint64_t{0} << bit);
            if (word != 0) {
                return d + (static_cast<std::uint64_t>(
                                std::countr_zero(word)) -
                            bit);
            }
            d += 64 - bit;
            ANSMET_DCHECK(d - cur_day_ <= kNumBuckets + 64,
                          "calendar bitmap lost an occupied bucket");
        }
    }

    /** Pull every overflow event now within the horizon into the ring
     *  (or cur_heap_, for the day just adopted). */
    void
    migrateOverflow()
    {
        while (!overflow_.empty() &&
               (overflow_.front().when.raw() >> kDayShift) - cur_day_ <
                   kNumBuckets) {
            const Key k = overflow_.front();
            heapPop(overflow_);
            place(k);
        }
    }

    void
    releaseSlot(std::uint32_t slot)
    {
        EventRec &r = slots_[slot];
        r.cb = nullptr;
        ++r.gen; // invalidates outstanding handles to this slot
        free_.push_back(slot);
    }

    static obs::Gauge &
    depthGauge()
    {
        static obs::Gauge g =
            obs::Registry::instance().gauge("sim.queue_depth");
        return g;
    }

    std::vector<EventRec> slots_;
    std::vector<std::uint32_t> free_;
    std::vector<Key> cur_heap_;  //!< events due on/before cur_day_
    std::vector<Key> overflow_;  //!< events beyond the horizon
    std::array<std::vector<std::uint32_t>, kNumBuckets> buckets_;
    std::array<std::uint64_t, kNumBuckets / 64> occupied_{};
    std::size_t ring_count_ = 0; //!< events resident in the ring
    std::uint64_t cur_day_ = 0;
    std::uint64_t seq_ = 0;
    std::size_t live_ = 0;
    Tick now_{};
};

/**
 * Base class for components that operate on a fixed clock. Provides
 * cycle<->tick conversion helpers relative to the component's period.
 */
class Clocked
{
  public:
    Clocked(EventQueue &eq, TickDelta period) : eq_(eq), period_(period)
    {
        ANSMET_CHECK(period > TickDelta{},
                     "clocked component with zero period");
    }

    virtual ~Clocked() = default;

    TickDelta period() const { return period_; }
    Tick now() const { return eq_.now(); }

    /** The tick of the next clock edge at or after now. */
    Tick
    nextEdge() const
    {
        const Tick t = eq_.now();
        return roundUpTick(t);
    }

    /** Convert a cycle count to a span of ticks. */
    TickDelta
    cyclesToTicks(std::uint64_t cycles) const
    {
        return cycles * period_;
    }

    /** Convert a span of ticks to whole cycles (rounding up). */
    std::uint64_t
    ticksToCycles(TickDelta t) const
    {
        return (t.raw() + period_.raw() - 1) / period_.raw();
    }

    EventQueue &eventQueue() { return eq_; }

  protected:
    Tick
    roundUpTick(Tick t) const
    {
        const std::uint64_t p = period_.raw();
        return Tick{(t.raw() + p - 1) / p * p};
    }

  private:
    EventQueue &eq_;
    TickDelta period_;
};

} // namespace ansmet::sim

#endif // ANSMET_SIM_EVENT_QUEUE_H
