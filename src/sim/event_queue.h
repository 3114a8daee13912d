/**
 * @file
 * Discrete-event simulation core.
 *
 * Time is measured in ticks (picoseconds). Components schedule
 * callbacks at absolute ticks; the queue executes them in (tick,
 * priority, insertion-order) order, which makes runs fully
 * deterministic.
 *
 * Implementation: one binary heap of 24-byte keys (tick, order, slot),
 * where order packs the priority above the insertion sequence, so the
 * whole (tick, priority, insertion) order is one branch-free 128-bit
 * compare. The callbacks live in a free-listed slot table the keys
 * index, so the heap moves keys instead of whole callbacks. Callbacks
 * are InlineFunction (see inline_callback.h): captures beyond
 * kInlineCallbackBytes fail to compile, so the hot loop never touches
 * the allocator once the heap and the table have grown to the run's
 * peak. See DESIGN.md, "Event-queue architecture".
 */

#ifndef ANSMET_SIM_EVENT_QUEUE_H
#define ANSMET_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/inline_callback.h"

namespace ansmet::sim {

/** Event priority: lower values run first within the same tick.
 *  The queue accepts [-32768, 32767]. */
using Priority = int;

constexpr Priority kDefaultPriority = 0;

/** Central event queue driving a simulation. */
class EventQueue
{
  public:
    /** Inline capture budget for event callbacks (compile-enforced). */
    static constexpr std::size_t kInlineCallbackBytes = 48;

    using Callback = InlineFunction<void(), kInlineCallbackBytes>;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** Number of events still pending. */
    std::size_t pending() const { return heap_.size(); }

    /** Schedule @p cb at absolute time @p when (>= now). */
    void
    schedule(Tick when, Callback cb, Priority prio = kDefaultPriority)
    {
        ANSMET_CHECK(when >= now_, "scheduling in the past: ", when,
                     " < ", now_);
        ANSMET_CHECK(prio >= -kPriorityBias && prio < kPriorityBias,
                     "event priority out of range: ", prio);
        ANSMET_DCHECK(seq_ < (std::uint64_t{1} << kSeqBits),
                      "event sequence space exhausted");
        std::uint32_t slot;
        if (free_.empty()) {
            ANSMET_DCHECK(slots_.size() < 0xffffffffu,
                          "event slot space exhausted");
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.push_back(std::move(cb));
        } else {
            slot = free_.back();
            free_.pop_back();
            slots_[slot] = std::move(cb);
        }
        const auto biased = static_cast<std::uint64_t>(prio + kPriorityBias);
        heap_.push_back(Key{when, (biased << kSeqBits) | seq_++, slot});
        std::push_heap(heap_.begin(), heap_.end(), After{});
    }

    /** Schedule @p delta ticks from now. */
    void
    scheduleIn(TickDelta delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /** Run until the queue is empty or @p limit is reached. */
    void
    run(Tick limit = kMaxTick)
    {
        std::uint64_t processed = 0;
        while (!heap_.empty() && heap_.front().when <= limit) {
            now_ = heap_.front().when;
            const std::uint32_t slot = heap_.front().slot;
            std::pop_heap(heap_.begin(), heap_.end(), After{});
            heap_.pop_back();
            Callback cb = std::move(slots_[slot]);
            free_.push_back(slot);
            cb();
            ++processed;
            if ((processed & ((1u << 16) - 1)) == 0)
                depthGauge().set(static_cast<std::int64_t>(pending()));
        }
        if (processed != 0) {
            static obs::Counter events =
                obs::Registry::instance().counter("sim.events");
            events.add(processed);
            depthGauge().set(static_cast<std::int64_t>(pending()));
        }
    }

  private:
    /** Key::order holds the insertion sequence in its low 48 bits and
     *  the priority, biased to be non-negative, in the 16 above. */
    static constexpr unsigned kSeqBits = 48;
    static constexpr Priority kPriorityBias = 0x8000;

    /** Heap entry: full ordering key plus the owning slot (24 B). */
    struct Key
    {
        Tick when;
        std::uint64_t order; //!< biased priority, then insertion seq
        std::uint32_t slot;
    };

    /**
     * a executes after b (max-heap comparator → min at front). A sift
     * picks a child with it at every level, a pick no branch predictor
     * can guess, so it is one 128-bit compare of (when, order), which
     * compiles without branches.
     */
    struct After
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            using U128 = unsigned __int128;
            return ((U128{a.when.raw()} << 64) | a.order) >
                   ((U128{b.when.raw()} << 64) | b.order);
        }
    };

    static obs::Gauge &
    depthGauge()
    {
        static obs::Gauge g =
            obs::Registry::instance().gauge("sim.queue_depth");
        return g;
    }

    std::vector<Key> heap_;
    std::vector<Callback> slots_; //!< callbacks, indexed by Key::slot
    std::vector<std::uint32_t> free_;
    std::uint64_t seq_ = 0;
    Tick now_{};
};

} // namespace ansmet::sim

#endif // ANSMET_SIM_EVENT_QUEUE_H
