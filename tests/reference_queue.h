/**
 * @file
 * The event queue's execution order, kept as an executable
 * specification: a single `std::priority_queue` over (tick, priority,
 * insertion-order) with `std::function` callbacks.
 *
 * tests/test_event_queue.cc replays randomized schedules through this
 * queue and sim::EventQueue side by side and asserts identical
 * execution order (the ordering-parity oracle). Do not "fix" or
 * optimize this class; its value is being the simple, obviously-correct
 * definition of the execution order.
 */

#ifndef ANSMET_TESTS_REFERENCE_QUEUE_H
#define ANSMET_TESTS_REFERENCE_QUEUE_H

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ansmet::sim::test {

/** Heap-per-event reference implementation of the event queue. */
class ReferenceEventQueue
{
  public:
    using Callback = std::function<void()>;
    using Priority = int;

    Tick now() const { return now_; }

    std::size_t pending() const { return heap_.size(); }

    void
    schedule(Tick when, Callback cb, Priority prio = 0)
    {
        ANSMET_CHECK(when >= now_, "scheduling in the past: ", when,
                     " < ", now_);
        heap_.push(Entry{when, prio, next_id_++, std::move(cb)});
    }

    void
    scheduleIn(TickDelta delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    void
    run(Tick limit = kMaxTick)
    {
        while (!heap_.empty() && heap_.top().when <= limit) {
            const Entry &top = heap_.top();
            now_ = top.when;
            Callback cb = std::move(top.cb);
            heap_.pop();
            cb();
        }
    }

  private:
    struct Entry
    {
        Tick when;
        Priority prio;
        std::uint64_t id;
        mutable Callback cb;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return id > o.id;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    Tick now_{};
    std::uint64_t next_id_ = 0;
};

} // namespace ansmet::sim::test

#endif // ANSMET_TESTS_REFERENCE_QUEUE_H
