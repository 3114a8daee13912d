/**
 * @file
 * Bounded lock-free task channel (fixed-capacity ring).
 *
 * Each runtime Worker owns one channel. The common traffic pattern is
 * MPSC — any thread produces into a worker's channel, the owning
 * worker consumes — but the pop side must also admit the occasional
 * *foreign* consumer: an idle worker stealing from a dry neighbour, or
 * a producer draining a full channel under backpressure. The cell
 * sequence-number design (Vyukov's bounded queue) makes both ends
 * multi-participant safe without any extra mode, so steals reuse the
 * exact pop path the owner uses.
 *
 * Memory-ordering contract (the justification -Wthread-safety cannot
 * see; lint rule R4 keeps raw sync out, these atomics are the whole
 * synchronization story):
 *
 *  - `seq` per cell carries the payload handoff: the producer's
 *    release store of seq = pos + 1 publishes the moved-in value to
 *    the consumer's acquire load, and the consumer's release store of
 *    seq = pos + capacity publishes the *emptied* cell back to the
 *    producer that will reuse it one lap later.
 *  - `head_` / `tail_` are claim cursors only: relaxed loads feed a
 *    CAS whose success (acq_rel) makes each position claimed exactly
 *    once; payload visibility never rides on them.
 *  - head_ and tail_ live on separate cache lines so producers and
 *    consumers do not false-share their claim counters.
 *
 * Capacity is rounded up to a power of two (index masking). push/pop
 * never block and never spuriously fail: tryPush returns false only
 * when the ring is genuinely full, tryPop only when it is empty.
 */

#ifndef ANSMET_COMMON_RUNTIME_MPSC_CHANNEL_H
#define ANSMET_COMMON_RUNTIME_MPSC_CHANNEL_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "common/check.h"

namespace ansmet::runtime {

/**
 * Destructive-interference padding granularity. A fixed 64 rather than
 * std::hardware_destructive_interference_size: the latter varies with
 * -mtune and compiler version (GCC warns about exactly that), and 64
 * is the line size on every target this simulator models.
 */
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class MpscChannel
{
  public:
    explicit MpscChannel(std::size_t capacity)
    {
        ANSMET_CHECK(capacity >= 2, "channel capacity must be >= 2");
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        cells_ = std::make_unique<Cell[]>(cap);
        for (std::size_t i = 0; i < cap; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscChannel(const MpscChannel &) = delete;
    MpscChannel &operator=(const MpscChannel &) = delete;

    std::size_t capacity() const { return mask_ + 1; }

    /** Multi-producer push; false iff the ring is full. The result
     *  must be checked: on false the value was NOT enqueued (it is
     *  left intact in @p value for a retry), so a dropped result is a
     *  silently lost task. */
    [[nodiscard]] bool
    tryPush(T &&value)
    {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & mask_];
            const std::size_t seq =
                cell.seq.load(std::memory_order_acquire);
            const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                       static_cast<std::ptrdiff_t>(pos);
            if (dif == 0) {
                // Cell is free for this lap; claim the position. CAS
                // success needs no stronger order: the payload handoff
                // is published by the seq store below.
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed,
                        std::memory_order_relaxed)) {
                    cell.value = std::move(value);
                    cell.seq.store(pos + 1, std::memory_order_release);
                    return true;
                }
                // CAS failure reloaded pos; retry with it.
            } else if (dif < 0) {
                // One full lap behind: the consumer of this cell has
                // not emptied it yet — the ring is full.
                return false;
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Consumer pop (owner or stealer); false iff the ring is empty.
     * Safe from any thread: the cell sequence admits multiple
     * consumers even though the steady-state pattern is MPSC.
     */
    bool
    tryPop(T &out)
    {
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & mask_];
            const std::size_t seq =
                cell.seq.load(std::memory_order_acquire);
            const std::ptrdiff_t dif =
                static_cast<std::ptrdiff_t>(seq) -
                static_cast<std::ptrdiff_t>(pos + 1);
            if (dif == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed,
                        std::memory_order_relaxed)) {
                    out = std::move(cell.value);
                    // Hand the emptied cell to the producer that will
                    // claim it next lap.
                    cell.seq.store(pos + mask_ + 1,
                                   std::memory_order_release);
                    return true;
                }
            } else if (dif < 0) {
                return false; // nothing published at this position
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Cheap emptiness probe for idle/park decisions. May race with
     * concurrent pushes (a false "empty" is tolerated only because
     * the eventcount protocol re-checks after announcing the park;
     * see Runtime's parking comments).
     */
    bool
    probablyEmpty() const
    {
        const std::size_t pos = head_.load(std::memory_order_acquire);
        const std::size_t seq =
            cells_[pos & mask_].seq.load(std::memory_order_acquire);
        return static_cast<std::ptrdiff_t>(seq) -
                   static_cast<std::ptrdiff_t>(pos + 1) <
               0;
    }

  private:
    struct Cell
    {
        std::atomic<std::size_t> seq;
        T value;
    };

    std::unique_ptr<Cell[]> cells_;
    std::size_t mask_ = 0;
    /** Producer claim cursor; own cache line (see header comment). */
    alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
    /** Consumer claim cursor; own cache line. */
    alignas(kCacheLine) std::atomic<std::size_t> head_{0};
};

} // namespace ansmet::runtime

#endif // ANSMET_COMMON_RUNTIME_MPSC_CHANNEL_H
