/**
 * @file
 * Growable power-of-two ring buffer used as a FIFO: push_back, front,
 * pop_front.
 *
 * Replacement for `std::deque` in simulation hot loops (NDP QSHR task
 * FIFOs, DRAM bus-transfer queues): std::deque allocates and frees a
 * node block as its size crosses chunk boundaries, which shows up as
 * steady-state allocator traffic. RingDeque keeps one contiguous
 * buffer that only ever grows, so a warmed-up queue never touches the
 * allocator again (see DESIGN.md, "Hot-path allocation rules").
 *
 * T must be default-constructible and movable. pop_front() resets the
 * vacated element to a default-constructed T, so resources held by
 * moved-from elements (e.g. callbacks) are released eagerly.
 */

#ifndef ANSMET_COMMON_RING_DEQUE_H
#define ANSMET_COMMON_RING_DEQUE_H

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ansmet {

template <typename T>
class RingDeque
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &
    front()
    {
        ANSMET_DCHECK(count_ > 0, "front() on empty RingDeque");
        return buf_[head_];
    }

    const T &
    front() const
    {
        ANSMET_DCHECK(count_ > 0, "front() on empty RingDeque");
        return buf_[head_];
    }

    void
    push_back(T v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(v);
        ++count_;
    }

    void
    pop_front()
    {
        ANSMET_DCHECK(count_ > 0, "pop_front() on empty RingDeque");
        buf_[head_] = T{}; // release the slot's resources now
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

  private:
    void
    grow()
    {
        const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_; //!< size is always zero or a power of two
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace ansmet

#endif // ANSMET_COMMON_RING_DEQUE_H
