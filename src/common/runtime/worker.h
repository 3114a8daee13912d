/**
 * @file
 * One runtime worker: a thread plus the MPSC channel it owns.
 *
 * The worker loop is strictly local-first: drain the own channel, then
 * steal in victim order (topological neighbours first), then
 * spin-then-park on the runtime's eventcount. Workers are the only
 * place in the tree allowed to own a raw std::thread — lint rule R4
 * routes everyone else through the runtime.
 */

#ifndef ANSMET_COMMON_RUNTIME_WORKER_H
#define ANSMET_COMMON_RUNTIME_WORKER_H

#include <cstddef>
#include <thread>

#include "common/runtime/mpsc_channel.h"
#include "common/runtime/task.h"

namespace ansmet::runtime {

class Runtime;

class Worker
{
  public:
    /**
     * @param rt        owning runtime (outlives the worker).
     * @param index     worker index, 0-based; also the channel id.
     * @param core      logical CPU this worker is homed on.
     * @param pin       whether to actually set thread affinity.
     * @param capacity  channel capacity (power-of-two rounded).
     */
    Worker(Runtime &rt, unsigned index, unsigned core, bool pin,
           std::size_t capacity)
        : rt_(rt), index_(index), core_(core), pin_(pin), channel_(capacity)
    {
    }

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /** Spawn the thread; separate from the ctor so every Worker (and
     *  thus every channel) exists before any loop can steal. */
    void start();

    /** Join the thread (runtime signals stop first). */
    void join();

    MpscChannel<Task> &channel() { return channel_; }
    const MpscChannel<Task> &channel() const { return channel_; }

    unsigned index() const { return index_; }
    unsigned core() const { return core_; }

  private:
    void loop();

    Runtime &rt_;
    unsigned index_;
    unsigned core_;
    bool pin_;
    MpscChannel<Task> channel_;
    std::thread thread_;
};

} // namespace ansmet::runtime

#endif // ANSMET_COMMON_RUNTIME_WORKER_H
