/**
 * @file
 * The execution engine behind all host-side parallelism: a fixed set of
 * lanes that serve one data-parallel loop (parallelFor) at a time.
 *
 * Determinism contract for parallelFor bodies: results must not depend
 * on which lane ran a chunk or in which order chunks ran — write to
 * index-addressed slots, draw randomness from per-item common::Prng
 * streams, reduce in a canonical serial order. Under that contract
 * every figure is bitwise identical for any ANSMET_THREADS setting,
 * which CI asserts.
 *
 * Lanes: a runtime of n lanes counts the caller as lane 0; the
 * constructor starts n - 1 unpinned worker threads and the destructor
 * joins them. A one-lane runtime starts nothing and runs every call
 * inline on the caller; that is the ANSMET_THREADS=1 reference path.
 * Placing a process on particular cores is left to the OS (taskset).
 *
 * Nesting: a thread-local flag marks "inside a parallelFor body" on
 * every path that runs a body, inline paths included. The flag is
 * shared by all Runtime instances, and a call made while it is set
 * runs its whole range inline. So nested calls never wait on lanes,
 * and running a stage as the body of a one-lane private runtime's
 * parallelFor runs every parallelFor inside it serially.
 */

#ifndef ANSMET_COMMON_RUNTIME_RUNTIME_H
#define ANSMET_COMMON_RUNTIME_RUNTIME_H

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace ansmet::runtime {

/**
 * ANSMET_THREADS if set (a junk value warns and is ignored), else
 * hardware concurrency; always >= 1.
 */
unsigned configuredLanes();

class Runtime
{
  public:
    using Body = std::function<void(std::size_t, std::size_t)>;

    /** A runtime of @p lanes execution lanes, >= 1. */
    explicit Runtime(unsigned lanes = configuredLanes());
    ~Runtime(); // joins the workers

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Process-wide runtime, sized by configuredLanes() at first use. */
    static Runtime &global();

    /** Execution lanes: worker threads + the calling thread, >= 1. */
    unsigned lanes() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run body(begin, end) over [begin, end) split into chunks of
     * @p grain iterations (0 = auto). Blocks until every iteration has
     * run; the first exception from any chunk is rethrown here, after
     * the whole range has run. The caller claims chunks like any
     * worker. Concurrent callers take turns, one call at a time.
     */
    void parallelFor(std::size_t begin, std::size_t end, const Body &body,
                     std::size_t grain = 0);

  private:
    /** One multi-lane parallelFor call; lives on the caller's stack. */
    struct Job
    {
        std::size_t begin = 0;
        std::size_t count = 0; //!< iterations; chunks are offsets from begin
        std::size_t grain = 1;
        const Body *body = nullptr;
        /** Chunk-claim cursor. It orders nothing else: a worker's chunk
         *  writes reach the caller through mu_, when it leaves the job. */
        std::atomic<std::size_t> next{0};
    };

    void workerLoop();

    /** Claim and run chunks of @p job until its cursor is exhausted. */
    void runChunks(Job &job);

    /** Tell the workers to exit and join them. */
    void stopWorkers();

    Mutex mu_;
    CondVar work_cv_; //!< workers: a job was published, or stop
    CondVar done_cv_; //!< callers: joined_ hit 0, or the job slot freed
    /** The published job; workers join it only under mu_. */
    Job *job_ ANSMET_GUARDED_BY(mu_) = nullptr;
    /** Workers inside job_; the caller unpublishes only at 0. */
    unsigned joined_ ANSMET_GUARDED_BY(mu_) = 0;
    /** First exception thrown by a chunk of job_. */
    std::exception_ptr error_ ANSMET_GUARDED_BY(mu_);
    bool stopping_ ANSMET_GUARDED_BY(mu_) = false;

    /** Declared last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

/** Convenience: Runtime::global().parallelFor(...). */
inline void
parallelFor(std::size_t begin, std::size_t end, const Runtime::Body &body,
            std::size_t grain = 0)
{
    Runtime::global().parallelFor(begin, end, body, grain);
}

} // namespace ansmet::runtime

#endif // ANSMET_COMMON_RUNTIME_RUNTIME_H
