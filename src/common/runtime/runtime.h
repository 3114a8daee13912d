/**
 * @file
 * Task-based affinity-aware runtime — the execution engine behind all
 * host-side parallelism.
 *
 * Instead of a flat pool with one global mutex/cv handoff (kept only
 * as the bench/reference_flat_pool.h baseline), it uses per-worker
 * bounded MPSC channels: one Worker per core of a topology-ordered
 * CoreSet, each owning a fixed-capacity lock-free ring
 * (mpsc_channel.h). Producers push tasks to the channel named by the
 * task's affinity hint; a worker drains its own channel first and
 * steals — in victim order, its topological neighbours first — only
 * when the local channel is dry. Idle workers spin briefly, then park
 * on an eventcount, so a saturated runtime never touches a lock and an
 * idle one never burns a core.
 *
 * Determinism contract (for parallelFor bodies and tasks alike): task
 * *results* must not depend on which lane ran the task or in which
 * order independent tasks ran — write to task-indexed slots, draw
 * randomness from per-item common::Prng streams, reduce in a canonical
 * serial order. Under that contract every figure is bitwise identical
 * for any ANSMET_THREADS / ANSMET_CORES setting, which CI asserts.
 *
 * Sizing: a CoreSet of size n means n execution lanes — n-1 worker
 * threads plus the submitting caller (parallelFor's caller claims
 * chunks like any worker). A one-lane
 * runtime spawns nothing and runs every entry point inline on the
 * caller; that is the ANSMET_THREADS=1 reference path.
 *
 * Shutdown is drain-then-join: shutdown() (or the destructor) stops
 * admission — posting afterwards is a fatal ANSMET_CHECK — and workers
 * exit only once every channel is empty, so no accepted task is ever
 * dropped.
 */

#ifndef ANSMET_COMMON_RUNTIME_RUNTIME_H
#define ANSMET_COMMON_RUNTIME_RUNTIME_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/runtime/core_set.h"
#include "common/runtime/mpsc_channel.h"
#include "common/runtime/task.h"
#include "common/sync.h"

namespace ansmet::runtime {

class Worker;

struct RuntimeConfig
{
    /** Lanes and victim order; empty = CoreSet::configured(). */
    CoreSet cores;
    /** Per-worker channel capacity (rounded up to a power of two). */
    std::size_t channelCapacity = 1024;
    /**
     * Whether dry workers steal from their neighbours. Disabling makes
     * task placement exactly follow affinity hints (used by placement
     * tests and useful when debugging locality).
     */
    bool steal = true;
};

class Runtime
{
  public:
    explicit Runtime(RuntimeConfig cfg = {});
    ~Runtime(); // shutdown(): drain-then-join

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Process-wide runtime, sized by CoreSet::configured() at first use. */
    static Runtime &global();

    /** Execution lanes: worker threads + the calling thread, >= 1. */
    unsigned lanes() const { return numWorkers() + 1; }

    /** Worker threads (lanes() - 1). */
    unsigned numWorkers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Submit one task. The affinity hint selects the home channel
     * (affinity % numWorkers(); kAnyLane round-robins). Never drops:
     * when the home channel is full, a worker-producer runs the task
     * inline (depth-first) and an external producer helps drain the
     * channel, then retries. Fatal if called after shutdown(). With no
     * workers (one-lane runtime) the task runs inline on the caller.
     *
     * A task without a TaskGroup must not throw (fatal if it does);
     * group tasks report their first exception through wait().
     */
    void post(Task task);

    /**
     * Run body(begin, end) over [begin, end) split into chunks of
     * @p grain iterations (0 = auto). Blocks until every iteration has
     * run; the first exception from any chunk is rethrown here. The
     * caller participates, claiming chunks like a worker. Nested calls
     * from inside runtime work run the whole range inline.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)> &body,
                     std::size_t grain = 0);

    /**
     * Stop admission, drain every channel, join the workers.
     * Idempotent; the destructor calls it.
     */
    void shutdown();

    /**
     * Worker index (0-based) of the calling thread within the runtime
     * that employs it, or kAnyLane when the caller is not a runtime
     * worker. Test/diagnostic hook.
     */
    static std::uint32_t currentWorker();

    /** Whether the calling thread is inside runtime-executed work. */
    static bool inRuntimeWork();

  private:
    friend class Worker;
    friend class TaskGroup;

    /** One parallelFor call: chunk cursor shared by all lanes. */
    struct ForJob
    {
        std::size_t end = 0;
        std::size_t grain = 1;
        const std::function<void(std::size_t, std::size_t)> *body = nullptr;
        // Chunk-claim cursor and participant count. Both seq_cst: the
        // caller's completion test is "my claims exhausted the cursor
        // AND active == 0", and the single-total-order guarantee is
        // what proves a late runner can never claim a real chunk after
        // the caller observed that state (see runnerChunks()).
        std::atomic<std::size_t> next{0};
        std::atomic<unsigned> active{0};
        std::exception_ptr error ANSMET_GUARDED_BY(error_mu);
        Mutex error_mu;
        Mutex done_mu; //!< done_cv's mutex (predicate state is `active`)
        CondVar done_cv;
    };

    /** Run one task on the calling thread (flags it as runtime work). */
    void runTask(Task &task);

    /** Steal one task for worker @p thief, victim order thief+1, ... */
    bool stealFor(unsigned thief, Task &out);

    /** Pop one task from any channel and run it; false when all dry. */
    bool helpOnce();

    /** Any channel has (probably) work; used by park decisions. */
    bool hasWork() const;

    /** Wake parked workers after a push (eventcount fast path). */
    void signalWork();

    /** Park the calling worker until work or shutdown is signalled. */
    void parkIdle();

    /** Claim-and-run chunks, bracketed by the active participant count. */
    static void runnerChunks(ForJob &job);
    /** The claim loop itself (caller and runners share it). */
    static void runChunksImpl(ForJob &job);

    RuntimeConfig cfg_;
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Round-robin cursor for kAnyLane submissions. relaxed: any lane
     *  is correct, the counter only spreads load. */
    std::atomic<std::uint32_t> rr_{0};
    /** Admission gate. Release store in shutdown() pairs with workers'
     *  acquire loads so they observe it after their final dry check. */
    std::atomic<bool> stopping_{false};

    // Eventcount parking (see parkIdle()/signalWork() for the Dekker
    // handshake that makes a push and a park never miss each other).
    std::atomic<unsigned> parked_{0};
    std::uint64_t wake_epoch_ ANSMET_GUARDED_BY(park_mu_) = 0;
    Mutex park_mu_;
    CondVar park_cv_;
};

/**
 * Fork-join task group: run() submits, wait() joins. The waiter helps
 * (drains runtime channels) while the group is outstanding, so a
 * saturated runtime cannot deadlock it; the first exception thrown by
 * any task in the group is rethrown from wait().
 */
class TaskGroup
{
  public:
    explicit TaskGroup(Runtime &rt) : rt_(rt) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task into the group with the given affinity hint. */
    void run(std::uint32_t affinity, Task::Fn fn);

    /** Block until every run() task finished; rethrows first error. */
    void wait();

  private:
    friend class Runtime;

    void finishOne();
    void captureError(); // stores std::current_exception() (first wins)

    Runtime &rt_;
    /** Outstanding tasks. fetch_sub(acq_rel) on completion pairs with
     *  the waiter's acquire load, publishing every task's writes. */
    std::atomic<std::size_t> pending_{0};
    std::exception_ptr error_ ANSMET_GUARDED_BY(error_mu_);
    Mutex error_mu_;
    Mutex done_mu_; //!< done_cv_'s mutex (predicate state is pending_)
    CondVar done_cv_;
};

/** Convenience: Runtime::global().parallelFor(...). */
inline void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t, std::size_t)> &body,
            std::size_t grain = 0)
{
    Runtime::global().parallelFor(begin, end, body, grain);
}

} // namespace ansmet::runtime

#endif // ANSMET_COMMON_RUNTIME_RUNTIME_H
