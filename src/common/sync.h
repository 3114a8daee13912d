/**
 * @file
 * Synchronization primitives with Clang thread-safety annotations.
 *
 * Every locking contract in this codebase used to live only in
 * comments ("guarded by mu_") and was checked only dynamically, by
 * whatever interleavings TSan happened to see. Clang's Thread Safety
 * Analysis turns those comments into compile errors: a field declared
 * ANSMET_GUARDED_BY(mu_) cannot be touched without holding mu_, a
 * helper declared ANSMET_REQUIRES(mu_) cannot be called without it,
 * and `-Wthread-safety -Werror` (added automatically for Clang builds,
 * enforced by the thread-safety CI job) makes the whole contract a
 * standing compile-time race detector.
 *
 * Usage mirrors Abseil's mutex discipline:
 *
 *   class Pool {
 *     void put(T *t) { MutexLock lk(mu_); free_.push_back(t); }
 *     bool emptyLocked() const ANSMET_REQUIRES(mu_);
 *     Mutex mu_;
 *     std::vector<T *> free_ ANSMET_GUARDED_BY(mu_);
 *   };
 *
 * Off-Clang (GCC here) every macro expands to nothing and the wrapper
 * types are thin zero-overhead shims over the std primitives, so the
 * annotations cost nothing at runtime anywhere and nothing at compile
 * time off-Clang.
 *
 * This header is deliberately the only place in src/ allowed to name
 * std::mutex / std::condition_variable directly;
 * tools/ansmet_lint.py rule R4 (ansmet-rawsync) enforces that every
 * other file uses these wrappers, which is what keeps the annotation
 * coverage from silently eroding. The same rule confines the wrappers
 * to src/common/runtime and src/obs, where no code path holds one lock
 * while acquiring another.
 */

#ifndef ANSMET_COMMON_SYNC_H
#define ANSMET_COMMON_SYNC_H

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------
// Annotation macros (no-ops off-Clang).
// ---------------------------------------------------------------------

#if defined(__clang__)
#define ANSMET_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ANSMET_THREAD_ANNOTATION(x) // not supported by this compiler
#endif

/** Marks a class as a lockable capability ("mutex"). */
#define ANSMET_CAPABILITY(name) ANSMET_THREAD_ANNOTATION(capability(name))

/** Marks an RAII class that acquires in its ctor, releases in its dtor. */
#define ANSMET_SCOPED_CAPABILITY ANSMET_THREAD_ANNOTATION(scoped_lockable)

/** Data member that may only be touched while holding @p x. */
#define ANSMET_GUARDED_BY(x) ANSMET_THREAD_ANNOTATION(guarded_by(x))

/** Function that must be called with the capabilities held. */
#define ANSMET_REQUIRES(...) \
    ANSMET_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function that acquires the capability and does not release it. */
#define ANSMET_ACQUIRE(...) \
    ANSMET_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases a held capability. */
#define ANSMET_RELEASE(...) \
    ANSMET_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that must be called WITHOUT the capabilities held (it
 *  acquires them itself; calling with them held would deadlock). */
#define ANSMET_EXCLUDES(...) \
    ANSMET_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

namespace ansmet {

class CondVar;

// ---------------------------------------------------------------------
// Annotated primitives.
// ---------------------------------------------------------------------

/** Exclusive mutex; identical to std::mutex at runtime. */
class ANSMET_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ANSMET_ACQUIRE() { mu_.lock(); }
    void unlock() ANSMET_RELEASE() { mu_.unlock(); }

  private:
    friend class CondVar;
    std::mutex mu_;
};

/** std::lock_guard<Mutex> with scoped-capability annotations. */
class ANSMET_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) ANSMET_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() ANSMET_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Condition variable bound to ansmet::Mutex.
 *
 * wait() takes the Mutex itself (annotated ANSMET_REQUIRES, so the
 * analysis proves the caller holds it) rather than a std lock object;
 * the temporary std::unique_lock built inside wait() adopts and then
 * releases ownership purely to satisfy std::condition_variable's
 * interface, and is invisible to the analysis. Callers loop over their
 * predicate explicitly:
 *
 *   MutexLock lk(mu_);
 *   while (!readyLocked())
 *       cv_.wait(mu_);
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p mu, block, reacquire before returning. */
    void
    wait(Mutex &mu) ANSMET_REQUIRES(mu)
    {
        std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
        cv_.wait(lk);
        lk.release();
    }

    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace ansmet

#endif // ANSMET_COMMON_SYNC_H
