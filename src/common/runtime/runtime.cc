#include "common/runtime/runtime.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace ansmet::runtime {

namespace {

// "Inside a parallelFor body". Process-wide across Runtime instances on
// purpose: a private runtime's body entering the global runtime must
// still take the inline path (the tests' runSerial sandbox relies on
// exactly that).
thread_local bool tls_in_body = false;

/** Marks the calling thread as inside a body for one scope. */
class BodyScope
{
  public:
    BodyScope() : was_(tls_in_body) { tls_in_body = true; }
    ~BodyScope() { tls_in_body = was_; }

    BodyScope(const BodyScope &) = delete;
    BodyScope &operator=(const BodyScope &) = delete;

  private:
    bool was_;
};

} // namespace

unsigned
configuredLanes()
{
    // Read-only config knob, queried before any runtime thread exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): nothing mutates the env.
    if (const char *env = std::getenv("ANSMET_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
        ANSMET_WARN("ignoring invalid ANSMET_THREADS value");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

Runtime::Runtime(unsigned lanes)
{
    ANSMET_CHECK(lanes >= 1, "a runtime needs at least one lane");
    workers_.reserve(lanes - 1);
    try {
        for (unsigned lane = 1; lane < lanes; ++lane)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        stopWorkers(); // a started worker must not outlive the members
        throw;
    }
}

Runtime::~Runtime() { stopWorkers(); }

void
Runtime::stopWorkers()
{
    {
        MutexLock lk(mu_);
        stopping_ = true;
    }
    work_cv_.notifyAll();
    for (std::thread &t : workers_)
        t.join();
}

Runtime &
Runtime::global()
{
    static Runtime rt;
    return rt;
}

void
Runtime::workerLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            MutexLock lk(mu_);
            // Join only a published job with chunks left: a worker that
            // has run out of chunks waits here for the next job.
            while (!stopping_ &&
                   (job_ == nullptr || job_->next.load() >= job_->count))
                work_cv_.wait(mu_);
            if (stopping_)
                return;
            job = job_;
            ++joined_;
        }
        runChunks(*job);
        {
            MutexLock lk(mu_);
            if (--joined_ == 0)
                done_cv_.notifyAll();
        }
    }
}

void
Runtime::runChunks(Job &job)
{
    ANSMET_DCHECK(job.grain > 0 && job.body != nullptr,
                  "parallelFor job published without chunks");
    const BodyScope scope;
    for (;;) {
        const std::size_t lo = job.next.fetch_add(job.grain);
        if (lo >= job.count)
            return;
        const std::size_t hi = std::min(lo + job.grain, job.count);
        try {
            (*job.body)(job.begin + lo, job.begin + hi);
        } catch (...) {
            // Keep claiming chunks so the range always completes; only
            // the first error is reported.
            MutexLock lk(mu_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
Runtime::parallelFor(std::size_t begin, std::size_t end, const Body &body,
                     std::size_t grain)
{
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    if (workers_.empty() || tls_in_body || n == 1) {
        // One-lane runtime, nested call or a single iteration: one
        // inline call, still flagged as a body so calls inside it nest.
        const BodyScope scope;
        body(begin, end);
        return;
    }

    Job job;
    job.begin = begin;
    job.count = n;
    job.grain =
        grain != 0 ? grain : std::max<std::size_t>(1, n / (8 * lanes()));
    job.body = &body;
    {
        MutexLock lk(mu_);
        while (job_ != nullptr) // another caller's job: take turns
            done_cv_.wait(mu_);
        job_ = &job;
    }
    work_cv_.notifyAll();

    // The caller claims chunks like any worker.
    runChunks(job);

    std::exception_ptr error;
    {
        MutexLock lk(mu_);
        // Workers join only under mu_ while the job is published, so
        // once joined_ is 0 here none can touch `job` again.
        while (joined_ != 0)
            done_cv_.wait(mu_);
        job_ = nullptr;
        error = std::exchange(error_, nullptr);
    }
    done_cv_.notifyAll(); // free the job slot for a waiting caller
    // A short cursor here would mean iterations were silently dropped.
    ANSMET_CHECK(job.next.load() >= n,
                 "parallelFor finished with unclaimed iterations");
    if (error)
        std::rethrow_exception(error);
}

} // namespace ansmet::runtime
