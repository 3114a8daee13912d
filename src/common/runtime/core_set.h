/**
 * @file
 * Topology-ordered core set for the task runtime.
 *
 * A CoreSet names the logical CPUs the runtime may occupy, in the
 * order workers are created — which is also the victim order for work
 * stealing, so "adjacent in the set" should mean "cheap to steal from"
 * (same core complex / NUMA node). The set comes from the ANSMET_CORES
 * environment variable, a comma-separated list of core ids and ranges
 * ("0,2,4-7", "6-4" enumerates downward); when unset, the runtime
 * falls back to an identity set sized by ANSMET_THREADS (or hardware
 * concurrency), and workers float unpinned. Only an explicit
 * ANSMET_CORES pins worker threads to their cores.
 *
 * Lane 0 is always the *caller's* lane: a CoreSet of size n yields
 * n - 1 worker threads (on cores_[1..n-1]) plus the submitting thread,
 * so ANSMET_THREADS counts total execution lanes including the caller.
 */

#ifndef ANSMET_COMMON_RUNTIME_CORE_SET_H
#define ANSMET_COMMON_RUNTIME_CORE_SET_H

#include <vector>

namespace ansmet::runtime {

class CoreSet
{
  public:
    /** Empty set; configured() or identity() make useful ones. */
    CoreSet() = default;

    /**
     * ANSMET_CORES if set and valid (pinned, in the given order);
     * otherwise identity(configuredLanes()) (unpinned).
     */
    static CoreSet configured();

    /** Cores 0..n-1 (clamped to >= 1), unpinned. */
    static CoreSet identity(unsigned n);

    /**
     * Parse an explicit spec like "0,2,4-7". Duplicate ids keep their
     * first position. Returns an empty set when nothing parses (the
     * caller decides the fallback).
     */
    static CoreSet parse(const char *spec);

    /** Total execution lanes (worker threads + the caller), >= 1. */
    unsigned size() const { return static_cast<unsigned>(cores_.size()); }

    /** Logical core id of lane @p lane (lane 0 = the caller). */
    unsigned operator[](unsigned lane) const { return cores_[lane]; }

    /** Whether worker threads should be pinned to their cores. */
    bool pinned() const { return pinned_; }

    /**
     * ANSMET_THREADS if set (clamped to >= 1), else hardware
     * concurrency. It sizes the unpinned fallback.
     */
    static unsigned configuredLanes();

  private:
    std::vector<unsigned> cores_;
    bool pinned_ = false;
};

} // namespace ansmet::runtime

#endif // ANSMET_COMMON_RUNTIME_CORE_SET_H
