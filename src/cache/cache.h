/**
 * @file
 * Set-associative LRU cache model (tags only, no data), plus a
 * three-level hierarchy matching the paper's host CPU (Table 1):
 * 64 kB L1, 1 MB L2 (14 cycles), 8 MB LLC (60 cycles), DDR5 behind it.
 */

#ifndef ANSMET_CACHE_CACHE_H
#define ANSMET_CACHE_CACHE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace ansmet::cache {

/** Tag array of one cache level with true-LRU replacement. */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes cache line size (64 throughout)
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned line_bytes = kLineBytes);

    /**
     * Look up @p addr; on miss, install it (evicting LRU).
     * @return true on hit.
     */
    bool accessAndFill(Addr addr);

    /** Look up without modifying state. */
    bool probe(Addr addr) const;

    /** Invalidate everything. */
    void flush();

    std::uint64_t numSets() const { return sets_.size(); }
    unsigned assoc() const { return assoc_; }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    struct Set
    {
        std::vector<Way> ways;
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    unsigned line_shift_;
    unsigned assoc_;
    std::vector<Set> sets_;
    std::uint64_t use_clock_ = 0;
};

/** Latency configuration of the three-level hierarchy, in CPU cycles. */
struct HierarchyParams
{
    std::uint64_t l1Bytes = 64 * 1024;
    unsigned l1Assoc = 8;
    unsigned l1Cycles = 4;

    std::uint64_t l2Bytes = 1024 * 1024;
    unsigned l2Assoc = 8;
    unsigned l2Cycles = 14;

    std::uint64_t llcBytes = 8 * 1024 * 1024;
    unsigned llcAssoc = 16;
    unsigned llcCycles = 60;
};

/**
 * Functional-timing cache hierarchy front-end. On an access it walks
 * L1 -> L2 -> LLC, returns the hit level and latency, and fills all
 * levels on the way back. DRAM access time is added by the caller
 * (the host CPU model), which owns the channel controllers.
 */
class CacheHierarchy
{
  public:
    enum class Level { kL1, kL2, kLlc, kMemory };

    explicit CacheHierarchy(const HierarchyParams &p);

    /**
     * Access one 64 B line.
     * @return hit level; latency in CPU cycles for cache-resident data
     *         is hitCycles(level). Level::kMemory means go to DRAM.
     */
    Level access(Addr addr);

    /** Cycles to serve a hit at @p level (kMemory returns LLC miss path). */
    unsigned hitCycles(Level level) const;

    void flush();

  private:
    HierarchyParams p_;
    CacheArray l1_;
    CacheArray l2_;
    CacheArray llc_;
};

} // namespace ansmet::cache

#endif // ANSMET_CACHE_CACHE_H
