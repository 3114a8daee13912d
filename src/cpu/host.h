/**
 * @file
 * Cycle-approximate host CPU model (Table 1: 16 OoO cores, 3.2 GHz,
 * L1/L2/LLC + DDR5-4800 x 4 channels).
 *
 * The host does two kinds of work:
 *  - compute: index traversal, heap maintenance, and (in CPU designs)
 *    SIMD distance kernels — charged via an issue-width cost model;
 *  - memory: 64 B line accesses through the cache hierarchy; misses go
 *    to the channel memory controllers of the event-driven DRAM model.
 *
 * The query loop is sequential (one query at a time per core), which
 * matches how the paper reports per-query latency; throughput scaling
 * over 16 cores is applied at the QPS level by the experiment runner.
 */

#ifndef ANSMET_CPU_HOST_H
#define ANSMET_CPU_HOST_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "common/types.h"
#include "dram/controller.h"
#include "sim/event_queue.h"

namespace ansmet::cpu {

/** Host core cost model parameters. */
struct HostParams
{
    double freqGHz = 3.2;

    /** SIMD lanes per cycle for distance kernels (FP32 elements). */
    unsigned simdLanes = 16;
    /** Cycles per heap push/pop (log-depth pointer chasing). */
    unsigned heapOpCycles = 12;
    /** Cycles of control overhead per traversal step. */
    unsigned stepOverheadCycles = 24;
    /** Cycles to recover one 64 B line of bit-planed data in software
     *  (bit gather); the paper's CPU-ET assumes dedicated logic, so
     *  this defaults to 0 to match its "optimistic" CPU-ET. */
    unsigned bitRecoverCycles = 0;

    cache::HierarchyParams cacheParams{};

    TickDelta period() const { return periodFromGHz(freqGHz); }
};

/**
 * The host CPU attached to the channel-level DRAM controllers.
 * All methods are callback-based so the caller can sequence work on
 * the shared event queue.
 */
class HostCpu
{
  public:
    HostCpu(sim::EventQueue &eq, const HostParams &hp,
            const dram::TimingParams &tp, const dram::OrgParams &org);

    /** Completion callback type; inline capture only (hot path). */
    using Callback = sim::EventQueue::Callback;

    /** Busy-wait @p cycles of pure compute, then call @p done. */
    void compute(std::uint64_t cycles, Callback done);

    /**
     * Read @p lines consecutive 64 B lines starting at @p addr through
     * the cache hierarchy; @p done fires when the last line arrives.
     */
    void read(Addr addr, unsigned lines, Callback done);

    dram::MemController &channel(unsigned c) { return *channels_[c]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Total busy compute ticks accumulated (for energy). */
    TickDelta computeBusy() const { return compute_busy_; }

    /** Map a flat line number onto (channel, rank, bank address). */
    struct MappedLine
    {
        unsigned channel;
        unsigned rank;
        dram::BankAddr addr;
    };
    MappedLine mapHostLine(std::uint64_t line) const;

  private:
    /** In-flight multi-line read: join counter + completion. Pooled so
     *  the per-read shared_ptr allocation is gone from the hot path. */
    struct ReadOp
    {
        unsigned remaining = 0;
        Callback done;
    };

    std::uint32_t allocReadOp(unsigned lines, Callback done);
    void lineDone(std::uint32_t op);

    sim::EventQueue &eq_;
    HostParams hp_;
    dram::OrgParams org_;
    std::unique_ptr<cache::CacheHierarchy> caches_;
    std::vector<std::unique_ptr<dram::MemController>> channels_;
    std::vector<ReadOp> read_pool_;
    std::vector<std::uint32_t> read_free_;
    TickDelta compute_busy_{};
};

} // namespace ansmet::cpu

#endif // ANSMET_CPU_HOST_H
