#include "cpu/host.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace ansmet::cpu {

namespace {

struct HostMetrics
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter cacheHits = reg.counter("host.cache_hits");
    obs::Counter cacheMisses = reg.counter("host.cache_misses");
};

HostMetrics &
hostMetrics()
{
    static HostMetrics m;
    return m;
}

} // namespace

HostCpu::HostCpu(sim::EventQueue &eq, const HostParams &hp,
                 const dram::TimingParams &tp, const dram::OrgParams &org)
    : eq_(eq), hp_(hp), org_(org),
      caches_(std::make_unique<cache::CacheHierarchy>(hp.cacheParams))
{
    for (unsigned c = 0; c < org.channels; ++c) {
        channels_.push_back(std::make_unique<dram::MemController>(
            eq, tp, org, org.ranksPerChannel(),
            "host_ch" + std::to_string(c)));
    }
}

void
HostCpu::compute(std::uint64_t cycles, Callback done)
{
    const TickDelta ticks = cycles * hp_.period();
    compute_busy_ += ticks;
    eq_.scheduleIn(ticks, std::move(done));
}

HostCpu::MappedLine
HostCpu::mapHostLine(std::uint64_t line) const
{
    MappedLine m;
    // Channel-interleave at line granularity for bandwidth, then rank,
    // then the in-rank mapping.
    m.channel = static_cast<unsigned>(line % channels_.size());
    line /= channels_.size();
    m.rank = static_cast<unsigned>(line % org_.ranksPerChannel());
    line /= org_.ranksPerChannel();
    m.addr = dram::mapLine(line, org_);
    return m;
}

std::uint32_t
HostCpu::allocReadOp(unsigned lines, Callback done)
{
    std::uint32_t op;
    if (read_free_.empty()) {
        read_pool_.emplace_back();
        op = static_cast<std::uint32_t>(read_pool_.size() - 1);
    } else {
        op = read_free_.back();
        read_free_.pop_back();
    }
    read_pool_[op].remaining = lines;
    read_pool_[op].done = std::move(done);
    return op;
}

void
HostCpu::lineDone(std::uint32_t op)
{
    ReadOp &r = read_pool_[op];
    ANSMET_CHECK(r.remaining > 0);
    if (--r.remaining != 0)
        return;
    Callback done = std::move(r.done);
    read_free_.push_back(op);
    done();
}

void
HostCpu::read(Addr addr, unsigned lines, Callback done)
{
    ANSMET_CHECK(lines >= 1);
    // Issue all lines; complete when the slowest returns. Cache hits
    // add their hit latency; misses traverse to DRAM. The join state
    // lives in a pooled ReadOp; events carry only its index.
    const std::uint32_t op = allocReadOp(lines, std::move(done));

    unsigned hits = 0;
    for (unsigned i = 0; i < lines; ++i) {
        const Addr a = addr + static_cast<Addr>(i) * kLineBytes;
        const auto level = caches_->access(a);
        const TickDelta lat =
            static_cast<std::uint64_t>(caches_->hitCycles(level)) *
            hp_.period();
        if (level != cache::CacheHierarchy::Level::kMemory) {
            ++hits;
            eq_.scheduleIn(lat, [this, op] { lineDone(op); });
            continue;
        }
        const MappedLine m = mapHostLine(a / kLineBytes);
        dram::Request req;
        req.addr = m.addr;
        req.onComplete = [this, lat, op](Tick) {
            // LLC-to-core return latency after the DRAM data arrives.
            eq_.scheduleIn(lat, [this, op] { lineDone(op); });
        };
        channels_[m.channel]->enqueue(m.rank, std::move(req));
    }
    HostMetrics &hm = hostMetrics();
    hm.cacheHits.add(hits);
    hm.cacheMisses.add(lines - hits);
}

} // namespace ansmet::cpu
