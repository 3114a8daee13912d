/**
 * @file
 * Command-count based DRAM energy model.
 *
 * Energy = sum over ranks of (ACT/PRE pairs, reads, refreshes)
 * times per-event energies, plus background power integrated over the
 * simulated time. Channel I/O energy is charged only for transfers
 * that cross the DQ bus to the host, which is how NDP saves I/O power.
 */

#ifndef ANSMET_DRAM_POWER_H
#define ANSMET_DRAM_POWER_H

#include <cstdint>

#include "dram/device.h"
#include "dram/params.h"

namespace ansmet::dram {

/** Accumulated energy in nanojoules, by component. */
struct EnergyBreakdown
{
    double actPreNj = 0.0;
    double rdWrCoreNj = 0.0;
    double ioNj = 0.0;
    double refreshNj = 0.0;
    double backgroundNj = 0.0;

    double
    totalNj() const
    {
        return actPreNj + rdWrCoreNj + ioNj + refreshNj + backgroundNj;
    }

    EnergyBreakdown &
    operator+=(const EnergyBreakdown &o)
    {
        actPreNj += o.actPreNj;
        rdWrCoreNj += o.rdWrCoreNj;
        ioNj += o.ioNj;
        refreshNj += o.refreshNj;
        backgroundNj += o.backgroundNj;
        return *this;
    }
};

/** Compute one rank's energy for a run of @p elapsed ticks. */
inline EnergyBreakdown
rankEnergy(const RankDevice &dev, const EnergyParams &ep,
           TickDelta elapsed, std::uint64_t host_transfers)
{
    EnergyBreakdown e;
    e.actPreNj = static_cast<double>(dev.numActs()) * ep.actPreEnergyNj;
    e.rdWrCoreNj = static_cast<double>(dev.numReads()) * ep.rdCoreEnergyNj;
    e.ioNj = static_cast<double>(host_transfers) * ep.ioEnergyNj;
    e.refreshNj =
        static_cast<double>(dev.numRefreshes()) * ep.refreshEnergyNj;
    // mW * ps = 1e-3 J/s * 1e-12 s = 1e-15 J = 1e-6 nJ
    e.backgroundNj =
        ep.backgroundMwPerRank * static_cast<double>(elapsed.raw()) * 1e-6;
    return e;
}

} // namespace ansmet::dram

#endif // ANSMET_DRAM_POWER_H
