/**
 * @file
 * DDR5 device timing and energy parameters.
 *
 * The defaults model DDR5-4800 with the paper's RCD-CAS-RP = 40-40-40
 * configuration (Table 1): 4 channels x 2 DIMMs x 4 ranks, 8 bank
 * groups x 4 banks per rank. All timings are in memory-controller
 * cycles at 2400 MHz (tCK = 416 ps, data moves at 4800 MT/s).
 */

#ifndef ANSMET_DRAM_PARAMS_H
#define ANSMET_DRAM_PARAMS_H

#include <cstdint>

#include "common/types.h"

namespace ansmet::dram {

/** Device timing constraints, in controller clock cycles. */
struct TimingParams
{
    TickDelta tCK{416};    //!< clock period in ticks (ps)

    unsigned tRCD = 40;    //!< ACT -> column command
    unsigned tCL = 40;     //!< RD -> first data beat
    unsigned tCWL = 38;    //!< WR -> first data beat
    unsigned tRP = 40;     //!< PRE -> ACT
    unsigned tRAS = 76;    //!< ACT -> PRE
    unsigned tRC = 116;    //!< ACT -> ACT same bank
    unsigned tBL = 8;      //!< data burst duration (16 beats / 2)
    unsigned tCCD_S = 8;   //!< column-to-column, different bank group
    unsigned tCCD_L = 12;  //!< column-to-column, same bank group
    unsigned tRRD_S = 8;   //!< ACT-to-ACT, different bank group
    unsigned tRRD_L = 12;  //!< ACT-to-ACT, same bank group
    unsigned tFAW = 32;    //!< four-activate window
    unsigned tRTP = 18;    //!< RD -> PRE
    unsigned tREFI = 9360; //!< refresh interval (3.9 us)
    unsigned tRFC = 984;   //!< refresh cycle time (410 ns)

    TickDelta
    cycles(unsigned c) const
    {
        return static_cast<std::uint64_t>(c) * tCK;
    }
};

/** Organization of the memory system. */
struct OrgParams
{
    unsigned channels = 4;
    unsigned dimmsPerChannel = 2;
    unsigned ranksPerDimm = 4;
    unsigned bankGroups = 8;
    unsigned banksPerGroup = 4;
    unsigned rows = 1 << 16;
    unsigned columns = 1 << 10;   //!< 64 B lines per row

    unsigned ranksPerChannel() const { return dimmsPerChannel * ranksPerDimm; }
    unsigned banksPerRank() const { return bankGroups * banksPerGroup; }
};

/**
 * Energy parameters, derived from DRAM datasheet IDD approximations and
 * the paper's component budgets (Table 1). Values are per-event or
 * static power; the absolute scale only matters for cross-design
 * ratios.
 */
struct EnergyParams
{
    double actPreEnergyNj = 2.0;   //!< one ACT+PRE pair
    double rdCoreEnergyNj = 2.0;   //!< 64 B read, array + internal bus
    double ioEnergyNj = 1.2;       //!< 64 B transfer over the channel DQ bus
    double refreshEnergyNj = 48.0; //!< one all-bank refresh
    double backgroundMwPerRank = 60.0;  //!< standby/active background
    double ndpUnitActiveMw = 300.0;     //!< paper: 16-wide compute @ 300 mW
    double cpuCoreActiveW = 7.0;        //!< paper: 7 W per core
};

} // namespace ansmet::dram

#endif // ANSMET_DRAM_PARAMS_H
