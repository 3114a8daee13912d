/**
 * @file
 * DRAM request/command vocabulary shared by device and controllers.
 */

#ifndef ANSMET_DRAM_TYPES_H
#define ANSMET_DRAM_TYPES_H

#include <cstdint>

#include "common/types.h"
#include "sim/inline_callback.h"

namespace ansmet::dram {

/** DRAM command set (all-bank refresh only; nothing writes a bank). */
enum class Command : std::uint8_t { kAct, kPre, kRd, kRef };

/** Decoded location of a 64 B line inside one rank. */
struct BankAddr
{
    unsigned bankGroup = 0;
    unsigned bank = 0;
    unsigned row = 0;
    unsigned column = 0;

    unsigned
    flatBank(unsigned banks_per_group) const
    {
        return bankGroup * banks_per_group + bank;
    }

    bool
    operator==(const BankAddr &o) const
    {
        return bankGroup == o.bankGroup && bank == o.bank && row == o.row &&
               column == o.column;
    }
};

/** A 64 B bank read presented to a controller. */
struct Request
{
    /** Completion callback; inline-only capture (move-only request).
     *  The budget is deliberately below the event queue's 48-byte one:
     *  a Request::Callback can never be re-captured inside an event
     *  lambda, so completion state must be pooled, not nested. */
    using Callback = sim::InlineFunction<void(Tick finish), 40>;

    BankAddr addr;
    Tick arrival{};
    Callback onComplete;
};

} // namespace ansmet::dram

#endif // ANSMET_DRAM_TYPES_H
