/**
 * @file
 * NDP instruction encodings (Figure 5(e) of the paper).
 *
 * Instructions ride on regular DDR commands to reserved addresses: one
 * 64 B WRITE each for configure and set-search, up to 16 WRITEs for a
 * 1 kB set-query, and a READ for poll. The timing cost of each
 * instruction is one buffer-chip bus transfer on the host channel (see
 * MemController::enqueueBusTransfer); a set-query costs
 * setQueryWrites() of them.
 */

#ifndef ANSMET_NDP_INSTR_H
#define ANSMET_NDP_INSTR_H

namespace ansmet::ndp {

/** Bytes of query data one set-query WRITE carries. */
constexpr unsigned kSetQueryBytes = 64;

/** Max query bytes a QSHR holds (256-dim FP32 / 512-dim UINT8). */
constexpr unsigned kQshrQueryBytes = 1024;

/** WRITEs needed to load a query of @p bytes into a QSHR. */
constexpr unsigned
setQueryWrites(unsigned bytes)
{
    return (bytes + kSetQueryBytes - 1) / kSetQueryBytes;
}

} // namespace ansmet::ndp

#endif // ANSMET_NDP_INSTR_H
