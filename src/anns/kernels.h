/**
 * @file
 * SIMD batch-kernel layer with runtime dispatch.
 *
 * Every hot inner loop of the host pipeline — distance computation,
 * batched multi-vector distance, L2 normalization, and the ET layer's
 * interval staging and bound tightening — is provided as a table of
 * function pointers (KernelOps), with one table per ISA tier (scalar
 * reference, AVX2, AVX-512). The active table is resolved once, at
 * first use, from CPU detection plus the ANSMET_KERNEL environment
 * override (scalar | avx2 | avx512) for A/B testing.
 *
 * ## Determinism and the conservative-bound contract
 *
 * The early-termination layer compares conservative lower bounds
 * against exact distances, so kernel results must be reproducible and
 * must never drift above the exact value the scalar math defines. All
 * variants therefore accumulate in double precision using one
 * canonical *blocked summation order*:
 *
 *   - lane j (j in [0,16)) accumulates the terms of elements
 *     i with i % 16 == j, in increasing i;
 *   - the 16 lanes reduce in the fixed tree
 *       c[j] = (l[j] + l[j+8]) + (l[j+4] + l[j+12]),  j in [0,4)
 *       total = (c[0] + c[2]) + (c[1] + c[3]);
 *   - no FMA contraction (kernel TUs build with -ffp-contract=off),
 *     element conversions (int widen, fp16 decode, fp32->double) are
 *     exact, and every per-element operation is performed in double.
 *
 * Sixteen lanes map exactly onto four AVX2 4x-double accumulators or
 * two AVX-512 8x-double accumulators, so every tier executes the same
 * double-precision operations in the same association and all tiers
 * produce bitwise-identical results (the kernel-parity tests assert
 * exact equality). Figures and ET decisions are thus independent of
 * the tier that happened to run; the boundExceeds() margin additionally
 * absorbs any future variant whose ordering diverges.
 */

#ifndef ANSMET_ANNS_KERNELS_H
#define ANSMET_ANNS_KERNELS_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "anns/scalar.h"
#include "common/simd.h"
#include "common/types.h"

namespace ansmet::anns {

/** Distance of a float query against one raw typed row, canonical order. */
using RowDistFn = double (*)(const float *q, const std::uint8_t *raw,
                             unsigned d);

/**
 * Distance of one query against a block of rows: row i lives at
 * base + ids[i] * stride. Used by bruteforce ground truth (contiguous
 * ids) and HNSW neighbor expansion (scattered ids).
 */
using RowBatchFn = void (*)(const float *q, const std::uint8_t *base,
                            std::size_t stride, const VectorId *ids,
                            std::size_t n, unsigned d, double *out);

/**
 * Batched interval-bound tightening (one fetch-step's worth of
 * dimensions in one pass). For each i in [0, n):
 *   lo[i] = lo[i] >  nlo[i] ? lo[i] : nlo[i];   // intersect
 *   hi[i] = hi[i] <  nhi[i] ? hi[i] : nhi[i];
 *   c     = contribution of q[i] against [lo[i], hi[i]]
 *           (L2: min gap^2; IP: max achievable dot term);
 *   delta_i = c - contrib[i];  contrib[i] = c;
 * Returns sum of delta_i in the canonical blocked order.
 */
using BoundBatchFn = double (*)(const float *q, double *lo, double *hi,
                                double *contrib, const double *nlo,
                                const double *nhi, unsigned n);

/**
 * Interval staging for one fetched line: the value range each element
 * can take once the top @p known bits of its sortable key are known.
 * For each i in [0, n), with w the key width of the table slot's type
 * and 1 <= known <= w, [lo[i], hi[i]] equals, bitwise,
 *   et::intervalFromPrefix(t, keys[i] >> (w - known), known):
 * the key with its low w - known bits cleared, then set, each end
 * clamped to the finite range and decoded exactly to double. The
 * scalar tier is the et/sortable.h codec itself.
 */
using PrefixIntervalsFn = void (*)(const std::uint32_t *keys, unsigned n,
                                   unsigned known, double *lo, double *hi);

/** One ISA tier's kernel table; entries indexed by ScalarType. */
struct KernelOps
{
    SimdLevel level = SimdLevel::kScalar;
    RowDistFn l2[4] = {};       //!< squared L2
    RowDistFn dot[4] = {};      //!< raw dot product (negIp = -dot)
    RowBatchFn l2Batch[4] = {};
    RowBatchFn dotBatch[4] = {};
    void (*normalize)(float *v, unsigned d) = nullptr;
    BoundBatchFn boundL2 = nullptr;
    BoundBatchFn boundIp = nullptr;
    PrefixIntervalsFn prefixIntervals[4] = {};
};

/** Index into the per-type kernel arrays. */
constexpr unsigned
typeIndex(ScalarType t)
{
    return static_cast<unsigned>(t);
}

namespace kernel_detail {

// Per-tier tables; null when the tier was not compiled in (non-x86
// build or compiler without the ISA flags).
const KernelOps *scalarKernels();
const KernelOps *avx2Kernels();
const KernelOps *avx512Kernels();

extern std::atomic<const KernelOps *> g_active;

/** Resolve the startup table (CPU detection + ANSMET_KERNEL). */
const KernelOps &resolveKernels();

} // namespace kernel_detail

/**
 * Table for @p level, or null when that tier is unavailable (not
 * compiled in, or the CPU lacks the ISA). Scalar is always available.
 */
const KernelOps *kernelsFor(SimdLevel level);

/** The active kernel table (resolved once at first use). */
inline const KernelOps &
kernels()
{
    // acquire: pairs with the release store in setKernelLevel() /
    // resolveKernels() so the table's contents are visible.
    const KernelOps *ops =
        kernel_detail::g_active.load(std::memory_order_acquire);
    return ops ? *ops : kernel_detail::resolveKernels();
}

/** Tier of the active table. */
inline SimdLevel
activeKernelLevel()
{
    return kernels().level;
}

/**
 * Force the active tier (bench/test A-B hook; not thread-safe against
 * concurrent searches). Returns false if @p level is unavailable.
 */
bool setKernelLevel(SimdLevel level);

} // namespace ansmet::anns

#endif // ANSMET_ANNS_KERNELS_H
