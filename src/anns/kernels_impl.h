/**
 * @file
 * Private shared pieces of the kernel translation units: the typed
 * element loader, the canonical 16-lane reduction, and the scalar
 * reference loops (interval staging is the header-only et/sortable.h
 * codec, so it adds no link dependency). The SIMD TUs reuse the scalar
 * loops for tails (the final d % 16 elements) so every tier performs
 * bit-identical math — see kernels.h for the canonical-order contract.
 *
 * Not installed API: include only from kernels*.cc.
 */

#ifndef ANSMET_ANNS_KERNELS_IMPL_H
#define ANSMET_ANNS_KERNELS_IMPL_H

#include <cmath>
#include <cstring>

#include "anns/kernels.h"
#include "anns/scalar.h"
#include "common/bitops.h"
#include "et/sortable.h"

namespace ansmet::anns::kernel_detail {

constexpr unsigned kLanes = 16;

/**
 * Single typed-load helper shared by every kernel: element @p i of a
 * raw row, widened to double. All four scalar types route through
 * here, so there is exactly one place that defines the (exact)
 * element-to-double conversion.
 */
template <ScalarType T>
inline double
loadElem(const std::uint8_t *raw, unsigned i)
{
    if constexpr (T == ScalarType::kUint8) {
        return static_cast<double>(raw[i]);
    } else if constexpr (T == ScalarType::kInt8) {
        return static_cast<double>(static_cast<std::int8_t>(raw[i]));
    } else if constexpr (T == ScalarType::kFp16) {
        std::uint16_t h;
        std::memcpy(&h, raw + i * 2u, 2);
        return static_cast<double>(halfToFloat(h));
    } else {
        float f;
        std::memcpy(&f, raw + i * 4u, 4);
        return static_cast<double>(f);
    }
}

/** Canonical reduction of the 16 lane accumulators (see kernels.h). */
inline double
reduceLanes(const double *l)
{
    double c[4];
    for (unsigned j = 0; j < 4; ++j)
        c[j] = (l[j] + l[j + 8]) + (l[j + 4] + l[j + 12]);
    return (c[0] + c[2]) + (c[1] + c[3]);
}

/** Accumulate L2 terms of elements [begin, end) into the lanes. */
template <ScalarType T>
inline void
l2Tail(const float *q, const std::uint8_t *raw, unsigned begin,
       unsigned end, double *lanes)
{
    for (unsigned i = begin; i < end; ++i) {
        const double diff = static_cast<double>(q[i]) - loadElem<T>(raw, i);
        lanes[i % kLanes] += diff * diff;
    }
}

/** Accumulate dot terms of elements [begin, end) into the lanes. */
template <ScalarType T>
inline void
dotTail(const float *q, const std::uint8_t *raw, unsigned begin,
        unsigned end, double *lanes)
{
    for (unsigned i = begin; i < end; ++i)
        lanes[i % kLanes] += static_cast<double>(q[i]) * loadElem<T>(raw, i);
}

template <ScalarType T>
double
scalarL2(const float *q, const std::uint8_t *raw, unsigned d)
{
    double lanes[kLanes] = {};
    l2Tail<T>(q, raw, 0, d, lanes);
    return reduceLanes(lanes);
}

template <ScalarType T>
double
scalarDot(const float *q, const std::uint8_t *raw, unsigned d)
{
    double lanes[kLanes] = {};
    dotTail<T>(q, raw, 0, d, lanes);
    return reduceLanes(lanes);
}

/**
 * Bound-update step for one element (select semantics match the SIMD
 * max/min and blend instructions exactly; see BoundBatchFn).
 * @return the new contribution of the element.
 */
inline double
boundStepL2(double q, double lo, double hi)
{
    if (q < lo) {
        const double gap = lo - q;
        return gap * gap;
    }
    if (q > hi) {
        const double gap = q - hi;
        return gap * gap;
    }
    return 0.0;
}

inline double
boundStepIp(double q, double lo, double hi)
{
    return q >= 0.0 ? hi * q : lo * q;
}

/** Scalar tail of the bound-update kernels over elements [begin, end). */
template <bool IsL2>
inline void
boundTail(const float *q, double *lo, double *hi, double *contrib,
          const double *nlo, const double *nhi, unsigned begin,
          unsigned end, double *lanes)
{
    for (unsigned i = begin; i < end; ++i) {
        const double l = lo[i] > nlo[i] ? lo[i] : nlo[i];
        const double h = hi[i] < nhi[i] ? hi[i] : nhi[i];
        lo[i] = l;
        hi[i] = h;
        const double qd = static_cast<double>(q[i]);
        const double c = IsL2 ? boundStepL2(qd, l, h) : boundStepIp(qd, l, h);
        lanes[i % kLanes] += c - contrib[i];
        contrib[i] = c;
    }
}

template <bool IsL2>
double
scalarBound(const float *q, double *lo, double *hi, double *contrib,
            const double *nlo, const double *nhi, unsigned n)
{
    double lanes[kLanes] = {};
    boundTail<IsL2>(q, lo, hi, contrib, nlo, nhi, 0, n, lanes);
    return reduceLanes(lanes);
}

/**
 * Interval staging over elements [begin, end) through the et/sortable.h
 * codec (see PrefixIntervalsFn); the SIMD tiers reuse it for tails and
 * for the types they do not vectorize.
 */
template <ScalarType T>
inline void
prefixIntervalsTail(const std::uint32_t *keys, unsigned begin, unsigned end,
                    unsigned known, double *lo, double *hi)
{
    const auto mask =
        static_cast<std::uint32_t>(maskLow(et::keyBits(T) - known));
    for (unsigned i = begin; i < end; ++i) {
        const std::uint32_t lo_key = keys[i] & ~mask;
        lo[i] = et::keyToValue(T, et::clampKeyFinite(T, lo_key));
        hi[i] = et::keyToValue(T, et::clampKeyFinite(T, lo_key | mask));
    }
}

template <ScalarType T>
void
scalarPrefixIntervals(const std::uint32_t *keys, unsigned n, unsigned known,
                      double *lo, double *hi)
{
    prefixIntervalsTail<T>(keys, 0, n, known, lo, hi);
}

/**
 * fp32 interval staging, eight keys per step (kernels_avx2.cc). The
 * AVX-512 table points at it too: the -mavx512f build implies AVX2,
 * and simdLevelSupported() selects that tier only on AVX2 CPUs.
 */
void prefixIntervalsFp32Avx2(const std::uint32_t *keys, unsigned n,
                             unsigned known, double *lo, double *hi);

/** Batch driver shared by the tiers: per-row distance over an id list. */
template <RowDistFn Fn>
void
rowBatch(const float *q, const std::uint8_t *base, std::size_t stride,
         const VectorId *ids, std::size_t n, unsigned d, double *out)
{
    for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__)
        if (i + 1 < n) {
            __builtin_prefetch(
                base + static_cast<std::size_t>(ids[i + 1]) * stride);
        }
#endif
        out[i] = Fn(q, base + static_cast<std::size_t>(ids[i]) * stride, d);
    }
}

} // namespace ansmet::anns::kernel_detail

#endif // ANSMET_ANNS_KERNELS_IMPL_H
