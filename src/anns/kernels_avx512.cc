/**
 * @file
 * AVX-512 kernel tier (F/BW/DQ/VL + F16C). Two 8x-double accumulators
 * hold canonical lanes 0-7 / 8-15; tails and the reduction reuse the
 * scalar helpers on the stored lane array, so results stay bitwise
 * identical to the scalar reference (see kernels.h). No FMA.
 */

#include "anns/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__) && defined(__F16C__)

#include <immintrin.h>

#include <cmath>

#include "anns/kernels_impl.h"

namespace ansmet::anns::kernel_detail {

namespace {

/** 16 values widened to 2x8 doubles (canonical lanes 0-7 / 8-15). */
struct Pair512
{
    __m512d v0, v1;
};

inline Pair512
loadQuery16z(const float *q)
{
    return {_mm512_cvtps_pd(_mm256_loadu_ps(q)),
            _mm512_cvtps_pd(_mm256_loadu_ps(q + 8))};
}

template <ScalarType T>
inline Pair512
loadElems16z(const std::uint8_t *raw, unsigned i)
{
    if constexpr (T == ScalarType::kUint8 || T == ScalarType::kInt8) {
        const __m128i b =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(raw + i));
        const __m512i w = T == ScalarType::kUint8
                              ? _mm512_cvtepu8_epi32(b)
                              : _mm512_cvtepi8_epi32(b);
        return {_mm512_cvtepi32_pd(_mm512_castsi512_si256(w)),
                _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(w, 1))};
    } else if constexpr (T == ScalarType::kFp16) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(raw + i * 2u));
        const __m512 f = _mm512_cvtph_ps(h);
        return {_mm512_cvtps_pd(_mm512_castps512_ps256(f)),
                _mm512_cvtps_pd(_mm512_extractf32x8_ps(f, 1))};
    } else {
        return loadQuery16z(reinterpret_cast<const float *>(raw) + i);
    }
}

struct Acc512
{
    __m512d a0 = _mm512_setzero_pd();
    __m512d a1 = _mm512_setzero_pd();

    void
    store(double *lanes) const
    {
        _mm512_storeu_pd(lanes + 0, a0);
        _mm512_storeu_pd(lanes + 8, a1);
    }
};

template <ScalarType T>
double
l2Avx512(const float *q, const std::uint8_t *raw, unsigned d)
{
    Acc512 acc;
    const unsigned main = d & ~(kLanes - 1);
    for (unsigned i = 0; i < main; i += kLanes) {
        const Pair512 qv = loadQuery16z(q + i);
        const Pair512 xv = loadElems16z<T>(raw, i);
        const __m512d d0 = _mm512_sub_pd(qv.v0, xv.v0);
        const __m512d d1 = _mm512_sub_pd(qv.v1, xv.v1);
        acc.a0 = _mm512_add_pd(acc.a0, _mm512_mul_pd(d0, d0));
        acc.a1 = _mm512_add_pd(acc.a1, _mm512_mul_pd(d1, d1));
    }
    double lanes[kLanes];
    acc.store(lanes);
    l2Tail<T>(q, raw, main, d, lanes);
    return reduceLanes(lanes);
}

template <ScalarType T>
double
dotAvx512(const float *q, const std::uint8_t *raw, unsigned d)
{
    Acc512 acc;
    const unsigned main = d & ~(kLanes - 1);
    for (unsigned i = 0; i < main; i += kLanes) {
        const Pair512 qv = loadQuery16z(q + i);
        const Pair512 xv = loadElems16z<T>(raw, i);
        acc.a0 = _mm512_add_pd(acc.a0, _mm512_mul_pd(qv.v0, xv.v0));
        acc.a1 = _mm512_add_pd(acc.a1, _mm512_mul_pd(qv.v1, xv.v1));
    }
    double lanes[kLanes];
    acc.store(lanes);
    dotTail<T>(q, raw, main, d, lanes);
    return reduceLanes(lanes);
}

void
normalizeAvx512(float *v, unsigned d)
{
    const double n = dotAvx512<ScalarType::kFp32>(
        v, reinterpret_cast<std::uint8_t *>(v), d);
    if (n <= 0.0)
        return;
    const float inv = static_cast<float>(1.0 / std::sqrt(n));
    const __m512 invw = _mm512_set1_ps(inv);
    unsigned i = 0;
    for (; i + 16 <= d; i += 16) {
        _mm512_storeu_ps(v + i,
                         _mm512_mul_ps(_mm512_loadu_ps(v + i), invw));
    }
    for (; i < d; ++i)
        v[i] *= inv;
}

/** One 8-wide bound-update step over elements [i, i+8). */
template <bool IsL2>
inline __m512d
boundStep8(const float *q, double *lo, double *hi, double *contrib,
           const double *nlo, const double *nhi, unsigned i)
{
    const __m512d l =
        _mm512_max_pd(_mm512_loadu_pd(lo + i), _mm512_loadu_pd(nlo + i));
    const __m512d h =
        _mm512_min_pd(_mm512_loadu_pd(hi + i), _mm512_loadu_pd(nhi + i));
    _mm512_storeu_pd(lo + i, l);
    _mm512_storeu_pd(hi + i, h);
    const __m512d qd = _mm512_cvtps_pd(_mm256_loadu_ps(q + i));
    __m512d c;
    if constexpr (IsL2) {
        const __mmask8 below = _mm512_cmp_pd_mask(qd, l, _CMP_LT_OQ);
        const __mmask8 above = _mm512_cmp_pd_mask(qd, h, _CMP_GT_OQ);
        __m512d gap = _mm512_maskz_sub_pd(below, l, qd);
        gap = _mm512_mask_sub_pd(gap, above, qd, h);
        c = _mm512_mul_pd(gap, gap);
    } else {
        const __mmask8 nonneg =
            _mm512_cmp_pd_mask(qd, _mm512_setzero_pd(), _CMP_GE_OQ);
        c = _mm512_mul_pd(_mm512_mask_blend_pd(nonneg, l, h), qd);
    }
    const __m512d delta = _mm512_sub_pd(c, _mm512_loadu_pd(contrib + i));
    _mm512_storeu_pd(contrib + i, c);
    return delta;
}

template <bool IsL2>
double
boundAvx512(const float *q, double *lo, double *hi, double *contrib,
            const double *nlo, const double *nhi, unsigned n)
{
    Acc512 acc;
    const unsigned main = n & ~(kLanes - 1);
    for (unsigned i = 0; i < main; i += kLanes) {
        acc.a0 = _mm512_add_pd(
            acc.a0, boundStep8<IsL2>(q, lo, hi, contrib, nlo, nhi, i));
        acc.a1 = _mm512_add_pd(
            acc.a1, boundStep8<IsL2>(q, lo, hi, contrib, nlo, nhi, i + 8));
    }
    double lanes[kLanes];
    acc.store(lanes);
    boundTail<IsL2>(q, lo, hi, contrib, nlo, nhi, main, n, lanes);
    return reduceLanes(lanes);
}

/**
 * Interval staging of the types this tier leaves to the scalar codec;
 * fp32 takes the AVX2 tier's staging (see makeAvx512Ops).
 */
template <ScalarType T>
void
prefixIntervalsAvx512(const std::uint32_t *keys, unsigned n,
                      unsigned known, double *lo, double *hi)
{
    prefixIntervalsTail<T>(keys, 0, n, known, lo, hi);
}

constexpr KernelOps
makeAvx512Ops()
{
    KernelOps ops;
    ops.level = SimdLevel::kAvx512;
    ops.l2[typeIndex(ScalarType::kUint8)] = l2Avx512<ScalarType::kUint8>;
    ops.l2[typeIndex(ScalarType::kInt8)] = l2Avx512<ScalarType::kInt8>;
    ops.l2[typeIndex(ScalarType::kFp16)] = l2Avx512<ScalarType::kFp16>;
    ops.l2[typeIndex(ScalarType::kFp32)] = l2Avx512<ScalarType::kFp32>;
    ops.dot[typeIndex(ScalarType::kUint8)] = dotAvx512<ScalarType::kUint8>;
    ops.dot[typeIndex(ScalarType::kInt8)] = dotAvx512<ScalarType::kInt8>;
    ops.dot[typeIndex(ScalarType::kFp16)] = dotAvx512<ScalarType::kFp16>;
    ops.dot[typeIndex(ScalarType::kFp32)] = dotAvx512<ScalarType::kFp32>;
    ops.l2Batch[typeIndex(ScalarType::kUint8)] =
        rowBatch<l2Avx512<ScalarType::kUint8>>;
    ops.l2Batch[typeIndex(ScalarType::kInt8)] =
        rowBatch<l2Avx512<ScalarType::kInt8>>;
    ops.l2Batch[typeIndex(ScalarType::kFp16)] =
        rowBatch<l2Avx512<ScalarType::kFp16>>;
    ops.l2Batch[typeIndex(ScalarType::kFp32)] =
        rowBatch<l2Avx512<ScalarType::kFp32>>;
    ops.dotBatch[typeIndex(ScalarType::kUint8)] =
        rowBatch<dotAvx512<ScalarType::kUint8>>;
    ops.dotBatch[typeIndex(ScalarType::kInt8)] =
        rowBatch<dotAvx512<ScalarType::kInt8>>;
    ops.dotBatch[typeIndex(ScalarType::kFp16)] =
        rowBatch<dotAvx512<ScalarType::kFp16>>;
    ops.dotBatch[typeIndex(ScalarType::kFp32)] =
        rowBatch<dotAvx512<ScalarType::kFp32>>;
    ops.normalize = normalizeAvx512;
    ops.boundL2 = boundAvx512<true>;
    ops.boundIp = boundAvx512<false>;
    ops.prefixIntervals[typeIndex(ScalarType::kUint8)] =
        prefixIntervalsAvx512<ScalarType::kUint8>;
    ops.prefixIntervals[typeIndex(ScalarType::kInt8)] =
        prefixIntervalsAvx512<ScalarType::kInt8>;
    ops.prefixIntervals[typeIndex(ScalarType::kFp16)] =
        prefixIntervalsAvx512<ScalarType::kFp16>;
    // Sixteen-lane fp32 staging measured no faster than eight-lane,
    // and this tier only runs where AVX2 does.
    ops.prefixIntervals[typeIndex(ScalarType::kFp32)] =
        prefixIntervalsFp32Avx2;
    return ops;
}

const KernelOps g_avx512_ops = makeAvx512Ops();

} // namespace

const KernelOps *
avx512Kernels()
{
    return &g_avx512_ops;
}

} // namespace ansmet::anns::kernel_detail

#else // AVX-512 feature set unavailable at compile time

namespace ansmet::anns::kernel_detail {

const KernelOps *
avx512Kernels()
{
    return nullptr;
}

} // namespace ansmet::anns::kernel_detail

#endif
