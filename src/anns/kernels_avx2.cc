/**
 * @file
 * AVX2 kernel tier. Compiled with -mavx2 -mf16c -ffp-contract=off;
 * when the toolchain cannot target AVX2 (non-x86), the tier degrades
 * to a null table and dispatch falls back to scalar.
 *
 * Lane mapping (see kernels.h): four 4x-double accumulators a0..a3
 * hold canonical lanes 0-3 / 4-7 / 8-11 / 12-15; the tail and the
 * reduction reuse the scalar helpers on the stored lane array, so
 * results are bitwise identical to the scalar reference. No FMA: the
 * contract requires a rounded multiply followed by a rounded add.
 */

#include "anns/kernels.h"

#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

#include <cmath>

#include "anns/kernels_impl.h"

namespace ansmet::anns::kernel_detail {

namespace {

/** 16 query floats starting at @p q, widened to 4x4 doubles. */
struct Quad
{
    __m256d v0, v1, v2, v3;
};

inline Quad
loadQuery16(const float *q)
{
    return {_mm256_cvtps_pd(_mm_loadu_ps(q)),
            _mm256_cvtps_pd(_mm_loadu_ps(q + 4)),
            _mm256_cvtps_pd(_mm_loadu_ps(q + 8)),
            _mm256_cvtps_pd(_mm_loadu_ps(q + 12))};
}

template <ScalarType T>
inline Quad
loadElems16(const std::uint8_t *raw, unsigned i)
{
    if constexpr (T == ScalarType::kUint8 || T == ScalarType::kInt8) {
        const __m128i b =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(raw + i));
        const __m256i lo8 = T == ScalarType::kUint8
                                ? _mm256_cvtepu8_epi32(b)
                                : _mm256_cvtepi8_epi32(b);
        const __m128i bhi = _mm_srli_si128(b, 8);
        const __m256i hi8 = T == ScalarType::kUint8
                                ? _mm256_cvtepu8_epi32(bhi)
                                : _mm256_cvtepi8_epi32(bhi);
        return {_mm256_cvtepi32_pd(_mm256_castsi256_si128(lo8)),
                _mm256_cvtepi32_pd(_mm256_extracti128_si256(lo8, 1)),
                _mm256_cvtepi32_pd(_mm256_castsi256_si128(hi8)),
                _mm256_cvtepi32_pd(_mm256_extracti128_si256(hi8, 1))};
    } else if constexpr (T == ScalarType::kFp16) {
        const auto *p = reinterpret_cast<const __m128i *>(raw + i * 2u);
        const __m256 f0 = _mm256_cvtph_ps(_mm_loadu_si128(p));
        const __m256 f1 = _mm256_cvtph_ps(_mm_loadu_si128(p + 1));
        return {_mm256_cvtps_pd(_mm256_castps256_ps128(f0)),
                _mm256_cvtps_pd(_mm256_extractf128_ps(f0, 1)),
                _mm256_cvtps_pd(_mm256_castps256_ps128(f1)),
                _mm256_cvtps_pd(_mm256_extractf128_ps(f1, 1))};
    } else {
        const float *p = reinterpret_cast<const float *>(raw) + i;
        return loadQuery16(p);
    }
}

/**
 * Store the four accumulators as the canonical lane array, fold in the
 * scalar tail, and reduce. Shared by every AVX2 kernel so the
 * association matches the scalar reference exactly.
 */
struct Acc
{
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();

    void
    store(double *lanes) const
    {
        _mm256_storeu_pd(lanes + 0, a0);
        _mm256_storeu_pd(lanes + 4, a1);
        _mm256_storeu_pd(lanes + 8, a2);
        _mm256_storeu_pd(lanes + 12, a3);
    }
};

template <ScalarType T>
double
l2Avx2(const float *q, const std::uint8_t *raw, unsigned d)
{
    Acc acc;
    const unsigned main = d & ~(kLanes - 1);
    for (unsigned i = 0; i < main; i += kLanes) {
        const Quad qv = loadQuery16(q + i);
        const Quad xv = loadElems16<T>(raw, i);
        const __m256d d0 = _mm256_sub_pd(qv.v0, xv.v0);
        const __m256d d1 = _mm256_sub_pd(qv.v1, xv.v1);
        const __m256d d2 = _mm256_sub_pd(qv.v2, xv.v2);
        const __m256d d3 = _mm256_sub_pd(qv.v3, xv.v3);
        acc.a0 = _mm256_add_pd(acc.a0, _mm256_mul_pd(d0, d0));
        acc.a1 = _mm256_add_pd(acc.a1, _mm256_mul_pd(d1, d1));
        acc.a2 = _mm256_add_pd(acc.a2, _mm256_mul_pd(d2, d2));
        acc.a3 = _mm256_add_pd(acc.a3, _mm256_mul_pd(d3, d3));
    }
    double lanes[kLanes];
    acc.store(lanes);
    l2Tail<T>(q, raw, main, d, lanes);
    return reduceLanes(lanes);
}

template <ScalarType T>
double
dotAvx2(const float *q, const std::uint8_t *raw, unsigned d)
{
    Acc acc;
    const unsigned main = d & ~(kLanes - 1);
    for (unsigned i = 0; i < main; i += kLanes) {
        const Quad qv = loadQuery16(q + i);
        const Quad xv = loadElems16<T>(raw, i);
        acc.a0 = _mm256_add_pd(acc.a0, _mm256_mul_pd(qv.v0, xv.v0));
        acc.a1 = _mm256_add_pd(acc.a1, _mm256_mul_pd(qv.v1, xv.v1));
        acc.a2 = _mm256_add_pd(acc.a2, _mm256_mul_pd(qv.v2, xv.v2));
        acc.a3 = _mm256_add_pd(acc.a3, _mm256_mul_pd(qv.v3, xv.v3));
    }
    double lanes[kLanes];
    acc.store(lanes);
    dotTail<T>(q, raw, main, d, lanes);
    return reduceLanes(lanes);
}

void
normalizeAvx2(float *v, unsigned d)
{
    const double n =
        dotAvx2<ScalarType::kFp32>(v, reinterpret_cast<std::uint8_t *>(v), d);
    if (n <= 0.0)
        return;
    const float inv = static_cast<float>(1.0 / std::sqrt(n));
    const __m256 inv8 = _mm256_set1_ps(inv);
    unsigned i = 0;
    for (; i + 8 <= d; i += 8)
        _mm256_storeu_ps(v + i, _mm256_mul_ps(_mm256_loadu_ps(v + i), inv8));
    for (; i < d; ++i)
        v[i] *= inv;
}

/** One 4-wide bound-update step over elements [i, i+4). */
template <bool IsL2>
inline __m256d
boundStep4(const float *q, double *lo, double *hi, double *contrib,
           const double *nlo, const double *nhi, unsigned i)
{
    const __m256d l =
        _mm256_max_pd(_mm256_loadu_pd(lo + i), _mm256_loadu_pd(nlo + i));
    const __m256d h =
        _mm256_min_pd(_mm256_loadu_pd(hi + i), _mm256_loadu_pd(nhi + i));
    _mm256_storeu_pd(lo + i, l);
    _mm256_storeu_pd(hi + i, h);
    const __m256d qd = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
    __m256d c;
    if constexpr (IsL2) {
        const __m256d below = _mm256_cmp_pd(qd, l, _CMP_LT_OQ);
        const __m256d above = _mm256_cmp_pd(qd, h, _CMP_GT_OQ);
        __m256d gap = _mm256_blendv_pd(_mm256_setzero_pd(),
                                       _mm256_sub_pd(l, qd), below);
        gap = _mm256_blendv_pd(gap, _mm256_sub_pd(qd, h), above);
        c = _mm256_mul_pd(gap, gap);
    } else {
        const __m256d nonneg =
            _mm256_cmp_pd(qd, _mm256_setzero_pd(), _CMP_GE_OQ);
        c = _mm256_mul_pd(_mm256_blendv_pd(l, h, nonneg), qd);
    }
    const __m256d delta = _mm256_sub_pd(c, _mm256_loadu_pd(contrib + i));
    _mm256_storeu_pd(contrib + i, c);
    return delta;
}

template <bool IsL2>
double
boundAvx2(const float *q, double *lo, double *hi, double *contrib,
          const double *nlo, const double *nhi, unsigned n)
{
    Acc acc;
    const unsigned main = n & ~(kLanes - 1);
    for (unsigned i = 0; i < main; i += kLanes) {
        acc.a0 = _mm256_add_pd(
            acc.a0, boundStep4<IsL2>(q, lo, hi, contrib, nlo, nhi, i));
        acc.a1 = _mm256_add_pd(
            acc.a1, boundStep4<IsL2>(q, lo, hi, contrib, nlo, nhi, i + 4));
        acc.a2 = _mm256_add_pd(
            acc.a2, boundStep4<IsL2>(q, lo, hi, contrib, nlo, nhi, i + 8));
        acc.a3 = _mm256_add_pd(
            acc.a3, boundStep4<IsL2>(q, lo, hi, contrib, nlo, nhi, i + 12));
    }
    double lanes[kLanes];
    acc.store(lanes);
    boundTail<IsL2>(q, lo, hi, contrib, nlo, nhi, main, n, lanes);
    return reduceLanes(lanes);
}

/**
 * Decode eight fp32 sortable keys to doubles at @p out: unsigned
 * min/max clamp to the finite key range, then the sign select of
 * et::fromKey (a set top bit marks a non-negative value: clear it;
 * otherwise invert), then the exact float -> double widening.
 */
inline void
storeFp32Values8(__m256i key, double *out)
{
    const __m256i max_key = _mm256_set1_epi32(static_cast<int>(
        et::clampKeyFinite(ScalarType::kFp32, ~std::uint32_t{0})));
    const __m256i min_key = _mm256_set1_epi32(static_cast<int>(
        et::clampKeyFinite(ScalarType::kFp32, 0)));
    const __m256i k =
        _mm256_max_epu32(_mm256_min_epu32(key, max_key), min_key);
    const __m256 raw = _mm256_blendv_ps(
        _mm256_castsi256_ps(_mm256_xor_si256(k, _mm256_set1_epi32(-1))),
        _mm256_castsi256_ps(
            _mm256_and_si256(k, _mm256_set1_epi32(0x7fffffff))),
        _mm256_castsi256_ps(k));
    _mm256_storeu_pd(out, _mm256_cvtps_pd(_mm256_castps256_ps128(raw)));
    _mm256_storeu_pd(out + 4,
                     _mm256_cvtps_pd(_mm256_extractf128_ps(raw, 1)));
}

/** Interval staging of the types this tier leaves to the scalar codec. */
template <ScalarType T>
void
prefixIntervalsAvx2(const std::uint32_t *keys, unsigned n, unsigned known,
                    double *lo, double *hi)
{
    prefixIntervalsTail<T>(keys, 0, n, known, lo, hi);
}

constexpr KernelOps
makeAvx2Ops()
{
    KernelOps ops;
    ops.level = SimdLevel::kAvx2;
    ops.l2[typeIndex(ScalarType::kUint8)] = l2Avx2<ScalarType::kUint8>;
    ops.l2[typeIndex(ScalarType::kInt8)] = l2Avx2<ScalarType::kInt8>;
    ops.l2[typeIndex(ScalarType::kFp16)] = l2Avx2<ScalarType::kFp16>;
    ops.l2[typeIndex(ScalarType::kFp32)] = l2Avx2<ScalarType::kFp32>;
    ops.dot[typeIndex(ScalarType::kUint8)] = dotAvx2<ScalarType::kUint8>;
    ops.dot[typeIndex(ScalarType::kInt8)] = dotAvx2<ScalarType::kInt8>;
    ops.dot[typeIndex(ScalarType::kFp16)] = dotAvx2<ScalarType::kFp16>;
    ops.dot[typeIndex(ScalarType::kFp32)] = dotAvx2<ScalarType::kFp32>;
    ops.l2Batch[typeIndex(ScalarType::kUint8)] =
        rowBatch<l2Avx2<ScalarType::kUint8>>;
    ops.l2Batch[typeIndex(ScalarType::kInt8)] =
        rowBatch<l2Avx2<ScalarType::kInt8>>;
    ops.l2Batch[typeIndex(ScalarType::kFp16)] =
        rowBatch<l2Avx2<ScalarType::kFp16>>;
    ops.l2Batch[typeIndex(ScalarType::kFp32)] =
        rowBatch<l2Avx2<ScalarType::kFp32>>;
    ops.dotBatch[typeIndex(ScalarType::kUint8)] =
        rowBatch<dotAvx2<ScalarType::kUint8>>;
    ops.dotBatch[typeIndex(ScalarType::kInt8)] =
        rowBatch<dotAvx2<ScalarType::kInt8>>;
    ops.dotBatch[typeIndex(ScalarType::kFp16)] =
        rowBatch<dotAvx2<ScalarType::kFp16>>;
    ops.dotBatch[typeIndex(ScalarType::kFp32)] =
        rowBatch<dotAvx2<ScalarType::kFp32>>;
    ops.normalize = normalizeAvx2;
    ops.boundL2 = boundAvx2<true>;
    ops.boundIp = boundAvx2<false>;
    ops.prefixIntervals[typeIndex(ScalarType::kUint8)] =
        prefixIntervalsAvx2<ScalarType::kUint8>;
    ops.prefixIntervals[typeIndex(ScalarType::kInt8)] =
        prefixIntervalsAvx2<ScalarType::kInt8>;
    ops.prefixIntervals[typeIndex(ScalarType::kFp16)] =
        prefixIntervalsAvx2<ScalarType::kFp16>;
    ops.prefixIntervals[typeIndex(ScalarType::kFp32)] =
        prefixIntervalsFp32Avx2;
    return ops;
}

const KernelOps g_avx2_ops = makeAvx2Ops();

} // namespace

void
prefixIntervalsFp32Avx2(const std::uint32_t *keys, unsigned n,
                        unsigned known, double *lo, double *hi)
{
    const __m256i mask = _mm256_set1_epi32(
        static_cast<int>(maskLow(et::keyBits(ScalarType::kFp32) - known)));
    const unsigned main = n & ~7u;
    for (unsigned i = 0; i < main; i += 8) {
        const __m256i lo_key = _mm256_andnot_si256(
            mask,
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(keys + i)));
        storeFp32Values8(lo_key, lo + i);
        storeFp32Values8(_mm256_or_si256(lo_key, mask), hi + i);
    }
    prefixIntervalsTail<ScalarType::kFp32>(keys, main, n, known, lo, hi);
}

const KernelOps *
avx2Kernels()
{
    return &g_avx2_ops;
}

} // namespace ansmet::anns::kernel_detail

#else // !(__AVX2__ && __F16C__)

namespace ansmet::anns::kernel_detail {

const KernelOps *
avx2Kernels()
{
    return nullptr;
}

} // namespace ansmet::anns::kernel_detail

#endif
