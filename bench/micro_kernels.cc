/**
 * @file
 * Google-benchmark microbenchmarks of the hot kernels: distance
 * computation, sortable-key codecs, interval staging, bound
 * accumulation, layout transformation, and per-comparison fetch
 * simulation. These are the loops the whole experiment pipeline spends
 * its host time in.
 */

#include <benchmark/benchmark.h>

#include <cctype>
#include <string>
#include <vector>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/distance.h"
#include "anns/heap.h"
#include "anns/kernels.h"
#include "common/prng.h"
#include "common/simd.h"
#include "et/bounds.h"
#include "et/fetchsim.h"
#include "et/layout.h"
#include "et/profile.h"
#include "et/sortable.h"

namespace {

using namespace ansmet;

const anns::Dataset &
deep()
{
    static const anns::Dataset ds =
        anns::makeDataset(anns::DatasetId::kDeep, 2000, 8, 1);
    return ds;
}

const et::EtProfile &
deepProfile()
{
    static const et::EtProfile prof = [] {
        et::ProfileConfig cfg;
        cfg.numSamples = 50;
        cfg.maxPairs = 500;
        return et::buildProfile(*deep().base, deep().metric(), cfg);
    }();
    return prof;
}

void
BM_DistanceL2(benchmark::State &state)
{
    const auto &ds = deep();
    const auto &q = ds.queries[0];
    VectorId v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            anns::l2Sq(q.data(), *ds.base, v));
        v = (v + 1) % static_cast<VectorId>(ds.base->size());
    }
    state.SetItemsProcessed(state.iterations() * ds.base->dims());
}
BENCHMARK(BM_DistanceL2);

void
BM_DistanceIp(benchmark::State &state)
{
    const auto &ds = deep();
    const auto &q = ds.queries[0];
    VectorId v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(anns::negIp(q.data(), *ds.base, v));
        v = (v + 1) % static_cast<VectorId>(ds.base->size());
    }
    state.SetItemsProcessed(state.iterations() * ds.base->dims());
}
BENCHMARK(BM_DistanceIp);

void
BM_SortableKeyRoundTrip(benchmark::State &state)
{
    Prng rng(1);
    std::uint32_t x = static_cast<std::uint32_t>(rng.next());
    for (auto _ : state) {
        x = et::fromKey(anns::ScalarType::kFp32,
                        et::toKey(anns::ScalarType::kFp32, x) + 1);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_SortableKeyRoundTrip);

void
BM_BoundAccumulatorSweep(benchmark::State &state)
{
    const auto &ds = deep();
    const auto &vs = *ds.base;
    const auto &q = ds.queries[0];
    const unsigned w = et::keyBits(vs.type());
    const auto len = static_cast<unsigned>(state.range(0));

    for (auto _ : state) {
        et::BoundAccumulator acc(ds.metric(), q.data(), vs.dims(),
                                 deepProfile().globalRange);
        for (unsigned d = 0; d < vs.dims(); ++d) {
            const std::uint32_t key = et::toKey(vs.type(), vs.bitsAt(0, d));
            acc.update(d, et::intervalFromPrefix(vs.type(),
                                                 key >> (w - len), len));
        }
        benchmark::DoNotOptimize(acc.lowerBound());
    }
    state.SetItemsProcessed(state.iterations() * ds.base->dims());
}
BENCHMARK(BM_BoundAccumulatorSweep)->Arg(4)->Arg(16)->Arg(32);

void
BM_TransformVector(benchmark::State &state)
{
    const auto &ds = deep();
    const auto plan =
        et::FetchPlanSpec::heuristic(ds.base->type(), ds.base->dims());
    VectorId v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(et::transformVector(plan, *ds.base, v));
        v = (v + 1) % static_cast<VectorId>(ds.base->size());
    }
}
BENCHMARK(BM_TransformVector);

void
BM_FetchSimulate(benchmark::State &state)
{
    const auto &ds = deep();
    const auto scheme = static_cast<et::EtScheme>(state.range(0));
    const et::FetchSimulator sim(*ds.base, ds.metric(), scheme,
                                 &deepProfile());
    const auto &q = ds.queries[0];
    const auto gt =
        anns::bruteForceKnn(ds.metric(), q.data(), *ds.base, 10);
    const double threshold = gt.back().dist;
    VectorId v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.simulate(q.data(), v, threshold));
        v = (v + 1) % static_cast<VectorId>(ds.base->size());
    }
}
BENCHMARK(BM_FetchSimulate)
    ->Arg(static_cast<int>(et::EtScheme::kNone))
    ->Arg(static_cast<int>(et::EtScheme::kHeuristic))
    ->Arg(static_cast<int>(et::EtScheme::kOpt));

void
BM_ResultSetOffer(benchmark::State &state)
{
    Prng rng(3);
    for (auto _ : state) {
        anns::ResultSet rs(10);
        for (int i = 0; i < 256; ++i)
            rs.offer({rng.uniform(), static_cast<VectorId>(i)});
        benchmark::DoNotOptimize(rs.worst());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ResultSetOffer);

// --------------------------------------------------------------------
// Per-tier kernel benchmarks (registered dynamically, one set per ISA
// tier the build and CPU support). Names follow
//   kernel_<op>/<type-or-metric>/<tier>
// so tools/bench_diff.py --speedup can pair each SIMD entry with its
// scalar sibling. CI runs these with
//   --benchmark_filter='kernel_' --benchmark_out=BENCH_kernels.json
//   --benchmark_out_format=json
// and asserts the fp32 L2 batch speedup (see .github/workflows/ci.yml).
// --------------------------------------------------------------------

constexpr unsigned kKernelDims = 96;
constexpr std::size_t kKernelRows = 1024;
constexpr std::size_t kKernelBatch = 256;

struct KernelBenchData
{
    anns::VectorSet vs;
    std::vector<float> query;
    std::vector<VectorId> ids;

    explicit KernelBenchData(anns::ScalarType t)
        : vs(kKernelRows, kKernelDims, t), query(kKernelDims)
    {
        Prng rng(42);
        for (VectorId v = 0; v < kKernelRows; ++v) {
            for (unsigned d = 0; d < kKernelDims; ++d) {
                const float lo = t == anns::ScalarType::kUint8 ? 0.f : -8.f;
                const float hi = t == anns::ScalarType::kUint8 ? 255.f : 8.f;
                vs.set(v, d, static_cast<float>(rng.uniform(lo, hi)));
            }
        }
        for (unsigned d = 0; d < kKernelDims; ++d)
            query[d] = static_cast<float>(rng.uniform(-8.0, 8.0));
        for (std::size_t i = 0; i < kKernelBatch; ++i) {
            ids.push_back(static_cast<VectorId>(
                (i * 7 + 3) % kKernelRows));
        }
    }
};

const KernelBenchData &
kernelData(anns::ScalarType t)
{
    static const KernelBenchData u8(anns::ScalarType::kUint8);
    static const KernelBenchData i8(anns::ScalarType::kInt8);
    static const KernelBenchData f16(anns::ScalarType::kFp16);
    static const KernelBenchData f32(anns::ScalarType::kFp32);
    switch (t) {
      case anns::ScalarType::kUint8: return u8;
      case anns::ScalarType::kInt8:  return i8;
      case anns::ScalarType::kFp16:  return f16;
      case anns::ScalarType::kFp32:  return f32;
    }
    return f32;
}

void
BM_KernelRowDist(benchmark::State &state, const anns::KernelOps *ops,
                 anns::ScalarType t, bool l2)
{
    const KernelBenchData &data = kernelData(t);
    const unsigned ti = anns::typeIndex(t);
    const anns::RowDistFn fn = l2 ? ops->l2[ti] : ops->dot[ti];
    VectorId v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fn(data.query.data(), data.vs.raw(v), kKernelDims));
        v = (v + 1) % kKernelRows;
    }
    state.SetItemsProcessed(state.iterations() * kKernelDims);
}

void
BM_KernelBatchDist(benchmark::State &state, const anns::KernelOps *ops,
                   anns::ScalarType t, bool l2)
{
    const KernelBenchData &data = kernelData(t);
    const unsigned ti = anns::typeIndex(t);
    const anns::RowBatchFn fn = l2 ? ops->l2Batch[ti] : ops->dotBatch[ti];
    std::vector<double> out(kKernelBatch);
    for (auto _ : state) {
        fn(data.query.data(), data.vs.raw(0), data.vs.vectorBytes(),
           data.ids.data(), kKernelBatch, kKernelDims, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kKernelBatch *
                            kKernelDims);
}

void
BM_KernelBound(benchmark::State &state, const anns::KernelOps *ops,
               bool l2)
{
    const KernelBenchData &data = kernelData(anns::ScalarType::kFp32);
    // Converged interval state: every call performs the full
    // intersect/contribute/delta arithmetic with zero net change, so
    // iterations time identical instruction streams.
    std::vector<double> lo(kKernelDims, -8.0), hi(kKernelDims, 8.0);
    std::vector<double> contrib(kKernelDims, 0.0);
    std::vector<double> nlo(kKernelDims), nhi(kKernelDims);
    Prng rng(7);
    for (unsigned d = 0; d < kKernelDims; ++d) {
        nlo[d] = rng.uniform(-8.0, 0.0);
        nhi[d] = rng.uniform(0.0, 8.0);
        const double q = data.query[d];
        if (l2) {
            contrib[d] = 0.0;
        } else {
            contrib[d] = q >= 0.0 ? hi[d] * q : lo[d] * q;
        }
    }
    const anns::BoundBatchFn fn = l2 ? ops->boundL2 : ops->boundIp;
    double total = 0.0;
    for (auto _ : state) {
        total += fn(data.query.data(), lo.data(), hi.data(),
                    contrib.data(), nlo.data(), nhi.data(), kKernelDims);
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() * kKernelDims);
}

void
BM_KernelPrefixIntervals(benchmark::State &state, const anns::KernelOps *ops,
                         anns::ScalarType t)
{
    const KernelBenchData &data = kernelData(t);
    const anns::PrefixIntervalsFn fn =
        ops->prefixIntervals[anns::typeIndex(t)];
    // One fetched line's worth of staging per iteration: a row's keys
    // at half the key width known, rows cycling as in a scan.
    std::vector<std::uint32_t> keys(kKernelRows * kKernelDims);
    for (VectorId v = 0; v < kKernelRows; ++v) {
        for (unsigned d = 0; d < kKernelDims; ++d) {
            keys[std::size_t{v} * kKernelDims + d] =
                et::toKey(t, data.vs.bitsAt(v, d));
        }
    }
    const unsigned known = et::keyBits(t) / 2;
    std::vector<double> lo(kKernelDims), hi(kKernelDims);
    VectorId v = 0;
    for (auto _ : state) {
        fn(keys.data() + std::size_t{v} * kKernelDims, kKernelDims, known,
           lo.data(), hi.data());
        benchmark::DoNotOptimize(lo.data());
        benchmark::DoNotOptimize(hi.data());
        benchmark::ClobberMemory();
        v = (v + 1) % kKernelRows;
    }
    state.SetItemsProcessed(state.iterations() * kKernelDims);
}

void
BM_KernelNormalize(benchmark::State &state, const anns::KernelOps *ops)
{
    const KernelBenchData &data = kernelData(anns::ScalarType::kFp32);
    std::vector<float> v = data.query;
    for (auto _ : state) {
        ops->normalize(v.data(), kKernelDims);
        benchmark::DoNotOptimize(v.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kKernelDims);
}

void
registerKernelBenches()
{
    constexpr anns::ScalarType kTypes[] = {
        anns::ScalarType::kUint8, anns::ScalarType::kInt8,
        anns::ScalarType::kFp16, anns::ScalarType::kFp32};
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
        const anns::KernelOps *ops = anns::kernelsFor(level);
        if (!ops)
            continue;
        const std::string tier = simdLevelName(level);
        for (const anns::ScalarType t : kTypes) {
            std::string ty = anns::scalarName(t);
            for (char &c : ty)
                c = static_cast<char>(std::tolower(c));
            benchmark::RegisterBenchmark(
                ("kernel_l2/" + ty + "/" + tier).c_str(),
                BM_KernelRowDist, ops, t, true);
            benchmark::RegisterBenchmark(
                ("kernel_ip/" + ty + "/" + tier).c_str(),
                BM_KernelRowDist, ops, t, false);
            benchmark::RegisterBenchmark(
                ("kernel_l2_batch/" + ty + "/" + tier).c_str(),
                BM_KernelBatchDist, ops, t, true);
            benchmark::RegisterBenchmark(
                ("kernel_ip_batch/" + ty + "/" + tier).c_str(),
                BM_KernelBatchDist, ops, t, false);
            benchmark::RegisterBenchmark(
                ("kernel_prefix_intervals/" + ty + "/" + tier).c_str(),
                BM_KernelPrefixIntervals, ops, t);
        }
        benchmark::RegisterBenchmark(
            ("kernel_bound_l2/" + tier).c_str(), BM_KernelBound, ops,
            true);
        benchmark::RegisterBenchmark(
            ("kernel_bound_ip/" + tier).c_str(), BM_KernelBound, ops,
            false);
        benchmark::RegisterBenchmark(
            ("kernel_normalize/" + tier).c_str(), BM_KernelNormalize,
            ops);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerKernelBenches();
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
