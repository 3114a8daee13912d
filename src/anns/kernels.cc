/**
 * @file
 * Kernel registry: the scalar reference table and the runtime dispatch
 * that picks the startup tier from CPU detection + ANSMET_KERNEL.
 *
 * Built with -ffp-contract=off (see src/anns/CMakeLists.txt) so the
 * compiler cannot fuse the reference loops' multiply-adds; contraction
 * would break the bitwise parity contract with the intrinsic tiers.
 */

#include "anns/kernels.h"

#include <cmath>
#include <cstdlib>

#include "anns/kernels_impl.h"
#include "common/logging.h"

namespace ansmet::anns {

namespace kernel_detail {

// Active dispatch table. release on store / acquire on load: readers
// that see the pointer must also see the pointed-to table fully
// initialized. The shipped tables are constant-initialized statics, so
// this is conservative today, but it keeps a dynamically registered
// table (tests install tiers via setKernelLevel) publication-safe.
std::atomic<const KernelOps *> g_active{nullptr};

namespace {

void
scalarNormalize(float *v, unsigned d)
{
    const double n = scalarDot<ScalarType::kFp32>(
        v, reinterpret_cast<const std::uint8_t *>(v), d);
    if (n <= 0.0)
        return;
    const float inv = static_cast<float>(1.0 / std::sqrt(n));
    for (unsigned i = 0; i < d; ++i)
        v[i] *= inv;
}

constexpr KernelOps
makeScalarOps()
{
    KernelOps ops;
    ops.level = SimdLevel::kScalar;
    ops.l2[typeIndex(ScalarType::kUint8)] = scalarL2<ScalarType::kUint8>;
    ops.l2[typeIndex(ScalarType::kInt8)] = scalarL2<ScalarType::kInt8>;
    ops.l2[typeIndex(ScalarType::kFp16)] = scalarL2<ScalarType::kFp16>;
    ops.l2[typeIndex(ScalarType::kFp32)] = scalarL2<ScalarType::kFp32>;
    ops.dot[typeIndex(ScalarType::kUint8)] = scalarDot<ScalarType::kUint8>;
    ops.dot[typeIndex(ScalarType::kInt8)] = scalarDot<ScalarType::kInt8>;
    ops.dot[typeIndex(ScalarType::kFp16)] = scalarDot<ScalarType::kFp16>;
    ops.dot[typeIndex(ScalarType::kFp32)] = scalarDot<ScalarType::kFp32>;
    ops.l2Batch[typeIndex(ScalarType::kUint8)] =
        rowBatch<scalarL2<ScalarType::kUint8>>;
    ops.l2Batch[typeIndex(ScalarType::kInt8)] =
        rowBatch<scalarL2<ScalarType::kInt8>>;
    ops.l2Batch[typeIndex(ScalarType::kFp16)] =
        rowBatch<scalarL2<ScalarType::kFp16>>;
    ops.l2Batch[typeIndex(ScalarType::kFp32)] =
        rowBatch<scalarL2<ScalarType::kFp32>>;
    ops.dotBatch[typeIndex(ScalarType::kUint8)] =
        rowBatch<scalarDot<ScalarType::kUint8>>;
    ops.dotBatch[typeIndex(ScalarType::kInt8)] =
        rowBatch<scalarDot<ScalarType::kInt8>>;
    ops.dotBatch[typeIndex(ScalarType::kFp16)] =
        rowBatch<scalarDot<ScalarType::kFp16>>;
    ops.dotBatch[typeIndex(ScalarType::kFp32)] =
        rowBatch<scalarDot<ScalarType::kFp32>>;
    ops.normalize = scalarNormalize;
    ops.boundL2 = scalarBound<true>;
    ops.boundIp = scalarBound<false>;
    ops.prefixIntervals[typeIndex(ScalarType::kUint8)] =
        scalarPrefixIntervals<ScalarType::kUint8>;
    ops.prefixIntervals[typeIndex(ScalarType::kInt8)] =
        scalarPrefixIntervals<ScalarType::kInt8>;
    ops.prefixIntervals[typeIndex(ScalarType::kFp16)] =
        scalarPrefixIntervals<ScalarType::kFp16>;
    ops.prefixIntervals[typeIndex(ScalarType::kFp32)] =
        scalarPrefixIntervals<ScalarType::kFp32>;
    return ops;
}

const KernelOps g_scalar_ops = makeScalarOps();

} // namespace

const KernelOps *
scalarKernels()
{
    return &g_scalar_ops;
}

const KernelOps &
resolveKernels()
{
    static const KernelOps *resolved = [] {
        SimdLevel level = bestSimdLevel();
        // Read-only knob, queried once under the static-init guard.
        // NOLINTNEXTLINE(concurrency-mt-unsafe): nothing mutates the env.
        if (const char *env = std::getenv("ANSMET_KERNEL")) {
            SimdLevel want;
            if (!parseSimdLevel(env, &want)) {
                ANSMET_WARN("ANSMET_KERNEL=", env,
                            " is not scalar|avx2|avx512; using ",
                            simdLevelName(level));
            } else if (!kernelsFor(want)) {
                ANSMET_WARN("ANSMET_KERNEL=", env,
                            " unavailable on this CPU/build; using ",
                            simdLevelName(level));
            } else {
                level = want;
            }
        }
        // Walk down to the strongest tier that was actually compiled
        // in (a non-x86 or old-compiler build may only have scalar).
        const KernelOps *ops = kernelsFor(level);
        if (!ops && level == SimdLevel::kAvx512)
            ops = kernelsFor(SimdLevel::kAvx2);
        if (!ops)
            ops = scalarKernels();
        // Keep any table a pre-resolution setKernelLevel() installed.
        // acq_rel: release publishes `ops` on success, acquire makes a
        // concurrently installed table visible on failure.
        const KernelOps *expected = nullptr;
        g_active.compare_exchange_strong(expected, ops,
                                         std::memory_order_acq_rel);
        return g_active.load(std::memory_order_acquire);
    }();
    return *resolved;
}

} // namespace kernel_detail

const KernelOps *
kernelsFor(SimdLevel level)
{
    if (!simdLevelSupported(level))
        return nullptr;
    switch (level) {
      case SimdLevel::kScalar:
        return kernel_detail::scalarKernels();
      case SimdLevel::kAvx2:
        return kernel_detail::avx2Kernels();
      case SimdLevel::kAvx512:
        return kernel_detail::avx512Kernels();
    }
    return nullptr;
}

bool
setKernelLevel(SimdLevel level)
{
    const KernelOps *ops = kernelsFor(level);
    if (!ops)
        return false;
    kernel_detail::g_active.store(ops, std::memory_order_release);
    return true;
}

} // namespace ansmet::anns
