/**
 * @file
 * Scope guards for process-wide switches the tests flip: the active
 * kernel tier and audit mode. Each restores the saved value on scope
 * exit, so a fatal assertion that returns early cannot leak a forced
 * tier or audit setting into the rest of the test binary.
 */

#ifndef ANSMET_TESTS_TEST_GUARDS_H
#define ANSMET_TESTS_TEST_GUARDS_H

#include "anns/kernels.h"
#include "common/check.h"
#include "common/simd.h"

namespace ansmet::test {

/** Restores the startup kernel tier on scope exit. */
class KernelLevelGuard
{
  public:
    KernelLevelGuard() : saved_(anns::activeKernelLevel()) {}
    ~KernelLevelGuard() { anns::setKernelLevel(saved_); }

  private:
    SimdLevel saved_;
};

/** Forces audit mode on/off for the scope. */
class AuditGuard
{
  public:
    explicit AuditGuard(bool on) : saved_(auditEnabled())
    {
        setAuditEnabled(on);
    }
    ~AuditGuard() { setAuditEnabled(saved_); }

  private:
    bool saved_;
};

} // namespace ansmet::test

#endif // ANSMET_TESTS_TEST_GUARDS_H
