#include "common/check.h"

#include <cstdlib>

namespace ansmet {

namespace check_detail {

namespace {

bool
auditInit()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only config knob,
    // read once during static initialization; nothing mutates the env.
    if (const char *env = std::getenv("ANSMET_AUDIT"))
        return env[0] != '\0' && env[0] != '0';
#if defined(ANSMET_AUDIT_DEFAULT_ON) || !defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

} // namespace

bool auditOn = auditInit();

} // namespace check_detail

void
setAuditEnabled(bool on)
{
    check_detail::auditOn = on;
}

} // namespace ansmet
