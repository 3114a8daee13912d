#include "common/runtime/core_set.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/logging.h"

namespace ansmet::runtime {

unsigned
CoreSet::configuredLanes()
{
    // Read-only config knob, queried before any runtime thread exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): nothing mutates the env.
    if (const char *env = std::getenv("ANSMET_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
        ANSMET_WARN("ignoring invalid ANSMET_THREADS value");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

CoreSet
CoreSet::identity(unsigned n)
{
    CoreSet cs;
    if (n == 0)
        n = 1;
    cs.cores_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        cs.cores_.push_back(i);
    return cs;
}

CoreSet
CoreSet::parse(const char *spec)
{
    CoreSet cs;
    if (spec == nullptr)
        return cs;
    const std::string s(spec);
    std::size_t pos = 0;
    std::unordered_set<unsigned> seen; // linear even for "0-100000"
    auto push_unique = [&cs, &seen](unsigned core) {
        if (seen.insert(core).second)
            cs.cores_.push_back(core);
    };
    while (pos < s.size()) {
        std::size_t used = 0;
        long lo = -1;
        try {
            lo = std::stol(s.substr(pos), &used, 10);
        } catch (...) {
            return CoreSet{}; // junk token: reject the whole spec
        }
        if (lo < 0)
            return CoreSet{};
        pos += used;
        long hi = lo;
        if (pos < s.size() && s[pos] == '-') {
            ++pos;
            try {
                hi = std::stol(s.substr(pos), &used, 10);
            } catch (...) {
                return CoreSet{};
            }
            if (hi < 0)
                return CoreSet{};
            pos += used;
        }
        if (lo <= hi) {
            for (long c = lo; c <= hi; ++c)
                push_unique(static_cast<unsigned>(c));
        } else {
            for (long c = lo; c >= hi; --c)
                push_unique(static_cast<unsigned>(c));
        }
        if (pos < s.size()) {
            if (s[pos] != ',')
                return CoreSet{};
            ++pos;
        }
    }
    cs.pinned_ = !cs.cores_.empty();
    return cs;
}

CoreSet
CoreSet::configured()
{
    // Read-only config knob, queried before any runtime thread exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): nothing mutates the env.
    if (const char *env = std::getenv("ANSMET_CORES")) {
        CoreSet cs = parse(env);
        // A core the machine does not have would cost a lane that
        // cannot be pinned; 0 means the count is unknown.
        const unsigned hw = std::thread::hardware_concurrency();
        const bool exists =
            hw == 0 || std::all_of(cs.cores_.begin(), cs.cores_.end(),
                                   [hw](unsigned c) { return c < hw; });
        if (cs.size() > 0 && exists)
            return cs;
        ANSMET_WARN("ignoring invalid ANSMET_CORES value");
    }
    return identity(configuredLanes());
}

} // namespace ansmet::runtime
