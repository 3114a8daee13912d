/**
 * @file
 * Error and status reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated (simulator bug); aborts.
 * fatal()  — the user asked for something impossible (bad config); exits.
 * warn()   — something is suspicious but the run can continue.
 * inform() — plain status output.
 */

#ifndef ANSMET_COMMON_LOGGING_H
#define ANSMET_COMMON_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

namespace ansmet {

namespace detail {

/** Concatenate a parameter pack into a single string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

#define ANSMET_PANIC(...) \
    ::ansmet::detail::panicImpl(__FILE__, __LINE__, \
                                ::ansmet::detail::concat(__VA_ARGS__))

#define ANSMET_FATAL(...) \
    ::ansmet::detail::fatalImpl(__FILE__, __LINE__, \
                                ::ansmet::detail::concat(__VA_ARGS__))

#define ANSMET_WARN(...) \
    ::ansmet::detail::warnImpl(::ansmet::detail::concat(__VA_ARGS__))

#define ANSMET_INFORM(...) \
    ::ansmet::detail::informImpl(::ansmet::detail::concat(__VA_ARGS__))

} // namespace ansmet

#endif // ANSMET_COMMON_LOGGING_H
