/**
 * @file
 * Minimal status/error reporting helpers in the spirit of gem5's
 * logging.hh.
 *
 * Two error levels are provided:
 *  - panic():  an internal invariant was violated (a library bug);
 *              aborts so a debugger/core dump can capture the state.
 *  - fatal():  the caller supplied an invalid configuration; exits
 *              with an error code after printing a message.
 *
 * Two informational levels:
 *  - warn():   something is suspicious but the run can continue.
 *  - inform(): plain status output.
 */

#ifndef SBN_UTIL_LOGGING_HH
#define SBN_UTIL_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace sbn {

namespace detail {

/** Format and emit one log record to stderr. */
void emitLog(const char *level, const std::string &msg,
             const char *file, int line);

/** Stream-compose a message from a parameter pack. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort after reporting an internal error. Never returns. */
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);

/** Exit(1) after reporting a usage/configuration error. Never returns. */
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);

/** Report a recoverable anomaly. */
void warnImpl(const std::string &msg, const char *file, int line);

/** Report plain status. */
void informImpl(const std::string &msg);

namespace detail {

/** sbn_assert's failure path (see there). */
template <typename... Args>
[[noreturn]] __attribute__((noinline, cold)) void
assertFailed(const char *cond, const char *file, int line, Args... args)
{
    panicImpl(composeMessage("assertion '", cond, "' failed: ",
                             composeMessage(args...)),
              file, line);
}

} // namespace detail

/**
 * Render a waitpid() status word for diagnostics: "exit 0",
 * "exit 1", "signal 9 (killed)", "signal 6 (aborted) with core", or
 * "status 0x7f" for anything exotic. Used by the shard supervisor
 * and sbn_sweep's structured failure reporting.
 */
std::string describeWaitStatus(int status);

} // namespace sbn

#define sbn_panic(...)                                                      \
    ::sbn::panicImpl(::sbn::detail::composeMessage(__VA_ARGS__),            \
                     __FILE__, __LINE__)

#define sbn_fatal(...)                                                      \
    ::sbn::fatalImpl(::sbn::detail::composeMessage(__VA_ARGS__),            \
                     __FILE__, __LINE__)

#define sbn_warn(...)                                                       \
    ::sbn::warnImpl(::sbn::detail::composeMessage(__VA_ARGS__),             \
                    __FILE__, __LINE__)

#define sbn_inform(...)                                                     \
    ::sbn::informImpl(::sbn::detail::composeMessage(__VA_ARGS__))

/**
 * Invariant check that is active in all build types (unlike assert).
 * Use for conditions that must hold regardless of NDEBUG. The failure
 * path is a cold, never-inlined call taking the message parts by
 * value, so a check costs a hot loop one compare and branch even
 * under __attribute__((flatten)), which would otherwise inline every
 * message's stream formatting into it.
 */
#define sbn_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond))                                                        \
            ::sbn::detail::assertFailed(#cond, __FILE__, __LINE__,          \
                                        __VA_ARGS__);                       \
    } while (0)

/**
 * Invariant check compiled out of NDEBUG (Release) builds, for checks
 * executed millions of times per run on a kernel's innermost path
 * where even a predicted compare-and-branch is measurable. Everything
 * off the hot path should use sbn_assert, which is always active.
 */
#ifdef NDEBUG
#define sbn_debug_assert(cond, ...)                                         \
    do {                                                                    \
    } while (0)
#else
#define sbn_debug_assert(cond, ...) sbn_assert(cond, __VA_ARGS__)
#endif

#endif // SBN_UTIL_LOGGING_HH
