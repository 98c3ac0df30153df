/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * panic()  - a simulator bug; aborts.
 * fatal()  - a user/configuration error; exits with status 1.
 * warn()   - something works but is suspicious.
 * inform() - plain status output.
 *
 * All four drain through the mutex-guarded sink in logging.cc, so
 * messages from concurrent sweep runs (harness/sweep_pool.hh) come out
 * as whole lines instead of interleaved fragments.
 */

#ifndef FDP_SIM_LOGGING_HH
#define FDP_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace fdp
{

/**
 * A fatal() raised on a thread where exiting is not allowed (a sweep
 * worker — see detail::FatalThrowsGuard). Carries the formatted
 * message; runJobs() keeps it in the failing job's slot and, once every
 * worker has joined, re-raises it on the calling thread, where it
 * becomes a normal fatal exit.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail
{

/**
 * Types that may be forwarded to the printf machinery. Passing anything
 * else (a std::string, a struct, ...) through a C variadic call is
 * undefined behavior, so the gate is enforced at compile time; callers
 * must pass `.c_str()` / a scalar instead.
 */
template <typename T>
concept Printable =
    std::is_arithmetic_v<std::remove_cvref_t<T>> ||
    std::is_enum_v<std::remove_cvref_t<T>> ||
    std::is_pointer_v<std::remove_cvref_t<T>> ||
    std::is_array_v<std::remove_cvref_t<T>> ||
    std::is_null_pointer_v<std::remove_cvref_t<T>>;

template <Printable... Args>
std::string
formatMessage(const char *fmt, Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string(fmt);
    } else {
        const int n = std::snprintf(nullptr, 0, fmt,
                                    std::forward<Args>(args)...);
        std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
        if (n > 0)
            std::snprintf(out.data(), out.size() + 1, fmt,
                          std::forward<Args>(args)...);
        return out;
    }
}

/**
 * Serialized line writer behind every helper below (logging.cc): one
 * "<prefix><message>\n" per call, under a process-wide mutex.
 */
void emitLine(std::FILE *stream, const char *prefix,
              const std::string &message);

/**
 * Terminate on a fatal(): print "fatal: <message>" and exit(1) — or, on
 * a thread holding a FatalThrowsGuard, throw FatalError(message)
 * instead, deferring both the diagnostic and the exit to whichever
 * thread catches it. std::exit from a worker thread while siblings run
 * is undefined behavior (static destructors race live workers), so the
 * sweep runner routes every worker fatal through this escape hatch.
 */
[[noreturn]] void fatalExit(const std::string &message);

/**
 * RAII guard: while alive, fatal() on this thread throws FatalError
 * instead of exiting the process. Each runJobs worker
 * (src/harness/sweep_pool.cc) holds one for its whole life, and nothing
 * else holds one.
 */
class FatalThrowsGuard
{
  public:
    FatalThrowsGuard();
    ~FatalThrowsGuard();

    FatalThrowsGuard(const FatalThrowsGuard &) = delete;
    FatalThrowsGuard &operator=(const FatalThrowsGuard &) = delete;
};

} // namespace detail

/** Report an internal simulator bug and abort. */
template <detail::Printable... Args>
[[noreturn]] void
panic(const char *fmt, Args &&...args)
{
    detail::emitLine(stderr, "panic: ",
                     detail::formatMessage(fmt,
                                           std::forward<Args>(args)...));
    std::abort();
}

/**
 * Report an unrecoverable user/configuration error and exit — except on
 * a sweep worker thread, where it throws FatalError for the main
 * thread to report (see detail::FatalThrowsGuard).
 */
template <detail::Printable... Args>
[[noreturn]] void
fatal(const char *fmt, Args &&...args)
{
    detail::fatalExit(detail::formatMessage(fmt,
                                            std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <detail::Printable... Args>
void
warn(const char *fmt, Args &&...args)
{
    detail::emitLine(stderr, "warn: ",
                     detail::formatMessage(fmt,
                                           std::forward<Args>(args)...));
}

/** Report plain status output. */
template <detail::Printable... Args>
void
inform(const char *fmt, Args &&...args)
{
    detail::emitLine(stdout, "info: ",
                     detail::formatMessage(fmt,
                                           std::forward<Args>(args)...));
}

} // namespace fdp

#endif // FDP_SIM_LOGGING_HH
