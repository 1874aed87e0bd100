/**
 * @file
 * Status-message and error helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a simulator bug); aborts.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits with code 2,
 *            the command-line usage-error status.
 * warn()   — something may work but not as well as it should.
 * inform() — normal status output.
 */

#ifndef FAFNIR_COMMON_LOGGING_HH
#define FAFNIR_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

namespace fafnir
{

/** Severity of a log message. */
enum class LogLevel
{
    Panic,
    Fatal,
    Warn,
};

/** The process-wide sink of every log message (stderr). */
class Logger
{
  public:
    /** Returns the process-wide logger. */
    static Logger &instance();

    /** Emit a message at the given level; panic/fatal do not return. */
    [[gnu::cold]] void log(LogLevel level, const std::string &message,
                           const char *file, int line);

  private:
    Logger() = default;
};

namespace detail
{

/** Build a message from stream-formattable parts. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

namespace logging
{

/**
 * Count-based token bucket for rate-limited warnings. Deliberately
 * clock-free: a bucket starts with @p capacity tokens, every allowed
 * call spends one, and one token refills per @p refillEvery suppressed
 * calls — so the decision sequence is a pure function of the call
 * count and identical across runs and machines.
 */
class TokenBucket
{
  public:
    explicit TokenBucket(std::uint64_t capacity = 1,
                         std::uint64_t refillEvery = 100)
        : capacity_(capacity ? capacity : 1),
          refillEvery_(refillEvery ? refillEvery : 1),
          tokens_(capacity_)
    {}

    /** Spend a token if one is available; count the call either way. */
    bool
    allow()
    {
        if (tokens_ > 0) {
            --tokens_;
            ++allowed_;
            return true;
        }
        ++suppressed_;
        if (++sinceRefill_ >= refillEvery_) {
            sinceRefill_ = 0;
            if (tokens_ < capacity_)
                ++tokens_;
        }
        return false;
    }

    std::uint64_t allowed() const { return allowed_; }
    std::uint64_t suppressed() const { return suppressed_; }
    std::uint64_t tokens() const { return tokens_; }

  private:
    std::uint64_t capacity_;
    std::uint64_t refillEvery_;
    std::uint64_t tokens_;
    std::uint64_t sinceRefill_ = 0;
    std::uint64_t allowed_ = 0;
    std::uint64_t suppressed_ = 0;
};

/**
 * Should the warning identified by @p site be emitted this time?
 * Each distinct site string owns one process-wide default TokenBucket
 * (one warning, then one per 100 suppressed calls); suppressed counts
 * are flushed to stderr at process exit so a rate-limited warning can
 * never vanish without trace. Usage:
 *
 *     if (logging::warnEvery("memsystem.slow_read"))
 *         FAFNIR_WARN("read took ", ns, "ns");
 */
bool warnEvery(const std::string &site);

/** Suppressed-call count of @p site so far (0 for unknown sites). */
std::uint64_t warnEverySuppressed(const std::string &site);

} // namespace logging

} // namespace fafnir

/** Report an unrecoverable internal error and abort. */
#define FAFNIR_PANIC(...)                                                   \
    do {                                                                    \
        ::fafnir::Logger::instance().log(                                   \
            ::fafnir::LogLevel::Panic,                                      \
            ::fafnir::detail::format(__VA_ARGS__), __FILE__, __LINE__);    \
        ::std::abort();                                                     \
    } while (0)

/** Report an unrecoverable user error and exit with status 2. */
#define FAFNIR_FATAL(...)                                                   \
    do {                                                                    \
        ::fafnir::Logger::instance().log(                                   \
            ::fafnir::LogLevel::Fatal,                                      \
            ::fafnir::detail::format(__VA_ARGS__), __FILE__, __LINE__);    \
        ::std::exit(2);                                                     \
    } while (0)

/** Report a suspicious-but-survivable condition. */
#define FAFNIR_WARN(...)                                                    \
    ::fafnir::Logger::instance().log(                                       \
        ::fafnir::LogLevel::Warn,                                           \
        ::fafnir::detail::format(__VA_ARGS__), __FILE__, __LINE__)

/** Panic when @p cond is false. Cheap enough to keep in release builds. */
#define FAFNIR_ASSERT(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            FAFNIR_PANIC("assertion failed: " #cond " ",                    \
                         ::fafnir::detail::format("" __VA_ARGS__));         \
        }                                                                   \
    } while (0)

#endif // FAFNIR_COMMON_LOGGING_HH
