/**
 * @file
 * Implementation of the process-wide logger.
 */

#include "logging.hh"

#include <cstdio>
#include <mutex>
#include <vector>

namespace fafnir
{

namespace
{

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Panic:
        return "panic";
      case LogLevel::Fatal:
        return "fatal";
      case LogLevel::Warn:
        return "warn";
    }
    return "?";
}

} // namespace

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

namespace logging
{

namespace
{

struct Site
{
    std::string name;
    TokenBucket bucket;
};

struct SiteRegistry
{
    std::mutex mutex;
    std::vector<Site> sites;

    Site &
    get(const std::string &name)
    {
        for (Site &s : sites)
            if (s.name == name)
                return s;
        sites.push_back({name, TokenBucket()});
        return sites.back();
    }
};

SiteRegistry *g_registry = nullptr;

void
flushSuppressed()
{
    if (g_registry == nullptr)
        return;
    std::lock_guard<std::mutex> lock(g_registry->mutex);
    for (const Site &s : g_registry->sites) {
        if (s.bucket.suppressed() > 0) {
            std::fprintf(stderr,
                         "warn: %s: %llu similar warning(s) suppressed\n",
                         s.name.c_str(),
                         static_cast<unsigned long long>(
                             s.bucket.suppressed()));
        }
    }
    std::fflush(stderr);
}

/** Leaked on purpose: the atexit flush may run after static
 *  destructors would have torn a plain static down. */
SiteRegistry &
registry()
{
    static SiteRegistry *r = [] {
        g_registry = new SiteRegistry;
        std::atexit(flushSuppressed);
        return g_registry;
    }();
    return *r;
}

} // namespace

bool
warnEvery(const std::string &site)
{
    SiteRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.get(site).bucket.allow();
}

std::uint64_t
warnEverySuppressed(const std::string &site)
{
    SiteRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const Site &s : reg.sites)
        if (s.name == site)
            return s.bucket.suppressed();
    return 0;
}

} // namespace logging

void
Logger::log(LogLevel level, const std::string &message, const char *file,
            int line)
{
    if (level == LogLevel::Panic || level == LogLevel::Fatal) {
        std::fprintf(stderr, "%s: %s (%s:%d)\n", levelName(level),
                     message.c_str(), file, line);
    } else {
        std::fprintf(stderr, "%s: %s\n", levelName(level), message.c_str());
    }
    std::fflush(stderr);
    // Termination for panic/fatal happens in the macro so the compiler can
    // see the [[noreturn]] control flow at the call site.
}

} // namespace fafnir
