/**
 * @file
 * Minimal gem5-flavoured status reporting: fatal() for user errors,
 * panic() for internal invariant violations, warn() for notices.
 */

#ifndef JETTY_UTIL_LOGGING_HH
#define JETTY_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace jetty
{

/**
 * Report a user-facing error (bad configuration, invalid arguments) and
 * exit with status 1. Mirrors gem5's fatal().
 *
 * Exits through std::_Exit after flushing stdio, so no static destructor
 * runs. fatal() may fire while sweep or replay threads are live — or in
 * a forked child that inherited none of its parent's threads — and a
 * static destructor there could wait on work that never finishes. No
 * static object does durable work in its destructor (every publication
 * commits through util/atomic_file.hh before it returns), so skipping
 * them loses nothing.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(nullptr);
    std::_Exit(1);
}

/**
 * Report an internal invariant violation (a bug in the simulator itself)
 * and abort. Mirrors gem5's panic().
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/** Non-fatal warning to stderr. */
inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace jetty

#endif // JETTY_UTIL_LOGGING_HH
