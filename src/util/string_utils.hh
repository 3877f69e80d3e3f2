/**
 * @file
 * Small string helpers for parsing filter spec strings such as "EJ-32x4",
 * "VEJ-32x4-8", "IJ-10x4x7" and "HJ(IJ-10x4x7,EJ-32x4)".
 */

#ifndef JETTY_UTIL_STRING_UTILS_HH
#define JETTY_UTIL_STRING_UTILS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace jetty
{

/** Split @p s on character @p sep (no empty-token suppression). */
std::vector<std::string> split(const std::string &s, char sep);

/** True when @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Parse an unsigned decimal integer; false on any non-digit or on
 *  overflow (never the garbage-to-0 of atoi). */
bool parseUnsigned(const std::string &s, std::uint64_t &out);
bool parseUnsigned(const std::string &s, unsigned &out);

/** Parse a whole string as a finite decimal number; false on any other
 *  character, NaN or overflow (never the garbage-to-0 of atof). */
bool parseDouble(const std::string &s, double &out);

/** Trim ASCII whitespace from both ends. */
std::string trim(const std::string &s);

/** Upper-case an ASCII string. */
std::string toUpper(const std::string &s);

} // namespace jetty

#endif // JETTY_UTIL_STRING_UTILS_HH
