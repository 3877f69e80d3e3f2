#include "util/string_utils.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace jetty
{

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
        const unsigned digit = static_cast<unsigned>(c - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
parseUnsigned(const std::string &s, unsigned &out)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(s, v) || v > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    // Decimal only: strtod's hex, inf and nan spellings are refused.
    if (s.empty() || s.find_first_not_of("0123456789+-.eE") != s.npos)
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toUpper(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
}

} // namespace jetty
