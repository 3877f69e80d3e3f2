// Fixture: two unchecked conversions the lint must name with file:line —
// a bare atoi() and a std::-qualified atof(), each of which reads a typo
// as 0.
#include <cstdlib>

namespace jetty
{

unsigned
jobsFromEnv(const char *env)
{
    return static_cast<unsigned>(atoi(env));  // line 12: bare call
}

double
scaleFromEnv(const char *env)
{
    return std::atof(env);  // line 18: std-qualified call
}

} // namespace jetty
