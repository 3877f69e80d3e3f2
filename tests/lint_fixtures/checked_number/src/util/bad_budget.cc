// Fixture: strtoull() with a null end pointer cannot see trailing
// garbage ("1e9" reads as 1) — named with file:line. The checked call
// below it passes an end pointer and must stay silent.
#include <cstdlib>

namespace jetty
{

unsigned long long
budgetFromEnv(const char *env)
{
    return std::strtoull(env, nullptr, 10);  // line 12: null end pointer
}

bool
checkedBudget(const char *env, unsigned long long &out)
{
    char *end = nullptr;
    out = std::strtoull(env, &end, 10);
    return end != env && *end == '\0';
}

} // namespace jetty
