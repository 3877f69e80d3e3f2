// Fixture: benches are scanned too — a flag read with atoll().
#include <cstdlib>

long long
limitFlag(const char *arg)
{
    return std::atoll(arg);  // line 7
}
