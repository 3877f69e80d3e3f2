#include "sim/interconnect.hh"

#include "util/logging.hh"

namespace jetty::sim
{

Interconnect::Interconnect(unsigned buses, unsigned blockOffsetBits)
    : buses_(buses), blockOffsetBits_(blockOffsetBits)
{
    if (buses_ < 1)
        fatal("Interconnect: need at least one snoop bus");
}

} // namespace jetty::sim
