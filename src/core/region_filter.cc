#include "core/region_filter.hh"

#include "energy/sram_array.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::filter
{

RegionFilter::RegionFilter(const RegionFilterConfig &cfg,
                           const AddressMap &amap)
    : cfg_(cfg), amap_(amap)
{
    if (cfg.entryBits == 0 || cfg.entryBits > 24 ||
        cfg.regionBits < amap.blockOffsetBits || cfg.regionBits > 30) {
        fatal("RegionFilter: bad geometry");
    }
    counterBits_ = ceilLog2(amap.l2CapacityUnits + 1);
    counts_.assign(std::uint64_t{1} << cfg.entryBits, 0);
}

std::uint64_t
RegionFilter::indexOf(Addr unitAddr) const
{
    // Fibonacci-hash the region number so contiguous regions spread over
    // the table; a plain bit-slice would alias page-scrambled traffic
    // onto few entries.
    const std::uint64_t region = unitAddr >> cfg_.regionBits;
    return (region * 0x9e3779b97f4a7c15ULL) >> (64 - cfg_.entryBits);
}

bool
RegionFilter::probe(Addr unitAddr)
{
    return counts_[indexOf(unitAddr)] == 0;
}

void
RegionFilter::onFill(Addr unitAddr)
{
    ++counts_[indexOf(unitAddr)];
}

void
RegionFilter::onEvict(Addr unitAddr)
{
    std::uint32_t &c = counts_[indexOf(unitAddr)];
    if (c == 0)
        panic("RegionFilter: counter underflow (fill/evict imbalance)");
    --c;
}

StorageBreakdown
RegionFilter::storage() const
{
    StorageBreakdown s;
    const std::uint64_t entries = std::uint64_t{1} << cfg_.entryBits;
    s.presenceBits = entries;  // one p-bit per entry
    s.counterBits = entries * counterBits_;
    return s;
}

energy::FilterEnergyCosts
RegionFilter::energyCosts(const energy::Technology &tech) const
{
    // One p-bit array probe per snoop; counter read-modify-write per
    // fill/evict, like the Include-JETTY's bookkeeping.
    const std::uint64_t entries = std::uint64_t{1} << cfg_.entryBits;
    const std::uint64_t rows = std::uint64_t{1} << (cfg_.entryBits / 2);
    energy::SramArray pbit(rows, entries / rows, 1, tech);
    const unsigned cnt_banks = energy::SramArray::optimalBanks(
        entries, counterBits_, tech, 64, counterBits_);
    energy::SramArray cnt(entries, counterBits_, cnt_banks, tech);

    energy::FilterEnergyCosts costs;
    costs.probe = pbit.readEnergy(1);
    costs.snoopAlloc = 0.0;
    costs.fillUpdate = cnt.readEnergy(0) + cnt.writeEnergy(counterBits_) +
                       pbit.writeEnergy(1);
    costs.evictUpdate = costs.fillUpdate;
    return costs;
}

std::string
RegionFilter::name() const
{
    return "RF-" + std::to_string(cfg_.entryBits) + "x" +
           std::to_string(cfg_.regionBits);
}

} // namespace jetty::filter
