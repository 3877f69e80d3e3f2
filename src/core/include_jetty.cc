#include "core/include_jetty.hh"

#include "energy/sram_array.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::filter
{

IncludeJetty::IncludeJetty(const IncludeJettyConfig &cfg,
                           const AddressMap &amap)
    : cfg_(cfg), amap_(amap)
{
    if (cfg.entryBits == 0 || cfg.entryBits > 24 || cfg.arrays == 0 ||
        cfg.skipBits == 0) {
        fatal("IncludeJetty: bad geometry");
    }
    baseOffsetBits_ = cfg.base == IjIndexBase::Block ? amap.blockOffsetBits
                                                     : amap.unitOffsetBits;
    // Pessimistic sizing: a single entry may match every cached unit
    // (Section 3.2 makes the same worst-case assumption).
    counterBits_ = ceilLog2(amap.l2CapacityUnits + 1);
    counts_.assign(static_cast<std::size_t>(cfg.arrays)
                       << cfg.entryBits, 0);
    pbits_.assign((counts_.size() + 63) / 64, 0);
}

std::uint64_t
IncludeJetty::indexOf(Addr unitAddr, unsigned i) const
{
    return bitField(unitAddr, baseOffsetBits_ + i * cfg_.skipBits,
                    cfg_.entryBits);
}

bool
IncludeJetty::probe(Addr unitAddr)
{
    for (unsigned i = 0; i < cfg_.arrays; ++i) {
        const std::size_t slot = slotOf(i, indexOf(unitAddr, i));
        if (!(pbits_[slot >> 6] & (std::uint64_t{1} << (slot & 63))))
            return true;  // one empty superset slice => guaranteed absent
    }
    return false;
}

void
IncludeJetty::onFill(Addr unitAddr)
{
    for (unsigned i = 0; i < cfg_.arrays; ++i) {
        const std::size_t slot = slotOf(i, indexOf(unitAddr, i));
        if (counts_[slot]++ == 0)
            pbits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
}

void
IncludeJetty::onEvict(Addr unitAddr)
{
    for (unsigned i = 0; i < cfg_.arrays; ++i) {
        const std::size_t slot = slotOf(i, indexOf(unitAddr, i));
        std::uint32_t &c = counts_[slot];
        if (c == 0)
            panic("IncludeJetty: counter underflow (fill/evict imbalance)");
        if (--c == 0)
            pbits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }
}

void
IncludeJetty::pbitArrayShape(std::uint64_t &rows, std::uint64_t &cols) const
{
    // Fold 2^E bits into the widest register-file-like shape with rows <=
    // cols (Table 4: 1024 -> 32x32, 512 -> 16x32, 256 -> 16x16, ...).
    const unsigned e = cfg_.entryBits;
    rows = std::uint64_t{1} << (e / 2);
    cols = std::uint64_t{1} << (e - e / 2);
}

StorageBreakdown
IncludeJetty::storage() const
{
    StorageBreakdown s;
    const std::uint64_t entries = std::uint64_t{1} << cfg_.entryBits;
    s.presenceBits = static_cast<std::uint64_t>(cfg_.arrays) * entries;
    s.counterBits = static_cast<std::uint64_t>(cfg_.arrays) * entries *
                    counterBits_;
    return s;
}

energy::FilterEnergyCosts
IncludeJetty::energyCosts(const energy::Technology &tech) const
{
    // A snoop reads a single p-bit from each sub-array; the p-bit arrays
    // are tiny register-file-shaped structures (Section 3.2 / Table 4).
    std::uint64_t rows, cols;
    pbitArrayShape(rows, cols);
    energy::SramArray pbit(rows, cols, 1, tech);
    const double probe_one = pbit.readEnergy(1);

    // Counter updates read-modify-write one cnt entry per sub-array and
    // occasionally write the p-bit. The cnt arrays are separate,
    // power-optimized structures (Figure 3c): one counter per row, banked
    // by the CACTI-lite optimizer so only a short bitline segment cycles.
    const std::uint64_t entries = std::uint64_t{1} << cfg_.entryBits;
    const unsigned cnt_banks = energy::SramArray::optimalBanks(
        entries, counterBits_, tech, 64, counterBits_);
    energy::SramArray cnt(entries, counterBits_, cnt_banks, tech);
    const double update_one = cnt.readEnergy(0) +
                              cnt.writeEnergy(counterBits_) +
                              pbit.writeEnergy(1);

    energy::FilterEnergyCosts costs;
    costs.probe = static_cast<double>(cfg_.arrays) * probe_one;
    costs.snoopAlloc = 0.0;  // IJ never allocates on snoops
    costs.fillUpdate = static_cast<double>(cfg_.arrays) * update_one;
    costs.evictUpdate = costs.fillUpdate;
    return costs;
}

std::string
IncludeJetty::name() const
{
    std::string n = "IJ-" + std::to_string(cfg_.entryBits) + "x" +
                    std::to_string(cfg_.arrays) + "x" +
                    std::to_string(cfg_.skipBits);
    if (cfg_.base == IjIndexBase::Unit)
        n += "u";
    return n;
}

} // namespace jetty::filter
