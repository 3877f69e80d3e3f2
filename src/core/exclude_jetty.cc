#include "core/exclude_jetty.hh"

#include "energy/sram_array.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::filter
{

ExcludeJetty::ExcludeJetty(const ExcludeJettyConfig &cfg,
                           const AddressMap &amap)
    : cfg_(cfg), amap_(amap)
{
    if (!isPowerOfTwo(cfg.sets) || cfg.assoc == 0)
        fatal("ExcludeJetty: sets must be a power of two, assoc non-zero");
    if (cfg.vectorBits != 0 &&
        (!isPowerOfTwo(cfg.vectorBits) || cfg.vectorBits > 64)) {
        fatal("VectorExcludeJetty: bad geometry");
    }
    vecBits_ = cfg.vectorBits != 0 ? floorLog2(cfg.vectorBits) : 0;
    setBits_ = floorLog2(cfg.sets);
    const unsigned consumed = amap.blockOffsetBits + vecBits_ + setBits_;
    if (amap.physAddrBits <= consumed)
        fatal("ExcludeJetty: address space too small");
    tagBits_ = amap.physAddrBits - consumed;
    tagValid_.assign(static_cast<std::size_t>(cfg.sets) * cfg.assoc, 0);
    vector_.assign(tagValid_.size(), 0);
    lastUse_.assign(tagValid_.size(), 0);
}

inline ExcludeJetty::Slot
ExcludeJetty::lookup(Addr blk) const
{
    // A VEJ's set index sits above its vector-selection bits; this is
    // why a VEJ with the same sets/assoc as an EJ hashes addresses
    // differently (the thrashing effect the paper observes on Barnes).
    const std::size_t base =
        static_cast<std::size_t>((blk >> vecBits_) & (cfg_.sets - 1)) *
        cfg_.assoc;
    const std::uint64_t key = ((blk >> (vecBits_ + setBits_)) << 1) | 1;
    const std::uint64_t vecMask = (std::uint64_t{1} << vecBits_) - 1;
    return {base, key, std::uint64_t{1} << (blk & vecMask),
            findEqU64(&tagValid_[base], cfg_.assoc, key)};
}

inline bool
ExcludeJetty::probeAt(const Slot &s)
{
    if (s.way < 0)
        return false;
    const std::size_t i = s.base + static_cast<unsigned>(s.way);
    lastUse_[i] = ++useClock_;
    return (vector_[i] & s.bit) != 0;
}

inline void
ExcludeJetty::recordAt(const Slot &s)
{
    // The chunk's entry gains the block's bit. Without one, allocate:
    // the first invalid way, else the least recently used (the first
    // minimum of the clocks).
    std::size_t i = s.base;
    if (s.way >= 0) {
        i += static_cast<unsigned>(s.way);
        vector_[i] |= s.bit;
    } else {
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (!(tagValid_[s.base + w] & 1)) {
                i = s.base + w;
                break;
            }
            if (lastUse_[s.base + w] < lastUse_[i])
                i = s.base + w;
        }
        tagValid_[i] = s.key;
        vector_[i] = s.bit;
    }
    lastUse_[i] = ++useClock_;
}

inline void
ExcludeJetty::fillAt(const Slot &s)
{
    if (s.way < 0)
        return;
    // Part of the block is now cached: its guarantee is void, and an
    // entry whose vector empties dies (the tag stays, invalid).
    const std::size_t i = s.base + static_cast<unsigned>(s.way);
    vector_[i] &= ~s.bit;
    if (vector_[i] == 0)
        tagValid_[i] &= ~std::uint64_t{1};
}

bool
ExcludeJetty::probe(Addr unitAddr)
{
    return probeAt(lookup(unitAddr >> amap_.blockOffsetBits));
}

void
ExcludeJetty::onSnoopMiss(Addr unitAddr, bool blockPresent)
{
    // Only a whole-block miss gives the "nothing of this block is cached"
    // guarantee an entry encodes; a tag-matching subblock miss does not.
    if (blockPresent)
        return;
    recordAt(lookup(unitAddr >> amap_.blockOffsetBits));
}

void
ExcludeJetty::onFill(Addr unitAddr)
{
    fillAt(lookup(unitAddr >> amap_.blockOffsetBits));
}

void
ExcludeJetty::applyBatch(SnoopFilter *const *peers,
                         FilterStats *const *stats, std::size_t nPeers,
                         const BankEvent *evs, std::size_t n)
{
    // Peers share this filter's dynamic type, so the static downcast is
    // exact.
    const auto ej = [peers](std::size_t j) -> ExcludeJetty & {
        return static_cast<ExcludeJetty &>(*peers[j]);
    };
    Slot s{};  // the probe's lookup, carried into the miss that follows
    replayBankEvents(
        stats, nPeers, evs, n, amap_.blockOffsetBits,
        [&](std::size_t j, Addr blk) {
            s = ej(j).lookup(blk);
            return ej(j).probeAt(s);
        },
        [&](std::size_t j, Addr, bool blockPresent) {
            if (!blockPresent)
                ej(j).recordAt(s);
        },
        [&](std::size_t j, Addr blk) { ej(j).fillAt(ej(j).lookup(blk)); },
        [](std::size_t, Addr) {});  // exclude JETTYs ignore evictions
}

StorageBreakdown
ExcludeJetty::storage() const
{
    StorageBreakdown s;
    s.presenceBits = static_cast<std::uint64_t>(cfg_.sets) * cfg_.assoc *
                     (tagBits_ + (1u << vecBits_));
    return s;
}

energy::FilterEnergyCosts
ExcludeJetty::energyCosts(const energy::Technology &tech) const
{
    // A tiny tag array: one row per set, all ways side by side, each
    // way a tag and its present vector (one bit for the EJ).
    const unsigned vectorBits = 1u << vecBits_;
    const std::uint64_t cols =
        static_cast<std::uint64_t>(cfg_.assoc) * (tagBits_ + vectorBits);
    energy::SramArray array(cfg_.sets, cols, 1, tech);
    const double comparators =
        static_cast<double>(cfg_.assoc) * tagBits_ * tech.eComparatorPerBit;

    energy::FilterEnergyCosts costs;
    // The comparators (and a VEJ's vector-bit muxes) sit beside the
    // array (register-file scale), so no long output wires are driven:
    // bitsOut = 0, comparator term added.
    costs.probe = array.readEnergy(0) + comparators;
    costs.snoopAlloc = array.writeEnergy(tagBits_ + vectorBits);
    // A local fill must search the array and clear a matching bit.
    costs.fillUpdate = costs.probe + array.writeEnergy(vectorBits);
    costs.evictUpdate = 0.0;  // exclude JETTYs ignore evictions
    return costs;
}

std::string
ExcludeJetty::name() const
{
    const std::string geometry =
        std::to_string(cfg_.sets) + "x" + std::to_string(cfg_.assoc);
    if (cfg_.vectorBits == 0)
        return "EJ-" + geometry;
    return "VEJ-" + geometry + "-" + std::to_string(cfg_.vectorBits);
}

} // namespace jetty::filter
