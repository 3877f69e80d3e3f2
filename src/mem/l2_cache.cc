#include "mem/l2_cache.hh"

#include <algorithm>
#include <cassert>

#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::mem
{

using coherence::BusOp;
using coherence::SnoopOutcome;
using coherence::State;

L2Cache::L2Cache(const L2Config &cfg) : cfg_(cfg)
{
    if (!isPowerOfTwo(cfg.sizeBytes) || !isPowerOfTwo(cfg.blockBytes) ||
        !isPowerOfTwo(cfg.assoc) || !isPowerOfTwo(cfg.subblocks)) {
        fatal("L2Cache: all geometry parameters must be powers of two");
    }
    if (cfg.subblocks == 0 || cfg.blockBytes % cfg.subblocks != 0)
        fatal("L2Cache: subblocks must evenly divide the block");

    const std::uint64_t sets = cfg.sets();
    if (sets == 0)
        fatal("L2Cache: size too small for block/assoc");

    unitMask_ = cfg.unitBytes() - 1;
    offsetBits_ = floorLog2(cfg.blockBytes);
    indexBits_ = floorLog2(sets);
    unitShift_ = floorLog2(cfg.unitBytes());
    subblockBits_ = cfg.subblocks == 1 ? 0 : floorLog2(cfg.subblocks);

    tagValid_.assign(static_cast<std::size_t>(sets) * cfg.assoc, 0);
    lastUse_.assign(tagValid_.size(), 0);
    units_.assign(tagValid_.size() * cfg.subblocks, State::Invalid);
}

void
L2Cache::addListener(CacheEventListener *listener)
{
    listeners_.push_back(listener);
}

std::uint64_t
L2Cache::setIndex(Addr a) const
{
    return bitField(a, offsetBits_, indexBits_);
}

Addr
L2Cache::tagOf(Addr a) const
{
    return a >> (offsetBits_ + indexBits_);
}

unsigned
L2Cache::unitIndex(Addr a) const
{
    return static_cast<unsigned>(bitField(a, unitShift_, subblockBits_));
}

Addr
L2Cache::unitAddrOf(Addr tag, std::uint64_t set, unsigned unit) const
{
    const Addr block_addr =
        (tag << (offsetBits_ + indexBits_)) | (set << offsetBits_);
    return block_addr + static_cast<Addr>(unit) * cfg_.unitBytes();
}

int
L2Cache::findWay(Addr a) const
{
    const std::size_t base = frameOf(setIndex(a), 0);
    const std::uint64_t want = (tagOf(a) << 1) | 1;
    return findEqU64(&tagValid_[base], cfg_.assoc, want);
}

int
L2Cache::probeWay(Addr addr, L2LookupResult &res) const
{
    res = L2LookupResult{};
    const int w = findWay(addr);
    if (w < 0)
        return -1;
    res.tagMatch = true;
    const State s =
        unitsOf(frameOf(setIndex(addr), w))[unitIndex(addr)];
    res.unitValid = coherence::isValid(s);
    res.state = s;
    return w;
}

SnoopOutcome
L2Cache::snoopAtWay(int way, Addr addr, BusOp op)
{
    if (way < 0)
        return SnoopOutcome{};
    assert(way == findWay(addr));

    State &s = unitsOf(frameOf(setIndex(addr), way))[unitIndex(addr)];
    const State cur = s;
    const SnoopOutcome out = coherence::snoopTransition(cur, op);

    if (out.next != cur) {
        s = out.next;
        if (coherence::isValid(cur) && !coherence::isValid(out.next)) {
            --validUnits_;
            notifyEvict(unitAlign(addr));
        }
    }
    return out;
}

void
L2Cache::setStateAt(int way, Addr addr, State next)
{
    assert(way == findWay(addr));
    State &s = unitsOf(frameOf(setIndex(addr), way))[unitIndex(addr)];
    if (!coherence::isValid(s))
        panic("L2Cache::setStateAt on invalid unit");
    if (!coherence::isValid(next))
        panic("L2Cache::setStateAt cannot invalidate; use snoopAtWay");
    s = next;
}

bool
L2Cache::fill(Addr addr, State state, std::vector<L2Victim> &victims)
{
    assert(coherence::isValid(state));
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const unsigned unit = unitIndex(addr);

    int w = findWay(addr);
    bool evicted = false;

    if (w < 0) {
        // Choose a victim way: an invalid one if possible, else LRU.
        const std::size_t base = frameOf(set, 0);
        int victim = -1;
        for (unsigned i = 0; i < cfg_.assoc; ++i) {
            if (!(tagValid_[base + i] & 1)) {
                victim = static_cast<int>(i);
                break;
            }
        }
        if (victim < 0) {
            std::uint64_t oldest = ~std::uint64_t{0};
            for (unsigned i = 0; i < cfg_.assoc; ++i) {
                if (lastUse_[base + i] < oldest) {
                    oldest = lastUse_[base + i];
                    victim = static_cast<int>(i);
                }
            }
        }

        std::uint64_t &tv = tagValid_[base + victim];
        State *const b_units = unitsOf(base + victim);
        if (tv & 1) {
            evicted = true;
            const Addr old_tag = tv >> 1;
            for (unsigned u = 0; u < cfg_.subblocks; ++u) {
                if (coherence::isValid(b_units[u])) {
                    const Addr ua = unitAddrOf(old_tag, set, u);
                    victims.push_back({ua, b_units[u]});
                    b_units[u] = State::Invalid;
                    --validUnits_;
                    notifyEvict(ua);
                }
            }
        }
        tv = (tag << 1) | 1;
        for (unsigned u = 0; u < cfg_.subblocks; ++u)
            b_units[u] = State::Invalid;
        w = victim;
    }

    const std::size_t frame = frameOf(set, w);
    lastUse_[frame] = ++useClock_;
    State &s = unitsOf(frame)[unit];
    if (coherence::isValid(s))
        panic("L2Cache::fill into an already-valid unit");
    s = state;
    ++validUnits_;
    notifyFill(unitAlign(addr));
    return evicted;
}

std::vector<L2UnitInfo>
L2Cache::validUnitInfo() const
{
    std::vector<L2UnitInfo> units;
    units.reserve(validUnits_);
    const std::uint64_t sets = cfg_.sets();
    for (std::uint64_t set = 0; set < sets; ++set) {
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            const std::size_t frame = frameOf(set, w);
            const std::uint64_t tv = tagValid_[frame];
            if (!(tv & 1))
                continue;
            const State *const b_units = unitsOf(frame);
            for (unsigned u = 0; u < cfg_.subblocks; ++u) {
                if (coherence::isValid(b_units[u])) {
                    units.push_back(
                        {unitAddrOf(tv >> 1, set, u), b_units[u]});
                }
            }
        }
    }
    std::sort(units.begin(), units.end(),
              [](const L2UnitInfo &a, const L2UnitInfo &b) {
                  return a.unitAddr < b.unitAddr;
              });
    return units;
}

std::vector<Addr>
L2Cache::residentBlockAddrs() const
{
    std::vector<Addr> blocks;
    const std::uint64_t sets = cfg_.sets();
    for (std::uint64_t set = 0; set < sets; ++set) {
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            const std::uint64_t tv = tagValid_[frameOf(set, w)];
            if (tv & 1)
                blocks.push_back(unitAddrOf(tv >> 1, set, 0));
        }
    }
    std::sort(blocks.begin(), blocks.end());
    return blocks;
}

void
L2Cache::notifyFill(Addr unitAddr)
{
    for (auto *l : listeners_)
        l->unitFilled(unitAddr);
}

void
L2Cache::notifyEvict(Addr unitAddr)
{
    for (auto *l : listeners_)
        l->unitEvicted(unitAddr);
}

} // namespace jetty::mem
