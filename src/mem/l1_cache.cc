#include "mem/l1_cache.hh"

#include <algorithm>
#include <cassert>

#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::mem
{

L1Cache::L1Cache(const L1Config &cfg) : cfg_(cfg)
{
    if (!isPowerOfTwo(cfg.sizeBytes) || !isPowerOfTwo(cfg.blockBytes) ||
        !isPowerOfTwo(cfg.assoc)) {
        fatal("L1Cache: all geometry parameters must be powers of two");
    }
    const std::uint64_t sets = cfg.sets();
    if (sets == 0)
        fatal("L1Cache: size too small for block/assoc");

    offsetBits_ = floorLog2(cfg.blockBytes);
    indexBits_ = floorLog2(sets);
    assocShift_ = floorLog2(cfg.assoc);

    const std::size_t frames = static_cast<std::size_t>(sets) * cfg.assoc;
    tagw_.assign(frames, 0);
    lastUse_.assign(frames, 0);
    dirty_.assign(frames, 0);
}

std::uint64_t
L1Cache::setIndex(Addr a) const
{
    return bitField(a, offsetBits_, indexBits_);
}

Addr
L1Cache::tagOf(Addr a) const
{
    return a >> (offsetBits_ + indexBits_);
}

Addr
L1Cache::lineAddrOf(Addr tag, std::uint64_t set) const
{
    return (tag << (offsetBits_ + indexBits_)) | (set << offsetBits_);
}

int
L1Cache::findWay(Addr a) const
{
    const std::size_t base = static_cast<std::size_t>(setIndex(a))
                             << assocShift_;
    const std::uint64_t key = (tagOf(a) << 2) | 1;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if ((tagw_[base + w] & ~std::uint64_t{2}) == key)
            return static_cast<int>(w);
    }
    return -1;
}

L1LookupResult
L1Cache::probe(Addr addr) const
{
    L1LookupResult res;
    const int w = findWay(addr);
    if (w < 0)
        return res;
    const std::size_t frame =
        (static_cast<std::size_t>(setIndex(addr)) << assocShift_) + w;
    res.hit = true;
    res.writable = (tagw_[frame] & 2) != 0;
    res.dirty = dirty_[frame] != 0;
    return res;
}

void
L1Cache::grantWrite(Addr addr)
{
    const int w = findWay(addr);
    if (w < 0)
        panic("L1Cache::grantWrite on absent line");
    const std::size_t frame =
        (static_cast<std::size_t>(setIndex(addr)) << assocShift_) + w;
    tagw_[frame] |= 2;
    dirty_[frame] = 1;
    lastUse_[frame] = ++useClock_;
}

void
L1Cache::fill(Addr addr, bool writable, bool dirty, L1Victim &victim)
{
    victim = L1Victim{};
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);

    if (findWay(addr) >= 0)
        panic("L1Cache::fill of an already-present line");
    assert(writable || !dirty);

    const std::size_t base = static_cast<std::size_t>(set) << assocShift_;
    int target = -1;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!(tagw_[base + w] & 1)) {
            target = static_cast<int>(w);
            break;
        }
    }
    if (target < 0) {
        std::uint64_t oldest = ~std::uint64_t{0};
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (lastUse_[base + w] < oldest) {
                oldest = lastUse_[base + w];
                target = static_cast<int>(w);
            }
        }
    }

    const std::size_t frame = base + target;
    if (tagw_[frame] & 1) {
        victim.valid = true;
        victim.dirty = dirty_[frame] != 0;
        victim.lineAddr = lineAddrOf(tagw_[frame] >> 2, set);
        --validLines_;
    }
    tagw_[frame] = (static_cast<std::uint64_t>(tag) << 2) |
                   (writable ? std::uint64_t{2} : 0) | 1;
    dirty_[frame] = dirty ? 1 : 0;
    lastUse_[frame] = ++useClock_;
    ++validLines_;
}

std::vector<L1LineInfo>
L1Cache::validLineInfo() const
{
    std::vector<L1LineInfo> lines;
    lines.reserve(validLines_);
    const std::uint64_t sets = cfg_.sets();
    for (std::uint64_t set = 0; set < sets; ++set) {
        const std::size_t base = static_cast<std::size_t>(set)
                                 << assocShift_;
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            const std::uint64_t word = tagw_[base + w];
            if (!(word & 1))
                continue;
            L1LineInfo info;
            info.lineAddr = lineAddrOf(word >> 2, set);
            info.writable = (word & 2) != 0;
            info.dirty = dirty_[base + w] != 0;
            lines.push_back(info);
        }
    }
    std::sort(lines.begin(), lines.end(),
              [](const L1LineInfo &a, const L1LineInfo &b) {
                  return a.lineAddr < b.lineAddr;
              });
    return lines;
}

bool
L1Cache::invalidate(Addr addr)
{
    const int w = findWay(addr);
    if (w < 0)
        return false;
    const std::size_t frame =
        (static_cast<std::size_t>(setIndex(addr)) << assocShift_) + w;
    const bool was_dirty = dirty_[frame] != 0;
    // Clear valid and writable; the stale tag bits can never match again
    // because a lookup key always carries valid=1.
    tagw_[frame] &= ~std::uint64_t{3};
    dirty_[frame] = 0;
    --validLines_;
    return was_dirty;
}

} // namespace jetty::mem
