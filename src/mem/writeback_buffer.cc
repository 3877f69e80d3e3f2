#include "mem/writeback_buffer.hh"

#include "util/logging.hh"
#include "util/simd.hh"

namespace jetty::mem
{

void
WritebackBuffer::push(const WbEntry &e)
{
    if (!hasRoom())
        panic("WritebackBuffer::push without room");
    entries_.push_back(e);
    signature_ |= signatureBitOf(e.unitAddr);
}

WbEntry
WritebackBuffer::pop()
{
    if (entries_.empty())
        panic("WritebackBuffer::pop on empty buffer");
    WbEntry e = entries_.front();
    entries_.pop_front();
    rebuildSignature();
    return e;
}

bool
WritebackBuffer::contains(Addr unitAddr) const
{
    for (const auto &e : entries_) {
        if (e.unitAddr == unitAddr)
            return true;
    }
    return false;
}

bool
WritebackBuffer::snoop(Addr unitAddr, bool invalidate)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->unitAddr != unitAddr)
            continue;
        if (invalidate) {
            entries_.erase(it);
            rebuildSignature();
        } else if (it->state == coherence::State::Modified) {
            it->state = coherence::State::Owned;
        }
        return true;
    }
    return false;
}

bool
WritebackBuffer::demoteForRead(Addr unitAddr)
{
    for (auto &e : entries_) {
        if (e.unitAddr == unitAddr) {
            if (e.state == coherence::State::Modified)
                e.state = coherence::State::Owned;
            return true;
        }
    }
    return false;
}

WbEntry
WritebackBuffer::take(Addr unitAddr, bool &found)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->unitAddr == unitAddr) {
            WbEntry e = *it;
            entries_.erase(it);
            rebuildSignature();
            found = true;
            return e;
        }
    }
    found = false;
    return WbEntry{};
}

void
WritebackBuffer::rebuildSignature()
{
    // One vector sweep over the (<= capacity) live entries: hash every
    // address to its one-hot bit, then OR the bits together. Identical
    // to signatureBitOf per entry — simd::oneHotHash is the same
    // preShift/mul/postShift pipeline, kernel-tested against it.
    std::uint64_t addrs[64], bits[64];
    std::size_t n = 0;
    for (const auto &e : entries_) {
        addrs[n++] = e.unitAddr;
        if (n == 64) {
            break;  // a 64-bit signature is saturated by 64 entries
        }
    }
    simd::oneHotHash(addrs, n, kSigPreShift, kSigMul, kSigPostShift, bits);
    std::uint64_t sig = 0;
    for (std::size_t k = 0; k < n; ++k)
        sig |= bits[k];
    // Entries beyond the vector batch (capacity > 64) fold in scalar.
    for (std::size_t k = 64; k < entries_.size(); ++k)
        sig |= signatureBitOf(entries_[k].unitAddr);
    signature_ = sig;
}

} // namespace jetty::mem
