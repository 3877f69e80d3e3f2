#include "mem/writeback_buffer.hh"

#include "util/logging.hh"

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
    std::uint64_t sig = 0;
    for (const auto &e : entries_)
        sig |= signatureBitOf(e.unitAddr);
    signature_ = sig;
}

} // namespace jetty::mem
