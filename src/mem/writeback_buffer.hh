/**
 * @file
 * Bus-side write-back buffer. Dirty coherence units evicted from the L2
 * wait here until the bus drains them to memory. Snoops always probe the
 * buffer (the JETTY never filters it -- the paper points out the WB array
 * is tiny compared to the L2 tags, so probing it is cheap), and a
 * processor's own miss may reclaim an in-flight victim. A snoop is one
 * snoop() call behind a maybeContainsSig() gate; a reclaim is take().
 */

#ifndef JETTY_MEM_WRITEBACK_BUFFER_HH
#define JETTY_MEM_WRITEBACK_BUFFER_HH

#include <cstdint>
#include <deque>

#include "coherence/moesi.hh"
#include "util/types.hh"

namespace jetty::mem
{

/** One dirty coherence unit awaiting its memory update. */
struct WbEntry
{
    Addr unitAddr = 0;
    coherence::State state = coherence::State::Invalid;
};

/** FIFO write-back buffer of bounded capacity. */
class WritebackBuffer
{
  public:
    /** @param capacity maximum in-flight victims (paper-era systems use a
     *  handful; we default to 8). */
    explicit WritebackBuffer(unsigned capacity = 8) : capacity_(capacity) {}

    /** True when another victim can be accepted without draining. */
    bool hasRoom() const { return entries_.size() < capacity_; }

    /** True when no victims are pending. */
    bool empty() const { return entries_.empty(); }

    /** Number of pending victims. */
    std::size_t size() const { return entries_.size(); }

    /** Buffer capacity. */
    unsigned capacity() const { return capacity_; }

    /** Enqueue a victim; the caller must ensure room (drain first). */
    void push(const WbEntry &e);

    /** Drain the oldest victim (caller issues the memory write). */
    WbEntry pop();

    /**
     * Conservative one-load presence test of the unit whose
     * signatureBitOf() is @p bit: false guarantees the buffer does not
     * hold it (the snoop path skips the scan); true only means
     * "possibly". The broadcast path hashes the address once and tests
     * the bit against every remote node's buffer. Backed by a 64-bit
     * Bloom signature maintained across push/pop/take/snoop, so it is
     * exact-safe — a stale bit can only cause a redundant scan, never a
     * missed entry.
     */
    bool
    maybeContainsSig(std::uint64_t bit) const
    {
        return (signature_ & bit) != 0;
    }

    /** Signature-hash geometry of signatureBitOf(). */
    static constexpr unsigned kSigPreShift = 5;  //!< unit-granular bits
    static constexpr std::uint64_t kSigMul = 0x9E3779B97F4A7C15ull;
    static constexpr unsigned kSigPostShift = 58;  //!< keep top 6 bits

    /** Signature bit of @p unitAddr: a multiplicative hash over the
     *  unit-granular address bits, mapped onto a 64-bit mask. */
    static std::uint64_t
    signatureBitOf(Addr unitAddr)
    {
        return std::uint64_t{1}
               << (((unitAddr >> kSigPreShift) * kSigMul) >> kSigPostShift);
    }

    /** The current Bloom signature (tests and verification). */
    std::uint64_t signature() const { return signature_; }

    /**
     * Remove and return the entry for @p unitAddr (reclaim by the owner,
     * or invalidation by a remote BusReadX after the buffer supplied
     * data). @p found reports whether it existed.
     */
    WbEntry take(Addr unitAddr, bool &found);

    /**
     * One bus snoop's whole buffer interaction in a single scan:
     * @p invalidate (BusReadX/BusUpgrade — the requester takes
     * ownership) removes the entry. Otherwise a remote BusRead is
     * supplied from the buffer: a Modified entry is no longer the only
     * copy and demotes to Owned (still dirty, still responsible for the
     * memory update, but a later reclaim must not resurrect write
     * permission while the reader holds its Shared copy). Owned entries
     * are unchanged.
     *
     * @return true when the buffer held @p unitAddr (the snoop "hit").
     */
    bool snoop(Addr unitAddr, bool invalidate);

    /** The pending victims in FIFO order (verification / tests; the
     *  presence query a test needs is a scan of this). */
    const std::deque<WbEntry> &entries() const { return entries_; }

  private:
    /** Recompute the signature as the OR of signatureBitOf over the
     *  live entries (<= capacity). */
    void rebuildSignature();

    std::deque<WbEntry> entries_;
    unsigned capacity_;
    std::uint64_t signature_ = 0;
};

} // namespace jetty::mem

#endif // JETTY_MEM_WRITEBACK_BUFFER_HH
