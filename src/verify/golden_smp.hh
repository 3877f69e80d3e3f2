/**
 * @file
 * The golden reference model of the differential verification subsystem.
 *
 * GoldenSmp is a second, independent implementation of the simulated
 * machine: a map-based, unbatched, filter-free MOESI SMP that replays any
 * set of TraceSources one reference at a time and exposes the global
 * per-unit coherence state. It deliberately has none of the fast
 * machinery the real SmpSystem accumulated — no delivery batching, no
 * inlined L1 fast path, no listener chains, no filter banks, no
 * statistics plumbing — and it restates the MOESI snooper rules locally
 * instead of calling coherence::snoopTransition, so a bug in either
 * implementation shows up as a state divergence instead of being
 * faithfully mirrored.
 *
 * The model is behaviourally exact, not approximate: replacement (LRU
 * with the same clock-advance points), subblocked tags, write-back
 * buffer FIFO/forced-drain order and inclusion enforcement all match the
 * documented contract of the real system, so after replaying the same
 * traces the two machines must agree bit-exactly on every valid L1 line
 * (with permission/dirty flags), every resident L2 tag, every valid
 * coherence unit's MOESI state, and the write-back buffers' contents in
 * order. snapshotOf()/diffSnapshots() perform that comparison.
 */

#ifndef JETTY_VERIFY_GOLDEN_SMP_HH
#define JETTY_VERIFY_GOLDEN_SMP_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "coherence/moesi.hh"
#include "mem/writeback_buffer.hh"
#include "sim/smp_system.hh"
#include "trace/trace_source.hh"
#include "util/types.hh"

namespace jetty::verify
{

/** One processor's externally visible cache state, address-sorted. */
struct ProcSnapshot
{
    std::vector<mem::L1LineInfo> l1;   //!< valid lines + flags
    std::vector<Addr> l2Blocks;        //!< resident tags (incl. unit-empty)
    std::vector<mem::L2UnitInfo> l2;   //!< valid units + MOESI states
    std::vector<mem::WbEntry> wb;      //!< write-back buffer, FIFO order
};

/** The whole machine's externally visible state. */
struct StateSnapshot
{
    std::vector<ProcSnapshot> procs;
};

/** Capture the real system's state in snapshot form. */
StateSnapshot snapshotOf(const sim::SmpSystem &sys);

/**
 * Compare two snapshots; an empty string means bit-exact agreement,
 * anything else describes the first few divergences (processor, address,
 * expected vs. actual).
 */
std::string diffSnapshots(const StateSnapshot &golden,
                          const StateSnapshot &actual);

/** The golden machine. Accepts any SmpConfig the real system accepts;
 *  filter specs are ignored (the golden model is filter-free). */
class GoldenSmp
{
  public:
    explicit GoldenSmp(const sim::SmpConfig &cfg);

    /** Attach one reference stream per processor (size must match). */
    void attachSources(std::vector<trace::TraceSourcePtr> sources);

    /** One round-robin sweep — each live processor issues one reference,
     *  in ascending processor order, exactly SmpSystem's quantum.
     *  @return false once every stream is exhausted. */
    bool step();

    /** Replay until all streams are exhausted. */
    void run();

    /** Drive one reference directly. */
    void access(ProcId p, AccessType type, Addr addr);

    /** The machine state in comparable form. */
    StateSnapshot snapshot() const;

    /** References replayed so far. */
    std::uint64_t references() const { return references_; }

    /**
     * Transactions the golden machine routed to each logical snoop bus,
     * using its own restatement of the address interleave (block index
     * by integer division, modulo the configured snoopBuses). The real
     * system's SimStats::perBus transaction counts must match this
     * exactly for any bus count — the differential check that the
     * split interconnect routes without changing what is broadcast.
     */
    const std::vector<std::uint64_t> &busTransactions() const
    {
        return busTransactions_;
    }

    /** The configuration the machine was built with. */
    const sim::SmpConfig &config() const { return cfg_; }

  private:
    struct L1Line
    {
        Addr lineAddr = 0;
        bool writable = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    struct L2Block
    {
        Addr blockAddr = 0;
        std::uint64_t lastUse = 0;
        std::vector<coherence::State> units;
    };

    struct Proc
    {
        /** L1 set index -> the set's valid lines (at most l1 assoc).
         *  Ordered maps, not unordered: snapshot() iterates these, and
         *  the determinism contract (jobs=1 vs jobs=N bit-identity,
         *  enforced mechanically by tools/jetty_lint) bans hash-order
         *  iteration in the verify layer. */
        std::map<std::uint64_t, std::vector<L1Line>> l1;

        /** L2 set index -> the set's resident blocks (at most l2 assoc). */
        std::map<std::uint64_t, std::vector<L2Block>> l2;

        std::deque<mem::WbEntry> wb;
        std::uint64_t l1Clock = 0;
        std::uint64_t l2Clock = 0;

        trace::TraceSourcePtr source;
        bool done = true;
    };

    // -- geometry helpers ------------------------------------------------
    Addr unitAlign(Addr a) const { return a & ~unitMask_; }
    Addr blockAlign(Addr a) const { return a & ~blockMask_; }
    std::uint64_t l1SetOf(Addr a) const;
    std::uint64_t l2SetOf(Addr a) const;
    unsigned unitIndexOf(Addr a) const;

    // -- structure lookups ----------------------------------------------
    L1Line *findL1(Proc &n, Addr lineAddr);
    L2Block *findL2(Proc &n, Addr blockAddr);
    const L2Block *findL2(const Proc &n, Addr blockAddr) const;
    coherence::State l2UnitState(const Proc &n, Addr unitAddr) const;

    // -- protocol steps --------------------------------------------------
    /** Snoop every other node; @return the number of remote copies. */
    unsigned broadcast(ProcId requester, coherence::BusOp op, Addr unit);

    /** Local L2 miss service: WB reclaim or bus fetch + fill/victims. */
    coherence::State fetchUnit(ProcId p, Addr unit, bool forWrite);

    /** Fill @p unit into node @p p's L2 (allocating/evicting a block). */
    void l2Fill(ProcId p, Addr unit, coherence::State state);

    /** Fill @p unit's line into the L1, writing back a dirty victim. */
    void l1Fill(ProcId p, Addr unit, bool writable);

    /** Inclusion: drop the L1 line backing @p unit, if any. */
    void dropL1(Proc &n, Addr unit);

    /** Queue a dirty L2 victim in the WB (forced drain when full). */
    void pushVictim(ProcId p, Addr unitAddr, coherence::State state);

    sim::SmpConfig cfg_;
    std::vector<Proc> procs_;
    std::uint64_t references_ = 0;
    std::vector<std::uint64_t> busTransactions_;

    std::uint64_t unitMask_ = 0;
    std::uint64_t blockMask_ = 0;
    unsigned l1OffsetBits_ = 0;
    unsigned l1IndexBits_ = 0;
    unsigned l2OffsetBits_ = 0;
    unsigned l2IndexBits_ = 0;
    unsigned unitOffsetBits_ = 0;
    unsigned subblockBits_ = 0;
};

} // namespace jetty::verify

#endif // JETTY_VERIFY_GOLDEN_SMP_HH
