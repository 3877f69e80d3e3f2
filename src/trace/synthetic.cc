#include "trace/synthetic.hh"

#include <algorithm>
#include <cassert>

#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::trace
{

namespace
{

/** Region alignment; keeps distinct streams in distinct L2 blocks. */
constexpr std::uint64_t kRegionAlign = 4096;
constexpr std::uint64_t KiB_ = 1024;

/** Physical/virtual footprint ratio of the page table. */
constexpr std::uint64_t kPageSpread = 8;

/** Reuse-ring capacity; a power of two so the cursor wraps by mask. */
constexpr std::size_t kReuseRing = 32;

/**
 * Deterministic rotation of a region's hot spot, derived from its base so
 * every stream (and every processor's slice) is hottest at a different
 * offset. Shared regions must rotate identically on all processors, hence
 * the dependence on the base address alone.
 */
std::uint64_t
hotRotation(Addr base, std::uint64_t words)
{
    return words == 0 ? 0 : (base >> 12) * 2654435761ULL % words;
}

std::uint64_t
alignUp(std::uint64_t v)
{
    return (v + kRegionAlign - 1) & ~(kRegionAlign - 1);
}

/**
 * Per-processor generator. Holds per-stream walk state and a small reuse
 * ring that models register/L1-resident temporal locality.
 */
class SyntheticSource : public TraceSource
{
  public:
    SyntheticSource(const Workload &workload, const AppProfile &profile,
                    unsigned nprocs, ProcId proc, std::uint64_t accesses,
                    const std::vector<StreamLayout> &layouts)
        : workload_(workload), profile_(profile), nprocs_(nprocs),
          proc_(proc), remaining_(accesses),
          rng_(profile.seed * kSeedMix + proc * 7919 + 1)
    {
        streams_.reserve(layouts.size());
        double total_weight = 0;
        for (const auto &l : layouts)
            total_weight += l.spec.weight;
        if (total_weight <= 0)
            fatal("SyntheticSource: profile has no stream weight");
        for (const auto &l : layouts) {
            StreamState st;
            st.layout = l;
            st.cumWeight = 0;  // filled below
            streams_.push_back(st);
        }
        double cum = 0;
        for (auto &st : streams_) {
            cum += st.layout.spec.weight / total_weight;
            st.cumWeight = cum;
        }
        for (auto &st : streams_)
            initDerived(st);
        reuseRing_.assign(kReuseRing, 0);
    }

    bool next(TraceRecord &out) override { return nextImpl(out); }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t max) override
    {
        // One virtual dispatch per batch instead of per record; the
        // records are exactly those repeated next() calls would produce.
        std::size_t n = 0;
        while (n < max && nextImpl(out[n]))
            ++n;
        return n;
    }

  private:
    /** The generator proper (non-virtual so nextBatch can inline it). */
    bool
    nextImpl(TraceRecord &out)
    {
        if (remaining_ == 0)
            return false;
        --remaining_;

        // Temporal-locality reuse: re-touch a recently used address.
        if (reuseFill_ > 0 && rng_.chance(profile_.reuseProb)) {
            const std::size_t i = rng_.below(reuseFill_);
            out.addr = reuseRing_[i];
            out.type = AccessType::Read;
            return true;
        }

        StreamState &st = pickStream();
        out = fresh(st);
        out.addr = workload_.translate(out.addr);
        remember(out.addr);
        return true;
    }

    struct StreamState
    {
        StreamLayout layout;
        double cumWeight = 0;
        std::uint64_t accesses = 0;  //!< references this stream produced
        std::uint64_t runLeft = 0;   //!< words left in the current burst
        Addr runAddr = 0;            //!< next address of the burst
        Addr runBase = 0;            //!< burst region base (for wrap)
        std::uint64_t runBytes = 0;  //!< burst region size

        // Derived constants (initDerived: layout + profile + proc only).
        // Hoisting them replaces the per-reference divisions of the
        // fresh* generators.
        Addr myBase = 0;             //!< this processor's slice / region
        Addr neighborBase = 0;       //!< next processor's slice
        std::uint64_t residentWords = 0;  //!< private resident words
        std::uint64_t residentRot = 0;    //!< hotRotation(myBase, words)
        std::uint64_t streamBytes = 0;    //!< private streaming span
        std::uint64_t sharedWords = 0;    //!< read-shared region words
        std::uint64_t sharedRot = 0;      //!< hotRotation(base, words)
        std::uint64_t pcLagMod = 0;       //!< (epochLen * word) % buf
        std::uint64_t spanWords = 0;      //!< neighbor boundary words
        std::uint64_t migObjects = 1;     //!< migratory object count
        std::uint64_t migObjWords = 1;    //!< words per object
        std::uint64_t migMine = 1;        //!< objects per processor share

        // Wrapped incremental cursors — each tracks one of the original
        // per-reference '%' expressions exactly (the increment is always
        // strictly smaller than the modulus, so a single conditional
        // subtract is the full reduction).
        std::uint64_t posMod = 0;     //!< pos % streamBytes (or % part)
        std::uint64_t pcEpoch = 0;    //!< accesses / epochLen
        std::uint64_t pcWithin = 0;   //!< accesses % epochLen
        std::uint64_t pcOffset = 0;   //!< (accesses * word) % buf
        std::uint64_t migWithinWord = 0;  //!< step % objWords
        std::uint64_t migWithinByte = 0;  //!< migWithinWord * word
        std::uint64_t migSlot = 0;        //!< (step / objWords) % mine
        std::uint64_t migSlotN = 0;       //!< migSlot * nprocs
        std::uint64_t migRotor = 0;  //!< (proc + n - sweep % n) % n
    };

    /** Fill the derived constants of @p st (see StreamState). */
    void
    initDerived(StreamState &st)
    {
        const StreamSpec &spec = st.layout.spec;
        const unsigned word = profile_.wordBytes;
        switch (spec.kind) {
          case StreamKind::Private:
            st.myBase = st.layout.base + proc_ * st.layout.perProcBytes;
            if (spec.residentBytes >= word) {
                st.residentWords = spec.residentBytes / word;
                st.residentRot =
                    hotRotation(st.myBase, st.residentWords);
            }
            st.streamBytes = spec.bytes > spec.residentBytes
                                 ? spec.bytes - spec.residentBytes
                                 : word;
            break;
          case StreamKind::ProducerConsumer: {
            const std::uint64_t buf = st.layout.perProcBytes;
            st.myBase = st.layout.base + proc_ * buf;
            st.neighborBase =
                st.layout.base + ((proc_ + 1) % nprocs_) * buf;
            st.pcLagMod = (spec.epochLen * word) % buf;
            break;
          }
          case StreamKind::Migratory:
            st.migObjects = std::max<std::uint64_t>(
                1, st.layout.totalBytes / spec.objectBytes);
            st.migObjWords =
                std::max<std::uint64_t>(1, spec.objectBytes / word);
            st.migMine = std::max<std::uint64_t>(
                1, (st.migObjects + nprocs_ - 1) / nprocs_);
            break;
          case StreamKind::ReadShared:
            st.sharedWords = st.layout.totalBytes / word;
            st.sharedRot = hotRotation(st.layout.base, st.sharedWords);
            break;
          case StreamKind::Neighbor: {
            const std::uint64_t part = st.layout.perProcBytes;
            st.myBase = st.layout.base + proc_ * part;
            st.neighborBase =
                st.layout.base + ((proc_ + 1) % nprocs_) * part;
            st.spanWords =
                std::min<std::uint64_t>(spec.boundaryBytes, part) / word;
            break;
          }
        }
        st.migRotor = proc_ % nprocs_;
    }

    /** Begin an object burst at @p start_word within the given region. */
    void
    startBurst(StreamState &st, Addr base, std::uint64_t bytes,
               std::uint64_t start_word)
    {
        const unsigned word = profile_.wordBytes;
        const std::uint64_t words = bytes / word;
        st.runBase = base;
        st.runBytes = bytes;
        st.runAddr = base + (start_word % words) * word;
        st.runLeft =
            std::max<std::uint64_t>(1, st.layout.spec.burstBytes / word);
    }

    /** Next address of the active burst (wraps within its region). */
    Addr
    burstNext(StreamState &st)
    {
        const unsigned word = profile_.wordBytes;
        const Addr a = st.runAddr;
        st.runAddr += word;
        if (st.runAddr >= st.runBase + st.runBytes)
            st.runAddr = st.runBase;
        --st.runLeft;
        return a;
    }

    StreamState &
    pickStream()
    {
        const double u = rng_.uniform();
        for (auto &st : streams_) {
            if (u <= st.cumWeight)
                return st;
        }
        return streams_.back();
    }

    void
    remember(Addr a)
    {
        reuseRing_[reusePos_] = a;
        reusePos_ = (reusePos_ + 1) & (kReuseRing - 1);
        reuseFill_ = std::min(reuseFill_ + 1, kReuseRing);
    }

    AccessType
    drawType(double writeFraction)
    {
        return rng_.chance(writeFraction) ? AccessType::Write
                                          : AccessType::Read;
    }

    TraceRecord fresh(StreamState &st);
    TraceRecord freshPrivate(StreamState &st);
    TraceRecord freshProducerConsumer(StreamState &st);
    TraceRecord freshMigratory(StreamState &st);
    TraceRecord freshReadShared(StreamState &st);
    TraceRecord freshNeighbor(StreamState &st);

    const Workload &workload_;
    const AppProfile profile_;
    const unsigned nprocs_;
    const ProcId proc_;
    std::uint64_t remaining_;
    Rng rng_;
    std::vector<StreamState> streams_;
    std::vector<Addr> reuseRing_;
    std::size_t reusePos_ = 0;
    std::size_t reuseFill_ = 0;
};

TraceRecord
SyntheticSource::fresh(StreamState &st)
{
    switch (st.layout.spec.kind) {
      case StreamKind::Private:
        return freshPrivate(st);
      case StreamKind::ProducerConsumer:
        return freshProducerConsumer(st);
      case StreamKind::Migratory:
        return freshMigratory(st);
      case StreamKind::ReadShared:
        return freshReadShared(st);
      case StreamKind::Neighbor:
        return freshNeighbor(st);
    }
    panic("SyntheticSource: unknown stream kind");
}

TraceRecord
SyntheticSource::freshPrivate(StreamState &st)
{
    const StreamSpec &spec = st.layout.spec;
    const unsigned word = profile_.wordBytes;
    TraceRecord rec;
    rec.type = drawType(spec.writeFraction);

    if (st.runLeft > 0) {
        // Continue the active object burst.
        rec.addr = burstNext(st);
        ++st.accesses;
        return rec;
    }

    if (rng_.chance(spec.residentFraction) && spec.residentBytes >= word) {
        // Resident set: hot, reused, L2-friendly, object-granular.
        // hot and the precomputed rotation are each < residentWords, so
        // the sum reduces with one conditional subtract.
        const std::uint64_t hot =
            rng_.hotIndex(st.residentWords, spec.residentHotBias);
        std::uint64_t start = hot + st.residentRot;
        if (start >= st.residentWords)
            start -= st.residentWords;
        startBurst(st, st.myBase, spec.residentBytes, start);
        rec.addr = burstNext(st);
    } else {
        // Streaming set: sequential walk that defeats the L2. posMod is
        // the walk cursor reduced mod streamBytes (word <= streamBytes,
        // so the wrap is one conditional subtract).
        rec.addr = st.myBase + spec.residentBytes + st.posMod;
        st.posMod += word;
        if (st.posMod >= st.streamBytes)
            st.posMod -= st.streamBytes;
    }
    ++st.accesses;
    return rec;
}

TraceRecord
SyntheticSource::freshProducerConsumer(StreamState &st)
{
    const StreamSpec &spec = st.layout.spec;
    const unsigned word = profile_.wordBytes;
    const std::uint64_t buf = st.layout.perProcBytes;

    // Even epochs produce (write own buffer); odd epochs consume (read the
    // neighbour's buffer one epoch behind). All processors advance in
    // lockstep because the simulator interleaves them 1:1. pcEpoch,
    // pcWithin and pcOffset are the division-free forms of the original
    // accesses / epochLen and (accesses * word) % buf.
    TraceRecord rec;
    if ((st.pcEpoch & 1) == 0) {
        rec.type = AccessType::Write;
        rec.addr = st.myBase + st.pcOffset;
    } else {
        rec.type = AccessType::Read;
        std::uint64_t off = st.pcOffset + buf - st.pcLagMod;
        if (off >= buf)
            off -= buf;
        rec.addr = st.neighborBase + off;
    }
    ++st.accesses;
    if (++st.pcWithin == spec.epochLen) {
        st.pcWithin = 0;
        ++st.pcEpoch;
    }
    st.pcOffset += word;
    if (st.pcOffset >= buf)
        st.pcOffset -= buf;
    return rec;
}

TraceRecord
SyntheticSource::freshMigratory(StreamState &st)
{
    const StreamSpec &spec = st.layout.spec;
    const unsigned word = profile_.wordBytes;

    // Ownership rotates once per full sweep over a processor's share of
    // the objects, so every object is handed to the next processor right
    // after its read-modify-write visit -- classic migratory sharing.
    //
    // The original per-reference form divided a flat step counter
    // (accesses / 2) into sweep / slot / within digits; the cascading
    // counters below carry exactly those digits: migWithinWord wraps at
    // objWords and advances migSlot, migSlot wraps at migMine and
    // advances the sweep rotor. migSlotN is migSlot * nprocs kept
    // incrementally, and migRotor is (proc + n - sweep % n) % n, which a
    // sweep advance decrements cyclically.
    std::uint64_t obj = st.migSlotN + st.migRotor;
    while (obj >= st.migObjects)
        obj -= st.migObjects;  // <= ~nprocs/objects iterations

    TraceRecord rec;
    rec.type = (st.accesses & 1) == 0 ? AccessType::Read
                                      : AccessType::Write;
    rec.addr = st.layout.base + obj * spec.objectBytes + st.migWithinByte;
    ++st.accesses;
    if ((st.accesses & 1) == 0) {
        // A new step (word visit) begins on the next reference.
        ++st.migWithinWord;
        st.migWithinByte += word;
        if (st.migWithinWord == st.migObjWords) {
            st.migWithinWord = 0;
            st.migWithinByte = 0;
            ++st.migSlot;
            st.migSlotN += nprocs_;
            if (st.migSlot == st.migMine) {
                st.migSlot = 0;
                st.migSlotN = 0;
                st.migRotor =
                    st.migRotor == 0 ? nprocs_ - 1 : st.migRotor - 1;
            }
        }
    }
    return rec;
}

TraceRecord
SyntheticSource::freshReadShared(StreamState &st)
{
    const StreamSpec &spec = st.layout.spec;

    TraceRecord rec;
    rec.type = AccessType::Read;
    if (st.runLeft == 0) {
        const std::uint64_t hot =
            rng_.hotIndex(st.sharedWords, spec.hotBias);
        std::uint64_t start = hot + st.sharedRot;
        if (start >= st.sharedWords)
            start -= st.sharedWords;
        startBurst(st, st.layout.base, st.layout.totalBytes, start);
    }
    rec.addr = burstNext(st);
    ++st.accesses;
    return rec;
}

TraceRecord
SyntheticSource::freshNeighbor(StreamState &st)
{
    const StreamSpec &spec = st.layout.spec;
    const unsigned word = profile_.wordBytes;
    const std::uint64_t part = st.layout.perProcBytes;

    TraceRecord rec;
    if (rng_.chance(spec.remoteFraction)) {
        // Boundary read just behind the neighbour's sweep cursor. All
        // processors advance their partition walks at the same rate (the
        // simulator interleaves them 1:1), so our own cursor approximates
        // the neighbour's: the window [pos - boundary, pos) holds values
        // the neighbour produced recently, as in a bulk-synchronous mesh
        // relaxation. lag <= spanWords * word <= part, so both
        // reductions are single conditional subtracts.
        std::uint64_t lag = rng_.below(st.spanWords) * word + word;
        if (lag >= part)
            lag -= part;
        std::uint64_t off = st.posMod + part - lag;
        if (off >= part)
            off -= part;
        rec.type = AccessType::Read;
        rec.addr = st.neighborBase + off;
    } else {
        rec.type = drawType(spec.writeFraction);
        rec.addr = st.myBase + st.posMod;
        st.posMod += word;
        if (st.posMod >= part)
            st.posMod -= part;
    }
    ++st.accesses;
    return rec;
}

} // namespace

Workload::Workload(const AppProfile &profile, unsigned nprocs,
                   double accessScale)
    : profile_(profile), nprocs_(nprocs)
{
    if (nprocs == 0)
        fatal("Workload: need at least one processor");
    if (profile.streams.empty())
        fatal("Workload: profile has no streams");

    accessesPerProc_ = static_cast<std::uint64_t>(
        static_cast<double>(profile.accessesPerProc) * accessScale);
    if (accessesPerProc_ == 0)
        accessesPerProc_ = 1;

    // Bump-allocate regions; base chosen above zero so address 0 stays
    // free for "never used" sentinels in tests. Successive regions get an
    // extra stagger so their bases land at different L2 set offsets --
    // without it every region starts at the same sets and the hottest
    // lines of all streams fight for the same few L2 frames, which no
    // real heap layout does.
    Addr cursor = 0x1000'0000;
    unsigned region_idx = 0;
    for (const auto &spec : profile.streams) {
        StreamLayout l;
        l.spec = spec;
        cursor += (++region_idx) * 208 * KiB_ + kRegionAlign;
        l.base = cursor;
        const bool per_proc = spec.kind == StreamKind::Private ||
                              spec.kind == StreamKind::ProducerConsumer ||
                              spec.kind == StreamKind::Neighbor;
        if (per_proc) {
            l.perProcBytes = alignUp(spec.bytes);
            l.totalBytes = l.perProcBytes * nprocs;
        } else {
            l.perProcBytes = 0;
            l.totalBytes = alignUp(spec.bytes);
        }
        cursor += l.totalBytes;
        memAllocated_ += l.totalBytes;
        layouts_.push_back(l);
    }
    virtBase_ = 0x1000'0000;
    virtEnd_ = cursor;

    // Build the page table: scatter every virtual 4 KiB page over a frame
    // space kPageSpread times larger via a seeded partial Fisher-Yates
    // shuffle, imitating OS physical page allocation.
    const std::uint64_t pages =
        (virtEnd_ - virtBase_ + kRegionAlign - 1) / kRegionAlign;
    const std::uint64_t frames = pages * kPageSpread;
    std::vector<std::uint32_t> pool(frames);
    for (std::uint64_t i = 0; i < frames; ++i)
        pool[i] = static_cast<std::uint32_t>(i);
    Rng rng(profile.seed ^ 0xfeedface12345678ULL);
    pageFrames_.resize(pages);
    for (std::uint64_t i = 0; i < pages; ++i) {
        const std::uint64_t j = i + rng.below(frames - i);
        std::swap(pool[i], pool[j]);
        pageFrames_[i] = pool[i];
    }
}

Addr
Workload::translate(Addr vaddr) const
{
    if (vaddr < virtBase_ || vaddr >= virtEnd_)
        return vaddr;  // outside the laid-out regions: identity
    const std::uint64_t page = (vaddr - virtBase_) / kRegionAlign;
    return virtBase_ +
           static_cast<Addr>(pageFrames_[page]) * kRegionAlign +
           (vaddr & (kRegionAlign - 1));
}

TraceSourcePtr
Workload::makeSource(ProcId proc) const
{
    if (proc >= nprocs_)
        fatal("Workload::makeSource: processor id out of range");
    return std::make_unique<SyntheticSource>(*this, profile_, nprocs_, proc,
                                             accessesPerProc_, layouts_);
}

} // namespace jetty::trace
