/**
 * @file
 * Unit tests for the memory substrate: L1 cache, subblocked L2 cache with
 * listeners, and the write-back buffer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "mem/writeback_buffer.hh"
#include "util/random.hh"

using namespace jetty;
using namespace jetty::mem;
using coherence::BusOp;
using coherence::State;

// ---------------------------------------------------------------- L1 ----

namespace
{

L1Config
smallL1()
{
    L1Config cfg;
    cfg.sizeBytes = 1024;  // 32 lines of 32B, direct mapped
    cfg.assoc = 1;
    cfg.blockBytes = 32;
    return cfg;
}

} // namespace

TEST(L1Cache, MissThenFillThenHit)
{
    L1Cache l1(smallL1());
    EXPECT_FALSE(l1.probe(0x1000).hit);
    L1Victim victim;
    l1.fill(0x1000, false, false, victim);
    EXPECT_FALSE(victim.valid);
    const auto res = l1.probe(0x1000);
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.writable);
    EXPECT_FALSE(res.dirty);
}

TEST(L1Cache, LineAlignment)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x1000, false, false, victim);
    EXPECT_TRUE(l1.probe(0x101f).hit);   // same 32B line
    EXPECT_FALSE(l1.probe(0x1020).hit);  // next line
}

TEST(L1Cache, DirectMappedConflictEvicts)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x0, true, true, victim);
    // 1KB direct mapped: 0x400 aliases with 0x0.
    l1.fill(0x400, false, false, victim);
    EXPECT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(victim.lineAddr, 0x0u);
    EXPECT_FALSE(l1.probe(0x0).hit);
}

TEST(L1Cache, CleanVictimReported)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x0, false, false, victim);
    l1.fill(0x400, false, false, victim);
    EXPECT_TRUE(victim.valid);
    EXPECT_FALSE(victim.dirty);
}

TEST(L1Cache, WritableAndDirtyFlags)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x40, true, false, victim);
    EXPECT_TRUE(l1.probe(0x40).writable);
    EXPECT_FALSE(l1.probe(0x40).dirty);
    EXPECT_EQ(l1.accessClassify(0x40, true), L1FastOutcome::Hit);
    EXPECT_TRUE(l1.probe(0x40).dirty);

    // A read-only line refuses the write until grantWrite() sets both
    // flags at once.
    l1.fill(0x60, false, false, victim);
    EXPECT_EQ(l1.accessClassify(0x60, true), L1FastOutcome::Blocked);
    EXPECT_FALSE(l1.probe(0x60).dirty);
    l1.grantWrite(0x60);
    EXPECT_TRUE(l1.probe(0x60).writable);
    EXPECT_TRUE(l1.probe(0x60).dirty);

    // A write-allocate fill is dirty from the start.
    l1.fill(0x80, true, true, victim);
    EXPECT_TRUE(l1.probe(0x80).dirty);
}

TEST(L1Cache, InvalidateReportsDirtiness)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x40, true, true, victim);
    EXPECT_TRUE(l1.invalidate(0x40));
    EXPECT_FALSE(l1.probe(0x40).hit);
    EXPECT_FALSE(l1.invalidate(0x40));  // already gone
}

TEST(L1Cache, SetAssociativeLru)
{
    L1Config cfg = smallL1();
    cfg.assoc = 2;  // 16 sets x 2 ways
    L1Cache l1(cfg);
    L1Victim victim;
    const Addr set_stride = 16 * 32;  // same-set stride
    l1.fill(0x0, false, false, victim);
    l1.fill(set_stride, false, false, victim);
    // A read hit makes the way holding 0x0 the MRU.
    EXPECT_EQ(l1.accessClassify(0x0, false), L1FastOutcome::Hit);
    l1.fill(2 * set_stride, false, false, victim);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.lineAddr, set_stride);  // LRU evicted
    EXPECT_TRUE(l1.probe(0x0).hit);
}

TEST(L1Cache, ValidLineCount)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    EXPECT_EQ(l1.validLines(), 0u);
    l1.fill(0x0, false, false, victim);
    l1.fill(0x20, false, false, victim);
    EXPECT_EQ(l1.validLines(), 2u);
    l1.invalidate(0x0);
    EXPECT_EQ(l1.validLines(), 1u);
}

// ---------------------------------------------------------------- L2 ----

namespace
{

L2Config
smallL2()
{
    L2Config cfg;
    cfg.sizeBytes = 4096;  // 64 blocks of 64B, direct mapped
    cfg.assoc = 1;
    cfg.blockBytes = 64;
    cfg.subblocks = 2;
    return cfg;
}

struct RecordingListener : public CacheEventListener
{
    std::vector<Addr> fills, evicts;
    void unitFilled(Addr a) override { fills.push_back(a); }
    void unitEvicted(Addr a) override { evicts.push_back(a); }
};

/** A remote snoop as the bus applies it: locate, then transition. */
coherence::SnoopOutcome
snoop(L2Cache &l2, Addr a, BusOp op)
{
    L2LookupResult res;
    return l2.snoopAtWay(l2.probeWay(a, res), a, op);
}

} // namespace

TEST(L2Cache, FillAndProbeSubblocks)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    l2.fill(0x1000, State::Exclusive, victims);
    EXPECT_TRUE(victims.empty());

    const auto sub0 = l2.probe(0x1000);
    EXPECT_TRUE(sub0.tagMatch);
    EXPECT_TRUE(sub0.unitValid);
    EXPECT_EQ(sub0.state, State::Exclusive);

    // The sibling subblock shares the tag but is invalid.
    const auto sub1 = l2.probe(0x1020);
    EXPECT_TRUE(sub1.tagMatch);
    EXPECT_FALSE(sub1.unitValid);

    EXPECT_FALSE(l2.probe(0x2000).tagMatch);
}

TEST(L2Cache, UnitAlignment)
{
    L2Cache l2(smallL2());
    EXPECT_EQ(l2.unitAlign(0x103f), 0x1020u);
}

TEST(L2Cache, ConflictEvictionReturnsAllValidUnits)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    l2.fill(0x0, State::Modified, victims);
    l2.fill(0x20, State::Shared, victims);  // second subblock, same block
    // 4KB direct mapped: 0x1000 aliases with 0x0.
    victims.clear();
    l2.fill(0x1000, State::Exclusive, victims);
    ASSERT_EQ(victims.size(), 2u);
    EXPECT_EQ(victims[0].unitAddr, 0x0u);
    EXPECT_EQ(victims[0].state, State::Modified);
    EXPECT_EQ(victims[1].unitAddr, 0x20u);
    EXPECT_EQ(victims[1].state, State::Shared);
    EXPECT_FALSE(l2.probe(0x0).tagMatch);
}

TEST(L2Cache, ListenersSeeFillsAndEvictions)
{
    L2Cache l2(smallL2());
    RecordingListener rec;
    l2.addListener(&rec);
    std::vector<L2Victim> victims;
    l2.fill(0x40, State::Exclusive, victims);
    l2.fill(0x60, State::Exclusive, victims);
    ASSERT_EQ(rec.fills.size(), 2u);
    EXPECT_EQ(rec.fills[0], 0x40u);
    EXPECT_EQ(rec.fills[1], 0x60u);

    l2.fill(0x1040, State::Exclusive, victims);  // evicts block 0x40
    ASSERT_EQ(rec.evicts.size(), 2u);
    EXPECT_EQ(rec.evicts[0], 0x40u);
    EXPECT_EQ(rec.evicts[1], 0x60u);
}

TEST(L2Cache, SnoopBusReadDowngradesModified)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    l2.fill(0x80, State::Modified, victims);
    const auto out = snoop(l2, 0x80, BusOp::BusRead);
    EXPECT_TRUE(out.hadCopy);
    EXPECT_TRUE(out.supplied);
    EXPECT_EQ(l2.probe(0x80).state, State::Owned);
}

TEST(L2Cache, SnoopBusReadXInvalidatesAndNotifies)
{
    L2Cache l2(smallL2());
    RecordingListener rec;
    l2.addListener(&rec);
    std::vector<L2Victim> victims;
    l2.fill(0x80, State::Shared, victims);
    const auto out = snoop(l2, 0x80, BusOp::BusReadX);
    EXPECT_TRUE(out.hadCopy);
    EXPECT_FALSE(l2.probe(0x80).unitValid);
    ASSERT_EQ(rec.evicts.size(), 1u);
    EXPECT_EQ(rec.evicts[0], 0x80u);
}

TEST(L2Cache, SnoopMissOnAbsentBlock)
{
    L2Cache l2(smallL2());
    const auto out = snoop(l2, 0xbeef00, BusOp::BusRead);
    EXPECT_FALSE(out.hadCopy);
}

TEST(L2Cache, SnoopMissOnInvalidSibling)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    l2.fill(0x1000, State::Exclusive, victims);
    const auto out = snoop(l2, 0x1020, BusOp::BusRead);
    EXPECT_FALSE(out.hadCopy);
    // The valid sibling is untouched.
    EXPECT_TRUE(l2.probe(0x1000).unitValid);
}

TEST(L2Cache, SetStateTransitions)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    l2.fill(0xc0, State::Exclusive, victims);
    L2LookupResult res;
    const int way = l2.probeWay(0xc0, res);
    ASSERT_GE(way, 0);
    l2.setStateAt(way, 0xc0, State::Modified);
    EXPECT_EQ(l2.probe(0xc0).state, State::Modified);
}

TEST(L2Cache, ReadXSnoopInvalidatesOnce)
{
    L2Cache l2(smallL2());
    RecordingListener rec;
    l2.addListener(&rec);
    std::vector<L2Victim> victims;
    l2.fill(0xc0, State::Shared, victims);
    snoop(l2, 0xc0, BusOp::BusReadX);
    EXPECT_FALSE(l2.probe(0xc0).unitValid);
    EXPECT_TRUE(l2.probe(0xc0).tagMatch);  // the tag keeps its way
    EXPECT_EQ(rec.evicts.size(), 1u);
    snoop(l2, 0xc0, BusOp::BusReadX);  // no-op
    EXPECT_EQ(rec.evicts.size(), 1u);
}

TEST(L2Cache, ValidUnitCountTracksEverything)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    EXPECT_EQ(l2.validUnits(), 0u);
    l2.fill(0x0, State::Exclusive, victims);
    l2.fill(0x20, State::Exclusive, victims);
    l2.fill(0x40, State::Modified, victims);
    EXPECT_EQ(l2.validUnits(), 3u);
    snoop(l2, 0x40, BusOp::BusReadX);
    EXPECT_EQ(l2.validUnits(), 2u);
    l2.fill(0x1000, State::Shared, victims);  // evicts block 0 (2 units)
    EXPECT_EQ(l2.validUnits(), 1u);
}

TEST(L2Cache, SetAssociativeLru)
{
    L2Config cfg = smallL2();
    cfg.assoc = 2;  // 32 sets x 2 ways
    L2Cache l2(cfg);
    std::vector<L2Victim> victims;
    const Addr stride = 32 * 64;  // same-set stride
    l2.fill(0x0, State::Exclusive, victims);
    l2.fill(stride, State::Exclusive, victims);
    L2LookupResult res;
    l2.touchAt(l2.probeWay(0x0, res), 0x0);
    victims.clear();
    l2.fill(2 * stride, State::Exclusive, victims);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].unitAddr, stride);
    EXPECT_TRUE(l2.probe(0x0).tagMatch);
}

TEST(L2Cache, NonSubblockedConfig)
{
    L2Config cfg;
    cfg.sizeBytes = 2048;
    cfg.blockBytes = 32;
    cfg.subblocks = 1;
    L2Cache l2(cfg);
    std::vector<L2Victim> victims;
    l2.fill(0x100, State::Exclusive, victims);
    EXPECT_TRUE(l2.probe(0x100).unitValid);
    EXPECT_EQ(l2.unitAlign(0x11f), 0x100u);
}

// ------------------------------------------------------ WritebackBuffer --

namespace
{

/** Whether @p wb holds @p unitAddr, read off its FIFO view. */
bool
holds(const WritebackBuffer &wb, Addr unitAddr)
{
    const auto &e = wb.entries();
    return std::any_of(e.begin(), e.end(), [unitAddr](const WbEntry &x) {
        return x.unitAddr == unitAddr;
    });
}

} // namespace

TEST(WritebackBuffer, FifoOrder)
{
    WritebackBuffer wb(2);
    EXPECT_TRUE(wb.empty());
    wb.push({0x100, State::Modified});
    wb.push({0x200, State::Owned});
    EXPECT_FALSE(wb.hasRoom());
    EXPECT_EQ(wb.pop().unitAddr, 0x100u);
    EXPECT_EQ(wb.pop().unitAddr, 0x200u);
    EXPECT_TRUE(wb.empty());
}

TEST(WritebackBuffer, TakeReclaimsEntry)
{
    WritebackBuffer wb(4);
    wb.push({0x100, State::Modified});
    wb.push({0x200, State::Owned});
    EXPECT_TRUE(holds(wb, 0x200));
    EXPECT_FALSE(holds(wb, 0x300));

    bool found = false;
    const auto e = wb.take(0x200, found);
    EXPECT_TRUE(found);
    EXPECT_EQ(e.state, State::Owned);
    EXPECT_FALSE(holds(wb, 0x200));
    EXPECT_EQ(wb.size(), 1u);

    bool found2 = true;
    wb.take(0x999, found2);
    EXPECT_FALSE(found2);
}

TEST(WritebackBuffer, CapacityReported)
{
    WritebackBuffer wb(3);
    EXPECT_EQ(wb.capacity(), 3u);
    wb.push({0x1, State::Modified});
    EXPECT_TRUE(wb.hasRoom());
    EXPECT_EQ(wb.size(), 1u);
}

TEST(WritebackBuffer, DrainOrderSurvivesSnoopPressure)
{
    // Remote snoops remove (BusReadX) and demote (BusRead) entries at
    // arbitrary positions; the survivors must still drain oldest-first,
    // in their original relative order.
    WritebackBuffer wb(8);
    for (Addr a = 0x100; a <= 0x800; a += 0x100)
        wb.push({a, State::Modified});

    EXPECT_TRUE(wb.snoop(0x300, true));   // BusReadX mid-buffer
    EXPECT_TRUE(wb.snoop(0x100, true));   // BusReadX at the head
    EXPECT_TRUE(wb.snoop(0x500, false));  // BusRead mid-buffer
    wb.push({0x900, State::Owned});       // new victim behind everyone

    const Addr expect_order[] = {0x200, 0x400, 0x500, 0x600,
                                 0x700, 0x800, 0x900};
    ASSERT_EQ(wb.size(), 7u);
    for (const Addr a : expect_order)
        EXPECT_EQ(wb.pop().unitAddr, a);
    EXPECT_TRUE(wb.empty());
}

TEST(WritebackBuffer, ReadSnoopDemotesOnlyModified)
{
    WritebackBuffer wb(4);
    wb.push({0x100, State::Modified});
    wb.push({0x200, State::Owned});

    EXPECT_TRUE(wb.snoop(0x100, false));
    EXPECT_TRUE(wb.snoop(0x200, false));   // Owned stays Owned
    EXPECT_FALSE(wb.snoop(0x300, false));  // absent
    EXPECT_EQ(wb.size(), 2u);

    EXPECT_EQ(wb.pop().state, State::Owned);
    EXPECT_EQ(wb.pop().state, State::Owned);
}

TEST(WritebackBuffer, SnoopCombinesHitTakeAndDemoteInOneCall)
{
    WritebackBuffer wb(4);
    wb.push({0x100, State::Modified});
    wb.push({0x200, State::Modified});

    EXPECT_FALSE(wb.snoop(0x300, false));  // miss
    EXPECT_FALSE(wb.snoop(0x300, true));

    // Supplying BusRead: hit, entry stays, M demotes to O (idempotent).
    EXPECT_TRUE(wb.snoop(0x100, false));
    EXPECT_TRUE(holds(wb, 0x100));
    EXPECT_EQ(wb.entries().front().state, State::Owned);
    EXPECT_TRUE(wb.snoop(0x100, false));
    EXPECT_EQ(wb.entries().front().state, State::Owned);

    // BusReadX/Upgrade: hit and ownership transfer (entry removed).
    EXPECT_TRUE(wb.snoop(0x200, true));
    EXPECT_FALSE(holds(wb, 0x200));
    EXPECT_EQ(wb.size(), 1u);
}

TEST(WritebackBuffer, EntriesExposeFifoView)
{
    WritebackBuffer wb(4);
    wb.push({0x100, State::Modified});
    wb.push({0x200, State::Owned});
    ASSERT_EQ(wb.entries().size(), 2u);
    EXPECT_EQ(wb.entries()[0].unitAddr, 0x100u);
    EXPECT_EQ(wb.entries()[1].unitAddr, 0x200u);
}

TEST(WritebackBuffer, SignatureIsTheOrOfLiveEntryBits)
{
    // The snoop path skips the buffer scan when maybeContainsSig() is
    // false, so the signature must cover every live entry after every
    // mutation. A seeded random push/pop/take/snoop sequence checks it
    // is exactly the OR of signatureBitOf over entries() throughout.
    Rng rng(2024);
    WritebackBuffer wb(8);
    for (int step = 0; step < 20000; ++step) {
        // Half the targets are live entries, so removals really hit.
        Addr a = (rng.below(64) << 5) | (rng.below(4) << 40);
        if (!wb.empty() && rng.chance(0.5))
            a = wb.entries()[rng.below(wb.size())].unitAddr;
        bool found = false;
        switch (rng.below(4)) {
          case 0:
            if (wb.hasRoom() && !holds(wb, a))
                wb.push({a, State::Modified});
            break;
          case 1:
            if (!wb.empty())
                wb.pop();
            break;
          case 2:
            wb.take(a, found);
            break;
          case 3:
            wb.snoop(a, rng.chance(0.5));
            break;
        }
        std::uint64_t want = 0;
        for (const WbEntry &e : wb.entries()) {
            want |= WritebackBuffer::signatureBitOf(e.unitAddr);
            ASSERT_TRUE(wb.maybeContainsSig(
                WritebackBuffer::signatureBitOf(e.unitAddr)))
                << "step " << step;
        }
        ASSERT_EQ(wb.signature(), want) << "step " << step;
    }
}

// ------------------------------------ L1 against a reference model ----

namespace
{

/**
 * The L1's documented behaviour written plainly: per set, a list of
 * lines with LRU clocks. A full set evicts its least recently used
 * line; a hit needing no L2 help advances the clock (and dirties a
 * write); a refused access changes nothing.
 */
class L1Model
{
  public:
    explicit L1Model(const L1Config &cfg) : cfg_(cfg), sets_(cfg.sets()) {}

    L1FastOutcome
    access(Addr addr, bool write)
    {
        Line *l = find(addr);
        if (!l)
            return L1FastOutcome::Miss;
        if (write && !l->writable)
            return L1FastOutcome::Blocked;
        l->lastUse = ++clock_;
        l->dirty = l->dirty || write;
        return L1FastOutcome::Hit;
    }

    void
    grantWrite(Addr addr)
    {
        Line *l = find(addr);
        ASSERT_NE(l, nullptr);
        l->writable = l->dirty = true;
        l->lastUse = ++clock_;
    }

    L1Victim
    fill(Addr addr, bool writable, bool dirty)
    {
        auto &set = sets_[setOf(addr)];
        L1Victim victim;
        if (set.size() == cfg_.assoc) {
            const auto lru = std::min_element(
                set.begin(), set.end(), [](const Line &x, const Line &y) {
                    return x.lastUse < y.lastUse;
                });
            victim.valid = true;
            victim.dirty = lru->dirty;
            victim.lineAddr = lru->lineAddr;
            set.erase(lru);
        }
        set.push_back({lineOf(addr), writable, dirty, ++clock_});
        return victim;
    }

    /** Every line, sorted by address (L1Cache::validLineInfo's form). */
    std::vector<L1LineInfo>
    lines() const
    {
        std::vector<L1LineInfo> out;
        for (const auto &set : sets_) {
            for (const Line &l : set)
                out.push_back({l.lineAddr, l.writable, l.dirty});
        }
        std::sort(out.begin(), out.end(),
                  [](const L1LineInfo &x, const L1LineInfo &y) {
                      return x.lineAddr < y.lineAddr;
                  });
        return out;
    }

  private:
    struct Line
    {
        Addr lineAddr;
        bool writable;
        bool dirty;
        std::uint64_t lastUse;
    };

    Addr lineOf(Addr a) const { return a & ~Addr{cfg_.blockBytes - 1}; }
    std::size_t
    setOf(Addr a) const
    {
        return static_cast<std::size_t>((a / cfg_.blockBytes) %
                                        sets_.size());
    }

    Line *
    find(Addr addr)
    {
        for (Line &l : sets_[setOf(addr)]) {
            if (l.lineAddr == lineOf(addr))
                return &l;
        }
        return nullptr;
    }

    L1Config cfg_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t clock_ = 0;
};

/** An L1Cache and the model, driven by the same calls. */
struct CacheModelPair
{
    explicit CacheModelPair(const L1Config &cfg) : cache(cfg), model(cfg) {}

    /** One reference through both; the verdicts must agree. */
    L1FastOutcome
    access(Addr addr, bool write)
    {
        const L1FastOutcome f = cache.accessClassify(addr, write);
        EXPECT_EQ(f, model.access(addr, write))
            << std::hex << addr << (write ? " W" : " R");
        return f;
    }

    void
    grantWrite(Addr addr)
    {
        cache.grantWrite(addr);
        model.grantWrite(addr);
    }

    /** Install @p addr in both (dirty on a write); the displaced lines
     *  must agree. */
    void
    fill(Addr addr, bool writable, bool write = false)
    {
        L1Victim vc;
        cache.fill(addr, writable, write, vc);
        const L1Victim vm = model.fill(addr, writable, write);
        EXPECT_EQ(vc.valid, vm.valid);
        EXPECT_EQ(vc.dirty, vm.dirty);
        EXPECT_EQ(vc.lineAddr, vm.lineAddr);
    }

    /** Full line state (presence, permission, dirtiness) agrees. */
    void
    expectSameLines() const
    {
        const auto lc = cache.validLineInfo();
        const auto lm = model.lines();
        ASSERT_EQ(lc.size(), lm.size());
        for (std::size_t k = 0; k < lc.size(); ++k) {
            EXPECT_EQ(lc[k].lineAddr, lm[k].lineAddr) << k;
            EXPECT_EQ(lc[k].writable, lm[k].writable) << k;
            EXPECT_EQ(lc[k].dirty, lm[k].dirty) << k;
        }
        EXPECT_EQ(cache.validLines(), lm.size());
    }

    L1Cache cache;
    L1Model model;
};

} // namespace

TEST(L1Cache, MatchesReferenceModelAcrossDirtyEvictionBoundaries)
{
    // An L1Cache and the plain reference model driven by the same
    // access/grant/fill sequences, at every associativity the run()
    // walk serves. Both must agree on every verdict, every victim
    // (especially dirty ones at eviction boundaries), and the full
    // final line state — i.e. the single associative search of
    // accessClassify() and grantWrite() changes exactly the state the
    // model changes.
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "assoc " << assoc);
        L1Config cfg;
        cfg.sizeBytes = 512;  // 16 frames: constant conflict pressure
        cfg.assoc = assoc;
        cfg.blockBytes = 32;

        // Randomized: 24 lines over 16 frames keep hits, permission
        // misses and capacity misses all frequent.
        {
            CacheModelPair c(cfg);
            jetty::Rng rng(99);
            for (int i = 0; i < 20000; ++i) {
                const Addr addr = 0x1000 + rng.below(24) * 32;
                const bool write = rng.chance(0.45);
                const L1FastOutcome out = c.access(addr, write);
                if (out == L1FastOutcome::Miss) {
                    // Genuine miss: fill both with the same permission.
                    // This is where dirty victims cross the eviction
                    // boundary.
                    const bool writable = write || rng.chance(0.6);
                    c.fill(addr, writable, write);
                } else if (out == L1FastOutcome::Blocked &&
                           rng.chance(0.5)) {
                    // The L2 upgrade went through: the write retires.
                    c.grantWrite(addr);
                }
                if (i % 1000 == 0)
                    c.expectSameLines();
                if (HasFailure())
                    FAIL() << "diverged at iteration " << i;
            }
            c.expectSameLines();
        }

        cfg.sizeBytes = 1024;

        // An all-Blocked chunk: writes against read-only lines, none of
        // which may touch LRU or dirty state; then one write is granted
        // and a fill lands in its set.
        {
            CacheModelPair c(cfg);
            for (Addr a = 0x4000; a < 0x4000 + 8 * 32; a += 32)
                c.fill(a, false);
            for (Addr a = 0x4000; a < 0x4000 + 8 * 32; a += 32)
                EXPECT_EQ(c.access(a, true), L1FastOutcome::Blocked);
            c.expectSameLines();
            c.grantWrite(0x4000);
            c.fill(0x4000 + 32 * 32 * assoc, false);
            c.expectSameLines();
        }

        // Full-width 56-bit addresses (the largest physAddrBits the
        // simulator configures): no lookup may narrow a tag.
        {
            const Addr top = ((Addr{1} << 56) - 1) & ~Addr{31};
            CacheModelPair c(cfg);
            c.fill(top, true);
            c.fill(top - 32, false);
            EXPECT_EQ(c.access(top, true), L1FastOutcome::Hit);
            EXPECT_EQ(c.access(top - 32, false), L1FastOutcome::Hit);
            EXPECT_EQ(c.access(top - 64, false), L1FastOutcome::Miss);
            EXPECT_EQ(c.access(top - 32, true), L1FastOutcome::Blocked);
            c.grantWrite(top - 32);
            EXPECT_EQ(c.access(top - 32, true), L1FastOutcome::Hit);
            EXPECT_EQ(c.access(top, false), L1FastOutcome::Hit);
            c.expectSameLines();
        }

        // Alternating hit/miss: every other line present, with read
        // hits, misses and Blocked writes interleaved.
        {
            CacheModelPair c(cfg);
            for (unsigned k = 0; k < 16; k += 2)
                c.fill(0x8000 + 32 * k, k % 4 == 0);
            for (unsigned k = 0; k < 16; ++k)
                c.access(0x8000 + 32 * k, k % 4 == 2);
            c.expectSameLines();
        }
    }
}

TEST(L1Cache, FastPathRefusalLeavesCacheUntouched)
{
    // A refused fast access (miss, or write without permission) must not
    // perturb LRU: after the refusal the replacement decision is the
    // same as if the call never happened.
    L1Config cfg;
    cfg.sizeBytes = 1024;
    cfg.assoc = 2;  // 16 sets x 2 ways
    cfg.blockBytes = 32;
    const Addr set_stride = 16 * 32;

    L1Cache l1(cfg);
    L1Victim victim;
    l1.fill(0x0, false, false, victim);
    l1.fill(set_stride, true, false, victim);
    // A read hit: 0x0 is MRU, set_stride is LRU.
    EXPECT_EQ(l1.accessClassify(0x0, false), L1FastOutcome::Hit);

    // Refused accesses: a write to the non-writable MRU line and a read
    // of an absent line. Neither may reorder the set.
    EXPECT_EQ(l1.accessClassify(0x0, true), L1FastOutcome::Blocked);
    EXPECT_EQ(l1.accessClassify(3 * set_stride, false), L1FastOutcome::Miss);

    l1.fill(2 * set_stride, false, false, victim);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.lineAddr, set_stride);  // still the LRU
    EXPECT_TRUE(l1.probe(0x0).hit);
}
