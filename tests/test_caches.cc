/**
 * @file
 * Unit tests for the memory substrate: L1 cache, subblocked L2 cache with
 * listeners, and the write-back buffer.
 */

#include <gtest/gtest.h>

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
    l1.fill(0x1000, false, victim);
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
    l1.fill(0x1000, false, victim);
    EXPECT_TRUE(l1.probe(0x101f).hit);   // same 32B line
    EXPECT_FALSE(l1.probe(0x1020).hit);  // next line
}

TEST(L1Cache, DirectMappedConflictEvicts)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x0, true, victim);
    l1.markDirty(0x0);
    // 1KB direct mapped: 0x400 aliases with 0x0.
    l1.fill(0x400, false, victim);
    EXPECT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(victim.lineAddr, 0x0u);
    EXPECT_FALSE(l1.probe(0x0).hit);
}

TEST(L1Cache, CleanVictimReported)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x0, false, victim);
    l1.fill(0x400, false, victim);
    EXPECT_TRUE(victim.valid);
    EXPECT_FALSE(victim.dirty);
}

TEST(L1Cache, WritableAndDirtyFlags)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x40, true, victim);
    EXPECT_TRUE(l1.probe(0x40).writable);
    l1.markDirty(0x40);
    EXPECT_TRUE(l1.probe(0x40).dirty);
    l1.setWritable(0x40, false);
    EXPECT_FALSE(l1.probe(0x40).writable);
}

TEST(L1Cache, InvalidateReportsDirtiness)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    l1.fill(0x40, true, victim);
    l1.markDirty(0x40);
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
    l1.fill(0x0, false, victim);
    l1.fill(set_stride, false, victim);
    l1.touch(0x0);  // make way holding 0x0 the MRU
    l1.fill(2 * set_stride, false, victim);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.lineAddr, set_stride);  // LRU evicted
    EXPECT_TRUE(l1.probe(0x0).hit);
}

TEST(L1Cache, ValidLineCount)
{
    L1Cache l1(smallL1());
    L1Victim victim;
    EXPECT_EQ(l1.validLines(), 0u);
    l1.fill(0x0, false, victim);
    l1.fill(0x20, false, victim);
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

    EXPECT_TRUE(l2.hasBlock(0x1020));
    EXPECT_FALSE(l2.hasBlock(0x2000));
}

TEST(L2Cache, UnitAlignment)
{
    L2Cache l2(smallL2());
    EXPECT_EQ(l2.unitAlign(0x103f), 0x1020u);
    EXPECT_EQ(l2.blockAlign(0x103f), 0x1000u);
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
    EXPECT_FALSE(l2.hasBlock(0x0));
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
    const auto out = l2.snoop(0x80, BusOp::BusRead);
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
    const auto out = l2.snoop(0x80, BusOp::BusReadX);
    EXPECT_TRUE(out.hadCopy);
    EXPECT_FALSE(l2.probe(0x80).unitValid);
    ASSERT_EQ(rec.evicts.size(), 1u);
    EXPECT_EQ(rec.evicts[0], 0x80u);
}

TEST(L2Cache, SnoopMissOnAbsentBlock)
{
    L2Cache l2(smallL2());
    const auto out = l2.snoop(0xbeef00, BusOp::BusRead);
    EXPECT_FALSE(out.hadCopy);
}

TEST(L2Cache, SnoopMissOnInvalidSibling)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    l2.fill(0x1000, State::Exclusive, victims);
    const auto out = l2.snoop(0x1020, BusOp::BusRead);
    EXPECT_FALSE(out.hadCopy);
    // The valid sibling is untouched.
    EXPECT_TRUE(l2.probe(0x1000).unitValid);
}

TEST(L2Cache, SetStateTransitions)
{
    L2Cache l2(smallL2());
    std::vector<L2Victim> victims;
    l2.fill(0xc0, State::Exclusive, victims);
    l2.setState(0xc0, State::Modified);
    EXPECT_EQ(l2.probe(0xc0).state, State::Modified);
}

TEST(L2Cache, InvalidateUnit)
{
    L2Cache l2(smallL2());
    RecordingListener rec;
    l2.addListener(&rec);
    std::vector<L2Victim> victims;
    l2.fill(0xc0, State::Shared, victims);
    l2.invalidateUnit(0xc0);
    EXPECT_FALSE(l2.probe(0xc0).unitValid);
    EXPECT_EQ(rec.evicts.size(), 1u);
    l2.invalidateUnit(0xc0);  // no-op
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
    l2.snoop(0x40, BusOp::BusReadX);
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
    l2.touch(0x0);
    victims.clear();
    l2.fill(2 * stride, State::Exclusive, victims);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].unitAddr, stride);
    EXPECT_TRUE(l2.hasBlock(0x0));
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

TEST(WritebackBuffer, ContainsAndTake)
{
    WritebackBuffer wb(4);
    wb.push({0x100, State::Modified});
    wb.push({0x200, State::Owned});
    EXPECT_TRUE(wb.contains(0x200));
    EXPECT_FALSE(wb.contains(0x300));

    bool found = false;
    const auto e = wb.take(0x200, found);
    EXPECT_TRUE(found);
    EXPECT_EQ(e.state, State::Owned);
    EXPECT_FALSE(wb.contains(0x200));
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
    // Remote snoops remove (take) and demote (demoteForRead) entries at
    // arbitrary positions; the survivors must still drain oldest-first,
    // in their original relative order.
    WritebackBuffer wb(8);
    for (Addr a = 0x100; a <= 0x800; a += 0x100)
        wb.push({a, State::Modified});

    bool found = false;
    wb.take(0x300, found);  // BusReadX mid-buffer
    EXPECT_TRUE(found);
    wb.take(0x100, found);  // BusReadX at the head
    EXPECT_TRUE(found);
    EXPECT_TRUE(wb.demoteForRead(0x500));  // BusRead mid-buffer
    wb.push({0x900, State::Owned});        // new victim behind everyone

    const Addr expect_order[] = {0x200, 0x400, 0x500, 0x600,
                                 0x700, 0x800, 0x900};
    ASSERT_EQ(wb.size(), 7u);
    for (const Addr a : expect_order)
        EXPECT_EQ(wb.pop().unitAddr, a);
    EXPECT_TRUE(wb.empty());
}

TEST(WritebackBuffer, DemoteForReadOnlyTouchesModified)
{
    WritebackBuffer wb(4);
    wb.push({0x100, State::Modified});
    wb.push({0x200, State::Owned});

    EXPECT_TRUE(wb.demoteForRead(0x100));
    EXPECT_TRUE(wb.demoteForRead(0x200));   // Owned stays Owned
    EXPECT_FALSE(wb.demoteForRead(0x300));  // absent

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
    EXPECT_TRUE(wb.contains(0x100));
    EXPECT_EQ(wb.entries().front().state, State::Owned);
    EXPECT_TRUE(wb.snoop(0x100, false));
    EXPECT_EQ(wb.entries().front().state, State::Owned);

    // BusReadX/Upgrade: hit and ownership transfer (entry removed).
    EXPECT_TRUE(wb.snoop(0x200, true));
    EXPECT_FALSE(wb.contains(0x200));
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
    // The snoop path skips the buffer scan when maybeContains() is
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
            if (wb.hasRoom() && !wb.contains(a))
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
            ASSERT_TRUE(wb.maybeContains(e.unitAddr)) << "step " << step;
        }
        ASSERT_EQ(wb.signature(), want) << "step " << step;
    }
}

// ---------------------------------------- L1 fast path vs slow path ----

namespace
{

/** The slow-path equivalent of one accessClassify() call: probe, and on
 *  a serviceable hit touch (+ markDirty for writes). Returns the verdict
 *  accessClassify() must return. */
L1FastOutcome
slowClassify(L1Cache &l1, Addr addr, bool write)
{
    const auto res = l1.probe(addr);
    if (!res.hit)
        return L1FastOutcome::Miss;
    if (write && !res.writable)
        return L1FastOutcome::Blocked;
    l1.touch(addr);
    if (write)
        l1.markDirty(addr);
    return L1FastOutcome::Hit;
}

/** Two caches of one geometry: `fast` driven through accessClassify(),
 *  `slow` through the probe/touch/markDirty route. */
struct FastSlowPair
{
    explicit FastSlowPair(const L1Config &cfg) : fast(cfg), slow(cfg) {}

    /** One reference through both caches; the verdicts must agree. */
    L1FastOutcome
    access(Addr addr, bool write)
    {
        const L1FastOutcome f = fast.accessClassify(addr, write);
        EXPECT_EQ(f, slowClassify(slow, addr, write))
            << std::hex << addr << (write ? " W" : " R");
        return f;
    }

    /** Install @p addr in both (dirty on a permitted write); the
     *  displaced lines must agree. */
    void
    fill(Addr addr, bool writable, bool write = false)
    {
        L1Victim vf, vs;
        fast.fill(addr, writable, vf);
        slow.fill(addr, writable, vs);
        if (write && writable) {
            fast.markDirty(addr);
            slow.markDirty(addr);
        }
        EXPECT_EQ(vf.valid, vs.valid);
        EXPECT_EQ(vf.dirty, vs.dirty);
        EXPECT_EQ(vf.lineAddr, vs.lineAddr);
    }

    /** Full line state (presence, permission, dirtiness) agrees. */
    void
    expectSameLines() const
    {
        const auto lf = fast.validLineInfo();
        const auto ls = slow.validLineInfo();
        ASSERT_EQ(lf.size(), ls.size());
        for (std::size_t k = 0; k < lf.size(); ++k) {
            EXPECT_EQ(lf[k].lineAddr, ls[k].lineAddr) << k;
            EXPECT_EQ(lf[k].writable, ls[k].writable) << k;
            EXPECT_EQ(lf[k].dirty, ls[k].dirty) << k;
        }
        EXPECT_EQ(fast.validLines(), slow.validLines());
    }

    L1Cache fast;
    L1Cache slow;
};

} // namespace

TEST(L1Cache, FastPathMatchesSlowPathAcrossDirtyEvictionBoundaries)
{
    // Two identical caches driven by the same access/fill sequences, one
    // through accessClassify(), one through the probe/touch/markDirty
    // route, at every associativity the run() walk serves. Both must
    // agree on every verdict, every victim (especially dirty ones at
    // eviction boundaries), and the full final line state — i.e. the
    // fast path's single associative search changes exactly the state
    // the slow path changes.
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "assoc " << assoc);
        L1Config cfg;
        cfg.sizeBytes = 512;  // 16 frames: constant conflict pressure
        cfg.assoc = assoc;
        cfg.blockBytes = 32;

        // Randomized: 24 lines over 16 frames keep hits, permission
        // misses and capacity misses all frequent.
        {
            FastSlowPair c(cfg);
            jetty::Rng rng(99);
            for (int i = 0; i < 20000; ++i) {
                const Addr addr = 0x1000 + rng.below(24) * 32;
                const bool write = rng.chance(0.45);
                if (c.access(addr, write) == L1FastOutcome::Miss) {
                    // Genuine miss: fill both with the same permission.
                    // This is where dirty victims cross the eviction
                    // boundary.
                    c.fill(addr, rng.chance(0.6), write);
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
        // which may touch LRU or dirty state.
        {
            FastSlowPair c(cfg);
            for (Addr a = 0x4000; a < 0x4000 + 8 * 32; a += 32)
                c.fill(a, false);
            for (Addr a = 0x4000; a < 0x4000 + 8 * 32; a += 32)
                EXPECT_EQ(c.access(a, true), L1FastOutcome::Blocked);
            c.expectSameLines();
        }

        // Full-width 56-bit addresses (the largest physAddrBits the
        // simulator configures): no lookup may narrow a tag.
        {
            const Addr top = ((Addr{1} << 56) - 1) & ~Addr{31};
            FastSlowPair c(cfg);
            c.fill(top, true);
            c.fill(top - 32, false);
            EXPECT_EQ(c.access(top, true), L1FastOutcome::Hit);
            EXPECT_EQ(c.access(top - 32, false), L1FastOutcome::Hit);
            EXPECT_EQ(c.access(top - 64, false), L1FastOutcome::Miss);
            EXPECT_EQ(c.access(top - 32, true), L1FastOutcome::Blocked);
            EXPECT_EQ(c.access(top, false), L1FastOutcome::Hit);
            c.expectSameLines();
        }

        // Alternating hit/miss: every other line present, with read
        // hits, misses and Blocked writes interleaved.
        {
            FastSlowPair c(cfg);
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
    l1.fill(0x0, false, victim);
    l1.fill(set_stride, true, victim);
    l1.touch(0x0);  // 0x0 is MRU, set_stride is LRU

    // Refused accesses: a write to the non-writable MRU line and a read
    // of an absent line. Neither may reorder the set.
    EXPECT_EQ(l1.accessClassify(0x0, true), L1FastOutcome::Blocked);
    EXPECT_EQ(l1.accessClassify(3 * set_stride, false), L1FastOutcome::Miss);

    l1.fill(2 * set_stride, false, victim);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.lineAddr, set_stride);  // still the LRU
    EXPECT_TRUE(l1.probe(0x0).hit);
}
