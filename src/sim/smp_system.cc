#include "sim/smp_system.hh"

#include <sched.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/bits.hh"
#include "util/logging.hh"

namespace jetty::sim
{

using coherence::BusOp;
using coherence::BusResponse;
using coherence::State;

namespace
{

/**
 * run()'s replay pipeline: the walk hands every bank's sealed batch to a
 * ring slot, and one helper thread replays the slots in hand-off order.
 * Each bank's batches therefore replay in capture order, chunk by chunk,
 * exactly as an inline replay would; only the wall clock differs. The
 * helper starts on the first hand-off and is joined before run()
 * returns or unwinds. A hand-off moves kReplayHandoffEvents or more
 * events, so the two sides meet rarely and simply block on one
 * condition variable: at most one of them waits at a time (the walk
 * for a free slot, the helper for a filled one).
 */
class FilterReplayer
{
  public:
    /** Handed-off batches in flight at once; the walk waits for a free
     *  slot when the replay falls this far behind. */
    static constexpr std::uint64_t kRingSlots = 4;

    explicit FilterReplayer(std::vector<filter::FilterBank *> banks)
        : banks_(std::move(banks))
    {
        for (auto &slot : ring_)
            slot.resize(banks_.size());
    }

    ~FilterReplayer() { stop(); }

    FilterReplayer(const FilterReplayer &) = delete;
    FilterReplayer &operator=(const FilterReplayer &) = delete;

    /** Move every bank's queued batch into the next slot (waiting for
     *  one to free up) and start the helper if it is not running. */
    void
    handOff()
    {
        std::uint64_t n = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            changed_.wait(lock,
                          [&] { return handed_ - replayed_ < kRingSlots; });
            n = handed_;
        }
        // Slot n is outside [replayed_, handed_), so the helper does not
        // touch it until the counter below says so.
        auto &slot = ring_[n % kRingSlots];
        for (std::size_t i = 0; i < banks_.size(); ++i)
            banks_[i]->take(slot[i]);
        advance(handed_);
        if (!helper_.joinable())
            helper_ = std::thread([this] { drain(); });
    }

    /** If the helper runs, hand it what is still queued and wait until
     *  it has replayed everything. Otherwise leave the queues alone. */
    void
    finish()
    {
        if (!helper_.joinable())
            return;
        handOff();
        stop();
    }

  private:
    using Slot = std::vector<filter::FilterBank::Pending>;

    /** The helper: replay slots in hand-off order until closed and
     *  drained. A safety panic fires here. */
    void
    drain()
    {
        for (std::uint64_t n = 0;; ++n) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                changed_.wait(lock, [&] { return handed_ > n || closed_; });
                if (handed_ == n)
                    return;
            }
            auto &slot = ring_[n % kRingSlots];
            for (std::size_t i = 0; i < banks_.size(); ++i)
                banks_[i]->replay(slot[i]);
            advance(replayed_);
        }
    }

    /** Close the ring and join the helper after it drains. */
    void
    stop()
    {
        if (!helper_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        changed_.notify_one();
        helper_.join();
    }

    /** Count one more slot handed off or replayed, and wake the other
     *  side if it waits. */
    void
    advance(std::uint64_t &counter)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counter;
        }
        changed_.notify_one();
    }

    std::vector<filter::FilterBank *> banks_;
    std::array<Slot, kRingSlots> ring_;

    std::mutex mutex_; //!< guards the counters and closed_
    std::condition_variable changed_;
    std::uint64_t handed_ = 0;   //!< slots handed off
    std::uint64_t replayed_ = 0; //!< slots replayed
    bool closed_ = false;        //!< no more hand-offs

    std::thread helper_;
};

/**
 * Whether run()'s replay can overlap the walk: the calling thread, whose
 * CPU mask the helper inherits, may run on two CPUs or more. On one
 * (`taskset -c 0`) the helper would only take turns with the walk on
 * its core, which measured slower than replaying inline.
 */
bool
replayCanOverlap()
{
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return true;
    return CPU_COUNT(&cpus) >= 2;
}

} // namespace

filter::AddressMap
SmpConfig::addressMap() const
{
    filter::AddressMap amap;
    amap.unitOffsetBits = floorLog2(l2.unitBytes());
    amap.blockOffsetBits = floorLog2(l2.blockBytes);
    amap.physAddrBits = physAddrBits;
    amap.l2CapacityUnits = l2.sizeBytes / l2.unitBytes();
    return amap;
}

SmpSystem::SmpSystem(const SmpConfig &cfg)
    : cfg_(cfg),
      blockOffsetBits_(floorLog2(cfg.l2.blockBytes)),
      stats_(cfg.nprocs, cfg.snoopBuses)
{
    if (cfg.nprocs < 2)
        fatal("SmpSystem: an SMP needs at least two processors");
    if (cfg.snoopBuses < 1)
        fatal("SmpSystem: need at least one snoop bus");
    if (cfg.l1.blockBytes != cfg.l2.unitBytes())
        fatal("SmpSystem: the L1 line must equal the L2 coherence unit");

    const filter::AddressMap amap = cfg.addressMap();
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        auto node = std::make_unique<Node>();
        node->l1 = std::make_unique<mem::L1Cache>(cfg.l1);
        node->l2 = std::make_unique<mem::L2Cache>(cfg.l2);
        node->wb = std::make_unique<mem::WritebackBuffer>(cfg.wbEntries);
        node->bank = std::make_unique<filter::FilterBank>(
            cfg.filterSpecs, amap, cfg.checkSafety, cfg.snoopBuses);
        node->l2->addListener(node->bank.get());
        nodes_.push_back(std::move(node));
    }
}

void
SmpSystem::attachSources(std::vector<trace::TraceSourcePtr> sources)
{
    if (sources.size() != nodes_.size())
        fatal("SmpSystem::attachSources: need one source per processor");
    for (unsigned p = 0; p < nodes_.size(); ++p) {
        nodes_[p]->source = std::move(sources[p]);
        nodes_[p]->sourceDone = nodes_[p]->source == nullptr;
        nodes_[p]->batchPos = 0;
        nodes_[p]->batchLen = 0;
    }
}

bool
SmpSystem::refillBatch(Node &node)
{
    const std::size_t want = cfg_.batchRefs >= 1 ? cfg_.batchRefs : 1;
    if (node.batch.size() != want)
        node.batch.resize(want);
    node.batchLen = node.source->nextBatch(node.batch.data(), want);
    node.batchPos = 0;
    if (node.batchLen == 0) {
        node.sourceDone = true;
        return false;
    }
    return true;
}

bool
SmpSystem::step()
{
    bool any = false;
    for (unsigned p = 0; p < nodes_.size(); ++p) {
        Node &node = *nodes_[p];
        if (node.sourceDone)
            continue;
        if (node.batchPos == node.batchLen && !refillBatch(node))
            continue;
        const trace::TraceRecord rec = node.batch[node.batchPos++];
        any = true;
        processorAccess(p, rec.type, rec.addr);
    }
    return any;
}

void
SmpSystem::run()
{
    // With an observer attached, take the step() route: it funnels every
    // reference through processorAccess(), which is where the hooks
    // fire, and it is bit-identical to the batched loop below (asserted
    // in test_sim). The hooks-unset hot path is untouched.
    if (observer_) {
        while (step()) {
        }
        return;
    }

    // The batched hot loop walks chunks of the round-robin schedule
    // (DESIGN.md, "The run() walk"). The interleaving is exactly
    // step()'s — one reference per live processor per sweep — and each
    // reference takes step()'s access() dispatch straight off the trace
    // record: a hit retires in place (it touches only its own L1's
    // LRU/dirty state), and a Blocked write or a miss takes its tail
    // without a second L1 lookup. Misses interact across processors
    // (fill states, evictions, WB FIFOs), so the walk never reorders the
    // schedule; it is the same for every L1 geometry.
    //
    // The filter banks run deferred throughout: every snoop observation
    // and L2 fill/evict notification stays queued per home snoop bus,
    // and each chunk boundary seals a chunk (FilterBank::sealChunk).
    // Once kReplayHandoffEvents are queued the sealed batch goes to the
    // replay thread and the walk carries on; a bank's batches replay in
    // hand-off order, each chunk bus-major, so where and when a batch
    // replays never changes a number. step() instead replays each event
    // as it is queued. Both routes make identical coherence state
    // changes, so run(), step()-driven loops, and every batchRefs value
    // produce bit-identical statistics (and with snoopBuses == 1 the
    // replay is the capture order, making the filter numbers
    // bit-identical too). A run without filters, or one whose thread
    // may use a single CPU, replays (or, without filters, drops) each
    // chunk's queues at its boundary instead: the same order, inline.
    const unsigned nprocs = static_cast<unsigned>(nodes_.size());
    const Addr unit_mask = ~(static_cast<Addr>(cfg_.l2.unitBytes()) - 1);

    std::vector<filter::FilterBank *> banks;
    for (auto &node : nodes_) {
        node->bank->beginDeferred();
        banks.push_back(node->bank.get());
    }
    const bool handsOff = !cfg_.filterSpecs.empty() && replayCanOverlap();
    FilterReplayer replayer(std::move(banks));

    /** One live processor of a chunk, resolved once so the
     *  per-reference loop does no unique_ptr chasing. */
    struct Lane
    {
        ProcId proc;
        mem::L1Cache *l1;
        const trace::TraceRecord *rec;  //!< its slice of the batch
    };
    std::vector<Lane> lanes;
    lanes.reserve(nprocs);

    for (;;) {
        // Top up every live batch and size the next chunk of sweeps: all
        // live processors can serve at least `rounds` full sweeps without
        // another exhaustion or refill check. A processor leaves the live
        // set only at a batch boundary, which is exactly when step()
        // semantics would discover its exhaustion — the (proc, record)
        // issue order is untouched. Lanes are in ascending id order (the
        // round-robin order).
        lanes.clear();
        std::size_t rounds = ~std::size_t{0};
        for (unsigned p = 0; p < nprocs; ++p) {
            Node &node = *nodes_[p];
            if (node.sourceDone)
                continue;
            if (node.batchPos == node.batchLen && !refillBatch(node))
                continue;
            lanes.push_back(
                {p, node.l1.get(), node.batch.data() + node.batchPos});
            rounds = std::min(rounds, node.batchLen - node.batchPos);
        }
        if (lanes.empty())
            break;
        for (const Lane &ln : lanes)
            nodes_[ln.proc]->batchPos += rounds;

        for (std::size_t r = 0; r < rounds; ++r) {
            for (const Lane &ln : lanes) {
                const trace::TraceRecord &rc = ln.rec[r];
                access(ln.proc, *ln.l1, rc.type, rc.addr & unit_mask);
            }
        }

        // Chunk boundary: seal the chunk, and hand the batch over once
        // it is big enough to be worth a wake-up.
        if (!handsOff) {
            for (auto &node : nodes_)
                node->bank->flushDeferred();
            continue;
        }
        std::size_t queued = 0;
        for (auto &node : nodes_) {
            node->bank->sealChunk();
            queued += node->bank->queuedEvents();
        }
        if (queued >= kReplayHandoffEvents)
            replayer.handOff();
    }

    // Everything queued replays before run() returns: on the helper if
    // it started, inline otherwise.
    replayer.finish();
    for (auto &node : nodes_)
        node->bank->endDeferred();
}

const filter::FilterBank &
SmpSystem::bank(ProcId p) const
{
    return *nodes_.at(p)->bank;
}

filter::FilterStats
SmpSystem::mergedFilterStats(std::size_t filterIdx) const
{
    filter::FilterStats merged;
    for (const auto &node : nodes_)
        merged.merge(node->bank->statsAt(filterIdx));
    return merged;
}

energy::L2Traffic
SmpSystem::mergedTraffic() const
{
    energy::L2Traffic t;
    for (const auto &p : stats_.procs)
        t.merge(p.traffic);
    return t;
}

void
SmpSystem::enforceInclusion(ProcId p, Addr unitAddr)
{
    Node &node = *nodes_[p];
    // An L1 line equals one coherence unit, so a single invalidate covers
    // it. Dirty L1 data conceptually merges into the departing unit; the
    // victim is already dirty (M/O) whenever the L1 line could be dirty.
    if (node.l1->invalidate(unitAddr))
        ++stats_.procs[p].l1SnoopInvalidations;
}

BusResponse
SmpSystem::broadcast(ProcId requester, BusOp op, Addr unitAddr)
{
    BusResponse resp;
    ++stats_.snoopTransactions;

    // Route to the unit's home bus and count its occupancy.
    const unsigned bus =
        interleavedBus(unitAddr, blockOffsetBits_, cfg_.snoopBuses);
    BusStats &bs = stats_.perBus[bus];
    ++bs.transactions;
    switch (op) {
      case BusOp::BusRead:
        ++bs.reads;
        break;
      case BusOp::BusReadX:
        ++bs.readXs;
        break;
      case BusOp::BusUpgrade:
        ++bs.upgrades;
        break;
      case BusOp::BusWriteback:
        break;
    }
    stats_.busSnoopTagProbes[bus] += nodes_.size() - 1;

    // One scan per remote node. The write-back buffer scan is gated by
    // its exact-safe presence signature (the address hashes to its
    // signature bit once, tested against every remote buffer), and the
    // L2 snoop reuses the ground-truth probe's way lookup.
    const std::uint64_t sig_bit =
        mem::WritebackBuffer::signatureBitOf(unitAddr);
    for (unsigned q = 0; q < nodes_.size(); ++q) {
        if (q == requester)
            continue;
        Node &node = *nodes_[q];
        ProcStats &qs = stats_.procs[q];

        bool copy_here = false;

        // 1. The write-back buffer is always snooped (never filtered).
        //    One scan settles the hit, the ownership transfer on
        //    BusReadX/BusUpgrade (the pending memory update is
        //    obsolete), and the M->O demotion on a supplying BusRead —
        //    without the demotion the owner's later reclaim would
        //    resurrect an M (write-without-bus) copy while the reader
        //    still holds Shared, the silent-stale-read coherence break
        //    the differential checkers caught.
        const bool wb_hit =
            node.wb->maybeContainsSig(sig_bit) &&
            node.wb->snoop(unitAddr, op == BusOp::BusReadX ||
                                         op == BusOp::BusUpgrade);
        if (wb_hit) {
            copy_here = true;
            ++qs.wbSnoopsHit;
            resp.suppliedByCache = true;
        }

        // 2. The JETTY bank observes the snoop with L2 ground truth
        //    *before* any state transition. One probe serves both the
        //    bank's ground truth and the pre-transition state below —
        //    nothing mutates the L2 in between.
        mem::L2LookupResult probe_res;
        const int way = node.l2->probeWay(unitAddr, probe_res);
        node.bank->observeSnoop(unitAddr, probe_res.unitValid,
                                probe_res.tagMatch);

        // 3. The L2 tag array is probed (a JETTY saves this energy for
        //    filtered snoops; the accountant subtracts it per filter).
        ++qs.snoopTagProbes;
        ++qs.traffic.snoopTagProbes;

        const State before = probe_res.state;
        const auto outcome = node.l2->snoopAtWay(way, unitAddr, op);
        if (outcome.hadCopy) {
            copy_here = true;
            ++qs.snoopHits;
            if (outcome.supplied) {
                ++qs.snoopSupplies;
                resp.suppliedByCache = true;
                ++qs.traffic.snoopDataReads;
            }
            if (outcome.next != before)
                ++qs.traffic.snoopTagUpdates;
            // Inclusion: purge the L1 copy whenever the unit leaves or
            // loses exclusivity (the only cases where the L1 could hold
            // stale permissions or newer data).
            if (!coherence::isValid(outcome.next) ||
                coherence::isWritable(before)) {
                enforceInclusion(q, unitAddr);
            }
        } else {
            ++qs.snoopMisses;
        }

        if (copy_here)
            ++resp.remoteCopies;

        if (observer_) {
            // Emitted after the transition and inclusion enforcement, so
            // a checker sees the settled post-snoop node state (and,
            // outside run()'s batch, the bank's replayed verdicts).
            SnoopEvent ev;
            ev.requester = requester;
            ev.target = q;
            ev.op = op;
            ev.unitAddr = unitAddr;
            ev.before = before;
            ev.after = outcome.next;
            ev.wbHit = wb_hit;
            ev.supplied = outcome.supplied;
            ev.busId = bus;
            observer_->onSnoop(ev);
        }
    }

    stats_.remoteHits.sample(resp.remoteCopies);
    if (observer_)
        observer_->onBusTransaction(requester, op, unitAddr,
                                    resp.remoteCopies, bus);
    return resp;
}

void
SmpSystem::pushVictim(ProcId p, const mem::L2Victim &victim)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    if (!coherence::isDirty(victim.state))
        return;  // clean units vanish silently (memory is current)

    if (!node.wb->hasRoom()) {
        // Forced drain: the oldest victim goes to memory over the bus.
        node.wb->pop();
        ++ps.wbDrains;
        ++ps.busWritebacks;
    }
    node.wb->push({victim.unitAddr, victim.state});
    ++ps.wbInsertions;
}

coherence::State
SmpSystem::fetchUnit(ProcId p, Addr unitAddr, bool forWrite)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    // Reclaim from the local write-back buffer when possible: the victim
    // never left the chip, so no bus transaction is needed for data.
    bool in_wb = false;
    mem::WbEntry wb_entry = node.wb->take(unitAddr, in_wb);
    State fill_state;

    if (in_wb) {
        ++ps.wbReclaims;
        fill_state = wb_entry.state;
        if (forWrite && !coherence::isWritable(fill_state)) {
            // An Owned victim may still be shared elsewhere: upgrade.
            broadcast(p, BusOp::BusUpgrade, unitAddr);
            ++ps.busUpgrades;
            fill_state = State::Modified;
        }
    } else {
        const BusOp op = forWrite ? BusOp::BusReadX : BusOp::BusRead;
        const BusResponse resp = broadcast(p, op, unitAddr);
        if (op == BusOp::BusRead)
            ++ps.busReads;
        else
            ++ps.busReadXs;
        fill_state = coherence::fillState(op, resp.remoteCopies > 0);
    }

    // Install the unit; handle the displaced block, if any.
    std::vector<mem::L2Victim> &victims = victimScratch_;
    victims.clear();
    node.l2->fill(unitAddr, fill_state, victims);
    ++ps.l2Fills;
    ++ps.traffic.localTagUpdates;  // tag/state install
    ++ps.traffic.localDataWrites;  // unit data written into the array
    for (const auto &v : victims) {
        ++ps.l2Evictions;
        enforceInclusion(p, v.unitAddr);
        pushVictim(p, v);
    }
    return fill_state;
}

void
SmpSystem::processorAccess(ProcId p, AccessType type, Addr addr)
{
    Node &node = *nodes_[p];
    access(p, *node.l1, type, node.l2->unitAlign(addr));
    if (observer_)
        observer_->onReference(p, type, addr);
}

void
SmpSystem::upgradeForWrite(ProcId p, Addr unit)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    ++ps.l2LocalAccesses;
    ++ps.traffic.localTagProbes;
    mem::L2LookupResult l2_res;
    const int way = node.l2->probeWay(unit, l2_res);
    if (!l2_res.unitValid)
        panic("inclusion violated: L1 line without L2 unit");
    ++ps.l2LocalHits;
    node.l2->touchAt(way, unit);

    if (coherence::isWritable(l2_res.state)) {
        if (l2_res.state == State::Exclusive) {
            node.l2->setStateAt(way, unit, State::Modified);
            ++ps.upgradesSilent;
            ++ps.traffic.localTagUpdates;
        }
    } else {
        // Shared or Owned: invalidate the other copies. (The bus only
        // snoops remote nodes, so the located way survives.)
        broadcast(p, BusOp::BusUpgrade, unit);
        ++ps.busUpgrades;
        node.l2->setStateAt(way, unit, State::Modified);
        ++ps.traffic.localTagUpdates;
    }
}

void
SmpSystem::missTail(ProcId p, AccessType type, Addr unit)
{
    Node &node = *nodes_[p];
    ProcStats &ps = stats_.procs[p];

    ++ps.l2LocalAccesses;
    ++ps.traffic.localTagProbes;

    mem::L2LookupResult l2_res;
    const int way = node.l2->probeWay(unit, l2_res);
    State unit_state = l2_res.state;
    bool l2_hit = l2_res.unitValid;

    if (l2_hit && type == AccessType::Write &&
        !coherence::isWritable(unit_state)) {
        // Write to a Shared/Owned unit: upgrade first.
        broadcast(p, BusOp::BusUpgrade, unit);
        ++ps.busUpgrades;
        node.l2->setStateAt(way, unit, State::Modified);
        ++ps.traffic.localTagUpdates;
        unit_state = State::Modified;
    }

    if (l2_hit) {
        ++ps.l2LocalHits;
        node.l2->touchAt(way, unit);
        if (type == AccessType::Write && unit_state == State::Exclusive) {
            node.l2->setStateAt(way, unit, State::Modified);
            ++ps.upgradesSilent;
            ++ps.traffic.localTagUpdates;
            unit_state = State::Modified;
        }
        ++ps.traffic.localDataReads;  // unit handed to the L1
    } else {
        unit_state = fetchUnit(p, unit, type == AccessType::Write);
    }

    // ---- Fill the L1 (write-allocate). ----
    mem::L1Victim victim;
    node.l1->fill(unit, coherence::isWritable(unit_state),
                  type == AccessType::Write, victim);

    if (victim.valid && victim.dirty) {
        // Dirty L1 victim: write its data back into the L2 unit. By the
        // inclusion invariant that unit is present and writable (M or E;
        // E becomes M now that dirty data lands in it).
        ++ps.l1Writebacks;
        ++ps.l2LocalAccesses;
        ++ps.traffic.localTagProbes;
        mem::L2LookupResult wb_res;
        const int wb_way = node.l2->probeWay(victim.lineAddr, wb_res);
        if (!wb_res.unitValid)
            panic("inclusion violated: dirty L1 victim without L2 unit");
        ++ps.l2LocalHits;
        if (wb_res.state == State::Exclusive) {
            node.l2->setStateAt(wb_way, victim.lineAddr, State::Modified);
            ++ps.traffic.localTagUpdates;
        } else if (!coherence::isDirty(wb_res.state)) {
            panic("dirty L1 victim over a non-writable L2 unit");
        }
        ++ps.traffic.localDataWrites;
    }
}

} // namespace jetty::sim
