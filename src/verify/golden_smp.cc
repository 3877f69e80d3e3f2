#include "verify/golden_smp.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"
#include "verify/format.hh"

namespace jetty::verify
{

using coherence::BusOp;
using coherence::State;

namespace
{

/**
 * The write-invalidate MOESI snooper rules, restated from the paper
 * rather than reusing coherence::snoopTransition — the golden model must
 * not inherit a bug from the table it is meant to check.
 */
State
goldenSnoopNext(State s, BusOp op, bool &supplied)
{
    supplied = false;
    switch (op) {
      case BusOp::BusRead:
        switch (s) {
          case State::Modified:
            supplied = true;
            return State::Owned;
          case State::Owned:
            supplied = true;
            return State::Owned;
          case State::Exclusive:
            supplied = true;
            return State::Shared;
          case State::Shared:
          case State::Invalid:
            return s;
        }
        break;
      case BusOp::BusReadX:
        supplied = s == State::Modified || s == State::Owned;
        return State::Invalid;
      case BusOp::BusUpgrade:
        return State::Invalid;
      case BusOp::BusWriteback:
        return s;
    }
    return s;
}


} // namespace

GoldenSmp::GoldenSmp(const sim::SmpConfig &cfg) : cfg_(cfg)
{
    if (cfg.nprocs < 2)
        fatal("GoldenSmp: an SMP needs at least two processors");
    if (cfg.l1.blockBytes != cfg.l2.unitBytes())
        fatal("GoldenSmp: the L1 line must equal the L2 coherence unit");

    unitMask_ = cfg.l2.unitBytes() - 1;
    blockMask_ = cfg.l2.blockBytes - 1;
    l1OffsetBits_ = floorLog2(cfg.l1.blockBytes);
    l1IndexBits_ = floorLog2(cfg.l1.sets());
    l2OffsetBits_ = floorLog2(cfg.l2.blockBytes);
    l2IndexBits_ = floorLog2(cfg.l2.sets());
    unitOffsetBits_ = floorLog2(cfg.l2.unitBytes());
    subblockBits_ =
        cfg.l2.subblocks == 1 ? 0 : floorLog2(cfg.l2.subblocks);

    if (cfg.snoopBuses < 1)
        fatal("GoldenSmp: need at least one snoop bus");
    busTransactions_.assign(cfg.snoopBuses, 0);
    procs_.resize(cfg.nprocs);
}

void
GoldenSmp::attachSources(std::vector<trace::TraceSourcePtr> sources)
{
    if (sources.size() != procs_.size())
        fatal("GoldenSmp::attachSources: need one source per processor");
    for (unsigned p = 0; p < procs_.size(); ++p) {
        procs_[p].source = std::move(sources[p]);
        procs_[p].done = procs_[p].source == nullptr;
    }
}

bool
GoldenSmp::step()
{
    bool any = false;
    for (unsigned p = 0; p < procs_.size(); ++p) {
        Proc &n = procs_[p];
        if (n.done)
            continue;
        trace::TraceRecord rec;
        if (!n.source->next(rec)) {
            n.done = true;
            continue;
        }
        any = true;
        access(p, rec.type, rec.addr);
    }
    return any;
}

void
GoldenSmp::run()
{
    while (step()) {
    }
}

std::uint64_t
GoldenSmp::l1SetOf(Addr a) const
{
    return bitField(a, l1OffsetBits_, l1IndexBits_);
}

std::uint64_t
GoldenSmp::l2SetOf(Addr a) const
{
    return bitField(a, l2OffsetBits_, l2IndexBits_);
}

unsigned
GoldenSmp::unitIndexOf(Addr a) const
{
    return static_cast<unsigned>(
        bitField(a, unitOffsetBits_, subblockBits_));
}

GoldenSmp::L1Line *
GoldenSmp::findL1(Proc &n, Addr lineAddr)
{
    auto it = n.l1.find(l1SetOf(lineAddr));
    if (it == n.l1.end())
        return nullptr;
    for (auto &line : it->second) {
        if (line.lineAddr == lineAddr)
            return &line;
    }
    return nullptr;
}

GoldenSmp::L2Block *
GoldenSmp::findL2(Proc &n, Addr blockAddr)
{
    auto it = n.l2.find(l2SetOf(blockAddr));
    if (it == n.l2.end())
        return nullptr;
    for (auto &b : it->second) {
        if (b.blockAddr == blockAddr)
            return &b;
    }
    return nullptr;
}

const GoldenSmp::L2Block *
GoldenSmp::findL2(const Proc &n, Addr blockAddr) const
{
    auto it = n.l2.find(l2SetOf(blockAddr));
    if (it == n.l2.end())
        return nullptr;
    for (const auto &b : it->second) {
        if (b.blockAddr == blockAddr)
            return &b;
    }
    return nullptr;
}

State
GoldenSmp::l2UnitState(const Proc &n, Addr unitAddr) const
{
    const L2Block *b = findL2(n, blockAlign(unitAddr));
    return b ? b->units[unitIndexOf(unitAddr)] : State::Invalid;
}

void
GoldenSmp::dropL1(Proc &n, Addr unit)
{
    auto it = n.l1.find(l1SetOf(unit));
    if (it == n.l1.end())
        return;
    auto &set = it->second;
    for (auto line = set.begin(); line != set.end(); ++line) {
        if (line->lineAddr == unit) {
            set.erase(line);
            return;
        }
    }
}

unsigned
GoldenSmp::broadcast(ProcId requester, BusOp op, Addr unit)
{
    // Independently restated split-bus interleave: a unit's home bus is
    // its L2 block index (integer division, not the interconnect's
    // shift) modulo the configured bus count. The routing never changes
    // what is broadcast — it only attributes the transaction.
    ++busTransactions_[(unit / cfg_.l2.blockBytes) % cfg_.snoopBuses];

    unsigned remote_copies = 0;
    for (unsigned q = 0; q < procs_.size(); ++q) {
        if (q == requester)
            continue;
        Proc &n = procs_[q];
        bool copy_here = false;

        // The write-back buffer is always snooped.
        for (auto e = n.wb.begin(); e != n.wb.end(); ++e) {
            if (e->unitAddr != unit)
                continue;
            copy_here = true;
            if (op == BusOp::BusReadX || op == BusOp::BusUpgrade) {
                n.wb.erase(e);  // requester takes ownership
            } else if (op == BusOp::BusRead &&
                       e->state == State::Modified) {
                e->state = State::Owned;  // no longer the only copy
            }
            break;
        }

        // The L2, under the locally restated MOESI rules.
        L2Block *b = findL2(n, blockAlign(unit));
        if (b) {
            State &s = b->units[unitIndexOf(unit)];
            const State before = s;
            bool supplied = false;
            s = goldenSnoopNext(before, op, supplied);
            if (coherence::isValid(before)) {
                copy_here = true;
                // Inclusion: the L1 copy goes whenever the unit leaves
                // or loses exclusivity.
                if (!coherence::isValid(s) || coherence::isWritable(before))
                    dropL1(n, unit);
            }
        }

        if (copy_here)
            ++remote_copies;
    }
    return remote_copies;
}

void
GoldenSmp::pushVictim(ProcId p, Addr unitAddr, State state)
{
    Proc &n = procs_[p];
    if (!coherence::isDirty(state))
        return;  // clean victims vanish (memory is current)
    if (n.wb.size() >= cfg_.wbEntries) {
        if (n.wb.empty())
            panic("GoldenSmp: dirty victim with a zero-entry WB");
        n.wb.pop_front();  // forced drain of the oldest victim
    }
    n.wb.push_back({unitAddr, state});
}

void
GoldenSmp::l2Fill(ProcId p, Addr unit, State state)
{
    Proc &n = procs_[p];
    const Addr block_addr = blockAlign(unit);
    L2Block *b = findL2(n, block_addr);
    if (!b) {
        auto &set = n.l2[l2SetOf(unit)];
        if (set.size() >= cfg_.l2.assoc) {
            // Evict the least recently used block; every valid unit of
            // it is a victim (inclusion purge, then dirty ones queue).
            auto lru = set.begin();
            for (auto it = set.begin(); it != set.end(); ++it) {
                if (it->lastUse < lru->lastUse)
                    lru = it;
            }
            for (unsigned u = 0; u < cfg_.l2.subblocks; ++u) {
                if (!coherence::isValid(lru->units[u]))
                    continue;
                const Addr ua =
                    lru->blockAddr +
                    static_cast<Addr>(u) * cfg_.l2.unitBytes();
                dropL1(n, ua);
                pushVictim(p, ua, lru->units[u]);
            }
            set.erase(lru);
        }
        L2Block fresh;
        fresh.blockAddr = block_addr;
        fresh.units.assign(cfg_.l2.subblocks, State::Invalid);
        set.push_back(std::move(fresh));
        b = &set.back();
    }
    b->lastUse = ++n.l2Clock;
    State &s = b->units[unitIndexOf(unit)];
    if (coherence::isValid(s))
        panic("GoldenSmp: fill into an already-valid unit");
    s = state;
}

State
GoldenSmp::fetchUnit(ProcId p, Addr unit, bool forWrite)
{
    Proc &n = procs_[p];

    // Reclaim from the local write-back buffer when possible.
    State fill_state = State::Invalid;
    bool in_wb = false;
    for (auto e = n.wb.begin(); e != n.wb.end(); ++e) {
        if (e->unitAddr == unit) {
            in_wb = true;
            fill_state = e->state;
            n.wb.erase(e);
            break;
        }
    }

    if (in_wb) {
        if (forWrite && !coherence::isWritable(fill_state)) {
            broadcast(p, BusOp::BusUpgrade, unit);
            fill_state = State::Modified;
        }
    } else {
        const BusOp op = forWrite ? BusOp::BusReadX : BusOp::BusRead;
        const unsigned remote = broadcast(p, op, unit);
        // Requester-side fill rules, restated: an exclusive fetch is
        // always Modified; a read fetch is Shared iff someone else holds
        // a copy, Exclusive otherwise.
        fill_state = forWrite ? State::Modified
                              : (remote > 0 ? State::Shared
                                            : State::Exclusive);
    }

    l2Fill(p, unit, fill_state);
    return fill_state;
}

void
GoldenSmp::l1Fill(ProcId p, Addr unit, bool writable)
{
    Proc &n = procs_[p];
    auto &set = n.l1[l1SetOf(unit)];
    if (set.size() >= cfg_.l1.assoc) {
        auto lru = set.begin();
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->lastUse < lru->lastUse)
                lru = it;
        }
        if (lru->dirty) {
            // Dirty L1 victim merges into its (present, by inclusion)
            // L2 unit; an Exclusive unit becomes Modified. The block's
            // LRU is deliberately not touched (the real system's
            // writeback path does not touch() either).
            L2Block *b = findL2(n, blockAlign(lru->lineAddr));
            if (!b)
                panic("GoldenSmp: dirty L1 victim without L2 block");
            State &s = b->units[unitIndexOf(lru->lineAddr)];
            if (s == State::Exclusive)
                s = State::Modified;
            else if (!coherence::isDirty(s))
                panic("GoldenSmp: dirty L1 victim over non-writable unit");
        }
        set.erase(lru);
    }
    L1Line line;
    line.lineAddr = unit;
    line.writable = writable;
    line.dirty = false;
    line.lastUse = ++n.l1Clock;
    set.push_back(line);
}

void
GoldenSmp::access(ProcId p, AccessType type, Addr addr)
{
    Proc &n = procs_[p];
    ++references_;
    const Addr unit = unitAlign(addr);
    const bool write = type == AccessType::Write;

    // ---- L1 ----
    if (L1Line *line = findL1(n, unit)) {
        line->lastUse = ++n.l1Clock;
        if (!write || line->writable) {
            if (write)
                line->dirty = true;
            return;
        }
        // Write hit without permission: obtain it from the L2.
        L2Block *b = findL2(n, blockAlign(unit));
        if (!b || !coherence::isValid(b->units[unitIndexOf(unit)]))
            panic("GoldenSmp: L1 line without a valid L2 unit");
        b->lastUse = ++n.l2Clock;
        State &s = b->units[unitIndexOf(unit)];
        if (coherence::isWritable(s)) {
            if (s == State::Exclusive)
                s = State::Modified;  // silent upgrade
        } else {
            broadcast(p, BusOp::BusUpgrade, unit);
            s = State::Modified;
        }
        line->writable = true;
        line->dirty = true;
        return;
    }

    // ---- L1 miss: go to the L2. ----
    State unit_state = l2UnitState(n, unit);
    const bool l2_hit = coherence::isValid(unit_state);

    if (l2_hit && write && !coherence::isWritable(unit_state)) {
        broadcast(p, BusOp::BusUpgrade, unit);
        findL2(n, blockAlign(unit))->units[unitIndexOf(unit)] =
            State::Modified;
        unit_state = State::Modified;
    }

    if (l2_hit) {
        L2Block *b = findL2(n, blockAlign(unit));
        b->lastUse = ++n.l2Clock;
        if (write && unit_state == State::Exclusive) {
            b->units[unitIndexOf(unit)] = State::Modified;
            unit_state = State::Modified;
        }
    } else {
        unit_state = fetchUnit(p, unit, write);
    }

    // ---- Fill the L1 (write-allocate). ----
    l1Fill(p, unit, coherence::isWritable(unit_state));
    if (write)
        findL1(n, unit)->dirty = true;
}

StateSnapshot
GoldenSmp::snapshot() const
{
    StateSnapshot snap;
    snap.procs.resize(procs_.size());
    for (unsigned p = 0; p < procs_.size(); ++p) {
        const Proc &n = procs_[p];
        ProcSnapshot &out = snap.procs[p];

        for (const auto &[set, lines] : n.l1) {
            static_cast<void>(set);
            for (const auto &line : lines)
                out.l1.push_back({line.lineAddr, line.writable, line.dirty});
        }
        std::sort(out.l1.begin(), out.l1.end(),
                  [](const mem::L1LineInfo &a, const mem::L1LineInfo &b) {
                      return a.lineAddr < b.lineAddr;
                  });

        for (const auto &[set, blocks] : n.l2) {
            static_cast<void>(set);
            for (const auto &b : blocks) {
                out.l2Blocks.push_back(b.blockAddr);
                for (unsigned u = 0; u < cfg_.l2.subblocks; ++u) {
                    if (coherence::isValid(b.units[u])) {
                        out.l2.push_back(
                            {b.blockAddr +
                                 static_cast<Addr>(u) * cfg_.l2.unitBytes(),
                             b.units[u]});
                    }
                }
            }
        }
        std::sort(out.l2Blocks.begin(), out.l2Blocks.end());
        std::sort(out.l2.begin(), out.l2.end(),
                  [](const mem::L2UnitInfo &a, const mem::L2UnitInfo &b) {
                      return a.unitAddr < b.unitAddr;
                  });

        out.wb.assign(n.wb.begin(), n.wb.end());
    }
    return snap;
}

StateSnapshot
snapshotOf(const sim::SmpSystem &sys)
{
    StateSnapshot snap;
    const unsigned nprocs = sys.config().nprocs;
    snap.procs.resize(nprocs);
    for (unsigned p = 0; p < nprocs; ++p) {
        ProcSnapshot &out = snap.procs[p];
        out.l1 = sys.l1(p).validLineInfo();
        out.l2Blocks = sys.l2(p).residentBlockAddrs();
        out.l2 = sys.l2(p).validUnitInfo();
        const auto &wb = sys.wb(p).entries();
        out.wb.assign(wb.begin(), wb.end());
    }
    return snap;
}

std::string
diffSnapshots(const StateSnapshot &golden, const StateSnapshot &actual)
{
    std::string diff;
    int reported = 0;
    const auto report = [&](const std::string &line) {
        if (reported < 8)
            diff += line + "\n";
        ++reported;
    };

    if (golden.procs.size() != actual.procs.size()) {
        return "processor count mismatch: golden " +
               std::to_string(golden.procs.size()) + " vs actual " +
               std::to_string(actual.procs.size()) + "\n";
    }

    for (unsigned p = 0; p < golden.procs.size(); ++p) {
        const ProcSnapshot &g = golden.procs[p];
        const ProcSnapshot &a = actual.procs[p];
        const std::string who = "proc " + std::to_string(p);

        if (g.l1.size() != a.l1.size()) {
            report(who + ": L1 line count golden " +
                   std::to_string(g.l1.size()) + " vs actual " +
                   std::to_string(a.l1.size()));
        } else {
            for (std::size_t i = 0; i < g.l1.size(); ++i) {
                if (g.l1[i].lineAddr != a.l1[i].lineAddr ||
                    g.l1[i].writable != a.l1[i].writable ||
                    g.l1[i].dirty != a.l1[i].dirty) {
                    report(who + ": L1 line " + std::to_string(i) +
                           " golden " + hexAddr(g.l1[i].lineAddr) + " w=" +
                           std::to_string(g.l1[i].writable) + " d=" +
                           std::to_string(g.l1[i].dirty) + " vs actual " +
                           hexAddr(a.l1[i].lineAddr) + " w=" +
                           std::to_string(a.l1[i].writable) + " d=" +
                           std::to_string(a.l1[i].dirty));
                }
            }
        }

        if (g.l2Blocks != a.l2Blocks)
            report(who + ": resident L2 block sets differ (golden " +
                   std::to_string(g.l2Blocks.size()) + " vs actual " +
                   std::to_string(a.l2Blocks.size()) + " blocks)");

        if (g.l2.size() != a.l2.size()) {
            report(who + ": valid L2 unit count golden " +
                   std::to_string(g.l2.size()) + " vs actual " +
                   std::to_string(a.l2.size()));
        } else {
            for (std::size_t i = 0; i < g.l2.size(); ++i) {
                if (g.l2[i].unitAddr != a.l2[i].unitAddr ||
                    g.l2[i].state != a.l2[i].state) {
                    report(who + ": L2 unit " + std::to_string(i) +
                           " golden " + hexAddr(g.l2[i].unitAddr) + " " +
                           coherence::stateName(g.l2[i].state) +
                           " vs actual " + hexAddr(a.l2[i].unitAddr) + " " +
                           coherence::stateName(a.l2[i].state));
                }
            }
        }

        if (g.wb.size() != a.wb.size()) {
            report(who + ": WB depth golden " +
                   std::to_string(g.wb.size()) + " vs actual " +
                   std::to_string(a.wb.size()));
        } else {
            for (std::size_t i = 0; i < g.wb.size(); ++i) {
                if (g.wb[i].unitAddr != a.wb[i].unitAddr ||
                    g.wb[i].state != a.wb[i].state) {
                    report(who + ": WB[" + std::to_string(i) +
                           "] golden " + hexAddr(g.wb[i].unitAddr) + " " +
                           coherence::stateName(g.wb[i].state) +
                           " vs actual " + hexAddr(a.wb[i].unitAddr) + " " +
                           coherence::stateName(a.wb[i].state));
                }
            }
        }
    }

    if (reported > 8) {
        diff += "... and " + std::to_string(reported - 8) +
                " more divergences\n";
    }
    return diff;
}

} // namespace jetty::verify
