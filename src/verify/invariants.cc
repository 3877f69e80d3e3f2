#include "verify/invariants.hh"

#include <algorithm>
#include <map>

#include "verify/format.hh"

namespace jetty::verify
{

using coherence::BusOp;
using coherence::State;

namespace
{

/**
 * The legal write-invalidate MOESI snooper tuples, restated here (third
 * statement in the tree, after coherence/moesi.cc and the golden model)
 * so the checker does not inherit a transition-table bug from the code
 * under test.
 */
bool
legalSnoop(State before, BusOp op, State after, bool supplied)
{
    switch (op) {
      case BusOp::BusRead:
        switch (before) {
          case State::Modified:
            return after == State::Owned && supplied;
          case State::Owned:
            return after == State::Owned && supplied;
          case State::Exclusive:
            return after == State::Shared && supplied;
          case State::Shared:
            return after == State::Shared && !supplied;
          case State::Invalid:
            return after == State::Invalid && !supplied;
        }
        break;
      case BusOp::BusReadX:
        if (after != State::Invalid)
            return false;
        return supplied ==
               (before == State::Modified || before == State::Owned);
      case BusOp::BusUpgrade:
        return after == State::Invalid && !supplied;
      case BusOp::BusWriteback:
        return after == before && !supplied;
    }
    return false;
}

} // namespace

std::string
ViolationLog::summary() const
{
    if (violations_.empty())
        return "";
    return violations_.front().invariant + ": " +
           violations_.front().detail;
}

std::size_t
CoverageMap::cellsCovered() const
{
    std::size_t covered = 0;
    for (const auto &row : snoopCells) {
        for (const auto cell : row) {
            if (cell)
                ++covered;
        }
    }
    for (const auto &f : filters) {
        for (const auto &row : f.cells) {
            for (const auto cell : row) {
                if (cell)
                    ++covered;
            }
        }
    }
    if (wbHits)
        ++covered;
    if (supplies)
        ++covered;
    if (invalidations)
        ++covered;
    return covered;
}

std::size_t
CoverageMap::cellsTracked() const
{
    return kStateCount * kBusOpCount + filters.size() * 4 + 3;
}

void
CoverageMap::merge(const CoverageMap &o)
{
    for (int s = 0; s < kStateCount; ++s) {
        for (int op = 0; op < kBusOpCount; ++op)
            snoopCells[s][op] += o.snoopCells[s][op];
    }
    if (filters.size() < o.filters.size())
        filters.resize(o.filters.size());
    for (std::size_t i = 0; i < o.filters.size(); ++i) {
        for (int f = 0; f < 2; ++f) {
            for (int c = 0; c < 2; ++c)
                filters[i].cells[f][c] += o.filters[i].cells[f][c];
        }
    }
    wbHits += o.wbHits;
    supplies += o.supplies;
    invalidations += o.invalidations;
}

CheckerSuite::CheckerSuite(sim::SmpSystem &sys, std::uint64_t auditEvery)
    : sys_(sys), auditEvery_(auditEvery)
{
    const auto &bank = sys.bank(0);
    coverage_.filters.resize(bank.size());
    filterNames_.reserve(bank.size());
    for (std::size_t i = 0; i < bank.size(); ++i)
        filterNames_.push_back(bank.filterAt(i).name());
    for (unsigned p = 0; p < sys.config().nprocs; ++p) {
        for (std::size_t i = 0; i < bank.size(); ++i)
            seen_.push_back(sys.bank(p).statsAt(i));
    }
    sys_.setObserver(this);
}

CheckerSuite::~CheckerSuite()
{
    sys_.setObserver(nullptr);
}

void
CheckerSuite::onReference(ProcId, AccessType, Addr)
{
    ++references_;
    log_.setRefIndex(references_);
    if (auditEvery_ && references_ % auditEvery_ == 0)
        audit();
}

void
CheckerSuite::onBusTransaction(ProcId, coherence::BusOp op, Addr unitAddr,
                               unsigned, unsigned busId)
{
    // Bus routing, restated independently of util/bits.hh interleavedBus: the
    // home bus of a unit is its L2 block index modulo the bus count
    // (integer division on the configuration, no shifts shared with the
    // code under test).
    const auto &cfg = sys_.config();
    const unsigned expected = static_cast<unsigned>(
        (unitAddr / cfg.l2.blockBytes) % cfg.snoopBuses);
    if (busId != expected) {
        log_.report("bus-routing",
                    std::string(coherence::busOpName(op)) + " for unit " +
                        hexAddr(unitAddr) + " rode bus " +
                        std::to_string(busId) + ", home bus is " +
                        std::to_string(expected) + " of " +
                        std::to_string(cfg.snoopBuses));
    }
}

void
CheckerSuite::onSnoop(const sim::SnoopEvent &ev)
{
    // The target bank replayed this snoop before the event fired, so
    // its stats moved by exactly this snoop's verdicts since the last
    // one seen there: one probe per filter, a would-miss unless the
    // unit was cached, and a filtered cached unit counted as a
    // safety violation.
    const filter::FilterBank &bank = sys_.bank(ev.target);
    for (std::size_t i = 0; i < filterNames_.size(); ++i) {
        const filter::FilterStats &now = bank.statsAt(i);
        filter::FilterStats &was = seen_[ev.target * filterNames_.size() + i];
        const std::uint64_t missed = now.wouldMiss - was.wouldMiss;
        const std::uint64_t missFiltered =
            now.filteredWouldMiss - was.filteredWouldMiss;
        const std::uint64_t cachedFiltered =
            now.safetyViolations - was.safetyViolations;
        auto &cells = coverage_.filters[i].cells;
        cells[0][0] += missed - missFiltered;
        cells[0][1] += now.probes - was.probes - missed - cachedFiltered;
        cells[1][0] += missFiltered;
        cells[1][1] += cachedFiltered;
        was = now;
        if (cachedFiltered != 0) {
            log_.report("no-false-negative",
                        filterNames_[i] + " on proc " +
                            std::to_string(ev.target) +
                            " filtered a snoop to cached unit " +
                            hexAddr(ev.unitAddr));
        }
    }

    coverage_.snoopCells[static_cast<int>(ev.before)]
                        [static_cast<int>(ev.op)]++;

    {
        // Same independent routing restatement for the per-target view:
        // every snoop of unit U must arrive on U's home bus.
        const auto &cfg = sys_.config();
        const unsigned expected = static_cast<unsigned>(
            (ev.unitAddr / cfg.l2.blockBytes) % cfg.snoopBuses);
        if (ev.busId != expected) {
            log_.report("bus-routing",
                        "snoop of " + hexAddr(ev.unitAddr) +
                            " on proc " + std::to_string(ev.target) +
                            " rode bus " + std::to_string(ev.busId) +
                            ", home bus is " + std::to_string(expected));
        }
    }
    if (ev.wbHit)
        ++coverage_.wbHits;
    if (ev.supplied)
        ++coverage_.supplies;
    if (coherence::isValid(ev.before) && !coherence::isValid(ev.after))
        ++coverage_.invalidations;

    if (!legalSnoop(ev.before, ev.op, ev.after, ev.supplied)) {
        log_.report("moesi-transition",
                    std::string(coherence::busOpName(ev.op)) + " on " +
                        coherence::stateName(ev.before) + " at " +
                        hexAddr(ev.unitAddr) + " produced " +
                        coherence::stateName(ev.after) +
                        (ev.supplied ? " (supplied)" : " (no supply)") +
                        " on proc " + std::to_string(ev.target));
    }

    // Snoop-side inclusion: losing the unit or its exclusivity must have
    // purged the target's L1 line (the event fires post-enforcement).
    if ((!coherence::isValid(ev.after) ||
         coherence::isWritable(ev.before)) &&
        sys_.l1(ev.target).probe(ev.unitAddr).hit) {
        log_.report("snoop-inclusion",
                    "proc " + std::to_string(ev.target) +
                        " still holds L1 line " + hexAddr(ev.unitAddr) +
                        " after " + coherence::busOpName(ev.op) +
                        " left its L2 unit " +
                        coherence::stateName(ev.after));
    }
}

void
CheckerSuite::audit()
{
    const unsigned nprocs = sys_.config().nprocs;

    // Global per-unit view: every valid L2 copy and every WB entry.
    struct Copy
    {
        unsigned proc;
        State state;
        bool inWb;
    };
    std::map<Addr, std::vector<Copy>> units;

    for (unsigned p = 0; p < nprocs; ++p) {
        for (const auto &u : sys_.l2(p).validUnitInfo())
            units[u.unitAddr].push_back({p, u.state, false});

        const auto &wb = sys_.wb(p).entries();
        if (wb.size() > sys_.wb(p).capacity()) {
            log_.report("wb-capacity",
                        "proc " + std::to_string(p) + " WB holds " +
                            std::to_string(wb.size()) + " of " +
                            std::to_string(sys_.wb(p).capacity()));
        }
        for (std::size_t i = 0; i < wb.size(); ++i) {
            const auto &e = wb[i];
            if (!coherence::isDirty(e.state)) {
                log_.report("wb-dirty-only",
                            "proc " + std::to_string(p) + " WB entry " +
                                hexAddr(e.unitAddr) + " in state " +
                                coherence::stateName(e.state));
            }
            for (std::size_t j = i + 1; j < wb.size(); ++j) {
                if (wb[j].unitAddr == e.unitAddr) {
                    log_.report("wb-duplicate",
                                "proc " + std::to_string(p) +
                                    " WB holds " + hexAddr(e.unitAddr) +
                                    " twice");
                }
            }
            if (sys_.l2(p).probe(e.unitAddr).unitValid) {
                log_.report("wb-vs-l2",
                            "proc " + std::to_string(p) + " WB entry " +
                                hexAddr(e.unitAddr) +
                                " duplicates a valid L2 unit");
            }
            units[e.unitAddr].push_back({p, e.state, true});
        }

        // Inclusion: every L1 line backed by a valid L2 unit; writable
        // lines by writable (M/E) units; dirty lines must be writable.
        for (const auto &line : sys_.l1(p).validLineInfo()) {
            const auto l2 = sys_.l2(p).probe(line.lineAddr);
            if (!l2.unitValid) {
                log_.report("l1-inclusion",
                            "proc " + std::to_string(p) + " L1 line " +
                                hexAddr(line.lineAddr) +
                                " has no valid L2 unit");
                continue;
            }
            if (line.writable && !coherence::isWritable(l2.state)) {
                log_.report("l1-permission",
                            "proc " + std::to_string(p) +
                                " writable L1 line " + hexAddr(line.lineAddr) +
                                " over L2 state " +
                                coherence::stateName(l2.state));
            }
            if (line.dirty && !line.writable) {
                log_.report("l1-dirty-permission",
                            "proc " + std::to_string(p) +
                                " dirty but non-writable L1 line " +
                                hexAddr(line.lineAddr));
            }
        }
    }

    // Single-writer / single-owner across the whole machine.
    for (const auto &[addr, copies] : units) {
        unsigned exclusive = 0;  // M or E anywhere (L2 or WB)
        unsigned owned = 0;      // O anywhere
        for (const auto &c : copies) {
            if (c.state == State::Modified || c.state == State::Exclusive)
                ++exclusive;
            else if (c.state == State::Owned)
                ++owned;
        }
        if (exclusive > 1 || (exclusive == 1 && copies.size() > 1)) {
            std::string holders;
            for (const auto &c : copies) {
                holders += " p" + std::to_string(c.proc) + ":" +
                           coherence::stateName(c.state) +
                           (c.inWb ? "(wb)" : "");
            }
            log_.report("single-writer",
                        "unit " + hexAddr(addr) +
                            " has an M/E copy alongside others:" +
                            holders);
        }
        if (owned > 1) {
            log_.report("single-owner",
                        "unit " + hexAddr(addr) + " has " +
                            std::to_string(owned) + " Owned copies");
        }
    }
}

} // namespace jetty::verify
