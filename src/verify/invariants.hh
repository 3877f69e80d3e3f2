/**
 * @file
 * Online invariant checkers for the differential verification subsystem.
 *
 * CheckerSuite attaches to a live SmpSystem through its observer hook
 * (sim/observer.hh) and validates, while the simulation runs:
 *
 *  - **No false negative** (the JETTY safety property): no filter may
 *    answer "definitely not present" for a unit that is valid in the
 *    local L2. Checked per (filter, snoop) verdict for every family in
 *    the bank — read as the target bank's FilterStats deltas at each
 *    snoop — independently of the bank's own safety panic (which the
 *    fuzzer disables so a broken filter is *reported* rather than
 *    aborting the process).
 *  - **Legal MOESI transitions**: every observed snoop's (before, op) ->
 *    (after, supplied) tuple must match an independently restated
 *    write-invalidate MOESI table.
 *  - **Snoop-side inclusion**: whenever a snoop invalidates a unit or
 *    strips its exclusivity, the target's L1 must no longer hold the
 *    line.
 *  - **Bus routing**: on the split snoop interconnect every snoop and
 *    every transaction for unit U must appear on U's home bus — an
 *    independently restated interleave (division/modulo over the
 *    configuration, not interleavedBus's shift) recomputes the
 *    expected bus for every observed event.
 *  - **Global single-writer / single-owner** (periodic audit): across
 *    all L2s and write-back buffers, a unit has at most one M or E copy
 *    (and then no other copies), and at most one O copy.
 *  - **L1/L2 inclusion and write-back consistency** (periodic audit):
 *    every L1 line is backed by a valid L2 unit, writable lines by M/E
 *    units, dirty lines are writable; WB entries are dirty, unique,
 *    within capacity, and never duplicate a valid unit of the owner's
 *    L2.
 *
 * The suite also doubles as the fuzzer's coverage collector: it tallies
 * which (state, bus-op) snoop transitions and which per-filter
 * (filtered, cached) outcome cells the workload exercised (the latter
 * from the same FilterStats deltas, so they partition the banks' merged
 * stats).
 */

#ifndef JETTY_VERIFY_INVARIANTS_HH
#define JETTY_VERIFY_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/snoop_filter.hh"
#include "sim/observer.hh"
#include "sim/smp_system.hh"

namespace jetty::verify
{

/** One invariant violation, stamped with when it happened. */
struct Violation
{
    std::string invariant;  //!< e.g. "no-false-negative"
    std::string detail;
    std::uint64_t refIndex = 0;  //!< references retired when it fired
};

/** Bounded violation collector shared by all checkers. */
class ViolationLog
{
  public:
    explicit ViolationLog(std::size_t keep = 32) : keep_(keep) {}

    void
    report(const std::string &invariant, const std::string &detail)
    {
        ++total_;
        if (violations_.size() < keep_)
            violations_.push_back({invariant, detail, refIndex_});
    }

    bool clean() const { return total_ == 0; }
    std::uint64_t total() const { return total_; }
    const std::vector<Violation> &violations() const { return violations_; }
    void setRefIndex(std::uint64_t idx) { refIndex_ = idx; }

    /** First violation as a "invariant: detail" line ("" when clean). */
    std::string summary() const;

  private:
    std::vector<Violation> violations_;
    std::size_t keep_;
    std::uint64_t total_ = 0;
    std::uint64_t refIndex_ = 0;
};

/** Enum extents of the coverage grid. The static_asserts pin them to
 *  the last enumerator of each, so adding a coherence state or bus op
 *  without growing the grid is a compile error, not an out-of-bounds
 *  write in the checker. */
constexpr int kStateCount = 5;
constexpr int kBusOpCount = 4;
static_assert(static_cast<int>(coherence::State::Modified) ==
                  kStateCount - 1,
              "grow CoverageMap::snoopCells for the new State");
static_assert(static_cast<int>(coherence::BusOp::BusWriteback) ==
                  kBusOpCount - 1,
              "grow CoverageMap::snoopCells for the new BusOp");

/** Coverage tallies used to bias the fuzzer's trace generation. */
struct CoverageMap
{
    /** Snoop transition cells: [State][BusOp] observation counts. */
    std::uint64_t snoopCells[kStateCount][kBusOpCount] = {};

    /** Per-filter outcome cells: [filtered][unitInL2]. The
     *  filtered-and-cached cell stays zero for every correct filter. */
    struct FilterCells
    {
        std::uint64_t cells[2][2] = {};
    };
    std::vector<FilterCells> filters;

    std::uint64_t wbHits = 0;       //!< snoops satisfied by a WB
    std::uint64_t supplies = 0;     //!< cache-to-cache transfers
    std::uint64_t invalidations = 0;  //!< snoop-induced unit removals

    /** Number of non-zero cells (the fuzzer maximizes this). */
    std::size_t cellsCovered() const;

    /** Total cells being tracked. */
    std::size_t cellsTracked() const;

    /** Accumulate another run's tallies (resizing filters as needed). */
    void merge(const CoverageMap &o);
};

/**
 * The combined online checker + coverage collector. Construction
 * attaches it to @p sys (and detachment happens in the destructor), so
 * the usual shape is: build system, build suite, attach sources, run.
 *
 * @param auditEvery run the full-system global audit every that many
 *        retired references (0 = only when audit() is called manually).
 */
class CheckerSuite : public sim::SimObserver
{
  public:
    explicit CheckerSuite(sim::SmpSystem &sys, std::uint64_t auditEvery = 0);
    ~CheckerSuite() override;

    CheckerSuite(const CheckerSuite &) = delete;
    CheckerSuite &operator=(const CheckerSuite &) = delete;

    // SimObserver
    void onReference(ProcId p, AccessType type, Addr addr) override;
    void onSnoop(const sim::SnoopEvent &ev) override;
    void onBusTransaction(ProcId requester, coherence::BusOp op,
                          Addr unitAddr, unsigned remoteCopies,
                          unsigned busId) override;

    /** Full-system global state audit (also run periodically). */
    void audit();

    const ViolationLog &log() const { return log_; }
    const CoverageMap &coverage() const { return coverage_; }
    std::uint64_t references() const { return references_; }

  private:
    sim::SmpSystem &sys_;
    ViolationLog log_;
    CoverageMap coverage_;
    std::vector<std::string> filterNames_;
    /** [node * filters + filter] -> that bank's stats as of the last
     *  snoop the suite saw there; onSnoop books the difference. */
    std::vector<filter::FilterStats> seen_;
    std::uint64_t auditEvery_;
    std::uint64_t references_ = 0;
};

} // namespace jetty::verify

#endif // JETTY_VERIFY_INVARIANTS_HH
