/**
 * @file
 * Coverage-guided differential trace fuzzer.
 *
 * Each round manufactures one adversarial synthetic trace per processor
 * from a library of sharing patterns (uniform storms, false sharing
 * within a block, migratory objects, producer/consumer bursts, same-set
 * eviction storms, hot single units, private streaming), replays it
 * three ways —
 *
 *   1. step()-driven with the full CheckerSuite attached (online
 *      invariants + no-false-negative for every filter in the bank),
 *   2. through the golden model (verify/golden_smp.hh), comparing final
 *      state bit-exactly,
 *   3. through the batched run() hot path with hooks unset, comparing
 *      against the same golden snapshot,
 *
 * — and steers the pattern mix by coverage stall: a mix is kept while
 * it keeps uncovering new snoop-transition and filter-outcome cells
 * (the CheckerSuite's CoverageMap) and is redrawn — occasionally with a
 * single pattern spiked — once a round adds none. A failing round is
 * shrunk with a delta-debugging pass to a minimal record set that still
 * fails, and
 * can be written out as a JTTRACE2 repro (one stream section per
 * processor) plus a human-readable sidecar header documenting the seed,
 * geometry and violated invariant.
 *
 * Everything is deterministic: FuzzConfig::seed defaults to
 * kDefaultRngSeed and every round's generator seed is derived from it
 * with kSeedMix, so a logged (seed, round) pair reproduces the exact
 * failing trace on any platform.
 */

#ifndef JETTY_VERIFY_FUZZER_HH
#define JETTY_VERIFY_FUZZER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_spec.hh"
#include "sim/smp_system.hh"
#include "trace/trace_source.hh"
#include "util/random.hh"
#include "verify/invariants.hh"

namespace jetty::verify
{

/** The sharing patterns the generator mixes. */
enum class Pattern : unsigned
{
    Uniform,           //!< random refs over a shared block pool
    FalseSharing,      //!< per-proc units inside shared blocks
    Migratory,         //!< read-modify-write objects rotating owners
    ProducerConsumer,  //!< write-own / read-neighbour burst phases
    EvictionStorm,     //!< same-set tag storm (fills, victims, WB drains)
    HotUnit,           //!< every processor hammers one unit
    PrivateStream,     //!< per-proc sequential walk (snoop-miss heavy)
};

constexpr unsigned kPatternCount = 7;
static_assert(static_cast<unsigned>(Pattern::PrivateStream) ==
                  kPatternCount - 1,
              "kPatternCount must cover every Pattern enumerator");

/** Name of @p pattern, for logs. */
const char *patternName(Pattern p);

/** A per-processor set of traces (traces[p] drives processor p). */
using TraceSet = std::vector<std::vector<trace::TraceRecord>>;

/** Fuzzer configuration. The default geometry is a deliberately tiny
 *  machine so a few thousand references already exercise evictions,
 *  write-back pressure and every sharing transition. */
struct FuzzConfig
{
    std::uint64_t seed = kDefaultRngSeed;
    unsigned rounds = 16;
    std::uint64_t refsPerProc = 4096;

    /** Stop launching new rounds after this many seconds (0 = never). */
    double timeBudgetSeconds = 0;

    /** System under test. nprocs/geometry/filterSpecs are honoured;
     *  checkSafety is forced off so the checkers report instead of the
     *  bank panicking. */
    sim::SmpConfig system = defaultSystem();

    /**
     * Draw the split interconnect's bus count per round from {1, 2, 4}
     * (deterministically from the round seed), so one campaign
     * exercises the classic bus, both split configurations, and the
     * per-bus deferred filter replay. When false every round runs
     * system.snoopBuses as given (the CLI's --buses sets this).
     */
    bool randomizeBuses = true;

    std::uint64_t auditEvery = 512;  //!< global audit cadence (refs)
    bool compareGolden = true;       //!< step-path vs golden final state
    bool checkBatched = true;        //!< batched run() vs golden
    std::uint64_t maxShrinkRuns = 400;

    /** Small thrash-friendly geometry with every built-in family. */
    static sim::SmpConfig defaultSystem();
};

/** Outcome of a fuzzing campaign. */
struct FuzzResult
{
    bool failed = false;
    std::string invariant;  //!< violated invariant (when failed)
    std::string detail;
    std::uint64_t seed = 0;       //!< the campaign seed (repro header)
    unsigned failingRound = 0;
    std::uint64_t roundSeed = 0;  //!< generator seed of the failing round
    unsigned snoopBuses = 1;      //!< bus count of the failing round
    TraceSet traces;              //!< shrunk failing traces (when failed)

    unsigned roundsRun = 0;
    std::uint64_t totalRefs = 0;
    CoverageMap coverage;  //!< accumulated over all rounds

    /** Records in the (shrunk) failing trace set. */
    std::uint64_t records() const;
};

/** The campaign driver. */
class TraceFuzzer
{
  public:
    explicit TraceFuzzer(const FuzzConfig &cfg);

    /** Run the campaign: generate, check, bias, and shrink on failure. */
    FuzzResult run();

    /**
     * Manufacture one round's traces deterministically from @p roundSeed
     * with the given pattern weights (exposed for tests).
     */
    TraceSet generate(std::uint64_t roundSeed,
                      const std::array<double, kPatternCount> &weights);

    /**
     * Replay @p traces through the three-way differential check.
     * @return "" when every invariant holds and all states agree,
     *         otherwise "invariant: detail" of the first failure.
     * @param cov when non-null, accumulates coverage from the checked
     *        (step-driven) replay.
     */
    static std::string checkOnce(const sim::SmpConfig &system,
                                 const TraceSet &traces,
                                 std::uint64_t auditEvery,
                                 bool compareGolden, bool checkBatched,
                                 CoverageMap *cov);

    /**
     * Delta-debug @p traces down to a (1-minimal up to the run budget)
     * record set for which checkOnce still fails *with the same
     * invariant* on @p system (the failing round's machine, including
     * its bus count) — a candidate that trips a different invariant is
     * not accepted, so the shrunk repro reproduces what its header
     * claims.
     */
    TraceSet shrink(const TraceSet &traces, const std::string &invariant,
                    const sim::SmpConfig &system) const;

  private:
    FuzzConfig cfg_;
};

/**
 * The campaign's configuration as an api::ExperimentSpec: explicit
 * machine geometry with @p snoopBuses substituted (the CLI passes the
 * configured count, the repro writer the *failing round's*), filters,
 * and the real campaign budgets. One construction shared by
 * `jetty_cli fuzz --dump-spec` and the repro sidecar, so the two can
 * never drift on a future FuzzConfig knob.
 */
api::ExperimentSpec specOfFuzz(const FuzzConfig &cfg, unsigned snoopBuses);

/**
 * Write a failing trace set as a JTTRACE2 repro (one stream section per
 * processor) plus a "<path>.json" sidecar whose embedded
 * api::ExperimentSpec pins the machine the failure was caught on
 * (explicit cache geometry, the failing round's bus count, filters,
 * campaign seed) alongside the violated invariant — everything needed
 * to reproduce the failure with `jetty_cli fuzz --repro <path>`.
 * @p cfg is the campaign's configuration: its system (with the failing
 * round's bus count substituted) becomes the embedded machine, and its
 * real budgets (rounds, refs per proc, audit cadence, time budget) are
 * recorded so re-running the campaign from the sidecar reproduces the
 * campaign, not the defaults.
 */
void writeRepro(const std::string &path, const FuzzResult &result,
                const FuzzConfig &cfg);

/** Load the per-processor traces of a repro written by writeRepro(). */
TraceSet readReproTraces(const std::string &path);

/**
 * The spec document embedded in the repro's "<path>.json" sidecar, so a
 * replay runs the machine the failure was caught on, not the defaults.
 * @p out is only modified on success.
 * @return false when the sidecar is missing or its spec names no
 * machine.
 */
bool readReproSpec(const std::string &path, json::Value &out);

} // namespace jetty::verify

#endif // JETTY_VERIFY_FUZZER_HH
