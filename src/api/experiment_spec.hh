/**
 * @file
 * ExperimentSpec: the one versioned, serializable description of "what
 * to simulate" shared by every entry point — `jetty_cli run/sweep/bench/
 * fuzz/paper` and the fuzzer's repro sidecars.
 *
 * Before this layer every knob (filters, batchRefs, snoopBuses, ...)
 * had to be threaded by hand through five overlapping config structs
 * (SmpConfig, SweepJob, SystemVariant, RunRequest, FuzzConfig), the
 * RunCache key, the CLI flag parser and the fuzzer's bespoke sidecar.
 * The spec is now the source of truth:
 *
 *  - **JSONv1 on disk** (util/json, no external deps): a self-describing
 *    document whose top-level `"jetty_spec": 1` is both magic and
 *    version. parse() -> emit() -> parse() is the identity. The
 *    document is read by one json::FieldReader, the validating reader
 *    every untrusted document goes through: unknown keys, version
 *    mismatches, mistyped members and out-of-range values are rejected
 *    as "spec: <dotted path>: <what>", naming what would have been
 *    valid (the registry's describeFailure() style).
 *  - **Canonicalization** (canonicalText(): sorted keys, minimal
 *    whitespace, shortest round-tripping numbers) is what the RunCache
 *    keys on — experiments::runCacheKey() — so two specs holding the
 *    same data in any key order identify the same cached simulation.
 *  - **Expansion**: expand() is the sweep cross-product expander
 *    (apps x sweep.procs x sweep.buses -> experiments::RunRequest),
 *    replacing the ad-hoc loops in jetty_cli.
 *
 * Layering: api sits above experiments/sim/core and below tools/bench/
 * verify. It must not include verify/; verify embeds specs in repro
 * sidecars by building them through this header.
 */

#ifndef JETTY_API_EXPERIMENT_SPEC_HH
#define JETTY_API_EXPERIMENT_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/experiments.hh"
#include "sim/smp_system.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace jetty::api
{

/**
 * The machine section. procs/buses/subblocked describe a paper-style
 * SystemVariant; the optional explicit geometry block (l1/l2/wb/
 * phys_addr_bits, `hasGeometry`) pins the exact cache organization —
 * the fuzzer's tiny thrash machine, for instance. Paths that only
 * understand variants (run/sweep through the experiment layer) reject
 * explicit geometry they cannot honour via variantCompatible().
 */
struct MachineSpec
{
    unsigned procs = 4;
    unsigned buses = 1;
    bool subblocked = true;

    /** Delivery batch size; 0 = the library default (SmpConfig). */
    unsigned batchRefs = 0;

    /** When true l1/l2/wbEntries/physAddrBits below are authoritative;
     *  when false they are derived from `subblocked` on demand. */
    bool hasGeometry = false;
    mem::L1Config l1;
    mem::L2Config l2;
    unsigned wbEntries = 8;
    unsigned physAddrBits = 40;

    /** Capture @p cfg exactly (hasGeometry = true). */
    static MachineSpec fromSmpConfig(const sim::SmpConfig &cfg);

    /** Build the full SmpConfig this machine describes (filters are the
     *  spec's to add). */
    sim::SmpConfig toSmpConfig() const;

    /** The variant view (nprocs/subblocked/snoopBuses). */
    experiments::SystemVariant toVariant() const;

    /** True when toSmpConfig() equals what toVariant().smpConfig()
     *  would build (batchRefs aside); otherwise @p why names the first
     *  field the variant path cannot honour. */
    bool variantCompatible(std::string *why) const;
};

/** The fuzz section: campaign seeds and budgets (FuzzConfig's knobs
 *  minus the machine, which lives in MachineSpec). */
struct FuzzSpec
{
    std::uint64_t seed = kDefaultRngSeed;
    unsigned rounds = 16;
    std::uint64_t refsPerProc = 4096;
    std::uint64_t auditEvery = 512;
    bool randomizeBuses = true;
    double seconds = 0;  //!< time budget (0 = none)
};

/** The versioned experiment description. */
struct ExperimentSpec
{
    /** The on-disk schema version this build reads and writes. */
    static constexpr std::int64_t kVersion = 1;

    MachineSpec machine;

    /** True when the parsed document had a machine section (emission
     *  always writes one, so dumped specs are explicit). Consumers
     *  whose default machine is *not* MachineSpec's — the fuzzer's
     *  tiny thrash geometry — use this to tell "machine omitted" from
     *  "machine = the paper variant". */
    bool hasMachine = false;

    /** Filter specs to evaluate (registry grammar, validated on parse).
     *  Empty = the consuming command's default set. */
    std::vector<std::string> filters;

    // ---- workload selection ----
    /** Application names/tags (trace::appByName). Empty with no trace
     *  files = the consuming command's default. */
    std::vector<std::string> apps;
    /** Captured trace files to replay instead of synthesizing. */
    std::vector<std::string> traceFiles;
    /** Reference-count scale; <= 0 = the consuming command's default. */
    double scale = -1.0;

    // ---- sweep axes (empty = {machine.procs} / {machine.buses}) ----
    std::vector<unsigned> sweepProcs;
    std::vector<unsigned> sweepBuses;

    // ---- bench section ----
    /** Cold-run repeats; 0 = the consuming command's default. */
    unsigned benchRepeat = 0;

    // ---- fuzz section ----
    bool hasFuzz = false;  //!< the section is present / should be emitted
    FuzzSpec fuzz;

    /** Serialize; toJson() emits only the active sections, so
     *  parse(emit()) reproduces this spec field-for-field. */
    json::Value toJson() const;
    std::string emit() const;           //!< pretty JSON (dump-spec, files)
    std::string canonicalText() const;  //!< sorted-keys minimal JSON

    /**
     * Deserialize. @p err (required) receives a message naming the
     * offending key, its path and the valid alternatives; the returned
     * spec is only meaningful when @p err stays empty.
     */
    static ExperimentSpec fromJson(const json::Value &v, std::string *err);
    static ExperimentSpec parse(const std::string &text, std::string *err);

    /** The machine + filters as one SmpConfig (fuzz/bench drivers). */
    sim::SmpConfig smpConfig() const;

    /**
     * The sweep cross-product: one RunRequest per
     * (app x sweep.procs x sweep.buses) cell — or per (procs, buses)
     * cell replaying traceFiles — carrying this spec's filters and
     * scale. Axes default to the machine's own procs/buses; apps must
     * be resolvable (fatal() via trace::appByName otherwise).
     */
    std::vector<experiments::RunRequest> expand() const;
};

} // namespace jetty::api

#endif // JETTY_API_EXPERIMENT_SPEC_HH
