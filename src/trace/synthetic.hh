/**
 * @file
 * The synthetic workload engine: lays out the address space for an
 * AppProfile and manufactures one deterministic TraceSource per processor.
 */

#ifndef JETTY_TRACE_SYNTHETIC_HH
#define JETTY_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/app_profile.hh"
#include "trace/trace_source.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace jetty::trace
{

/** Resolved placement of one stream in the physical address space. */
struct StreamLayout
{
    StreamSpec spec;

    /** Base of the region. For per-processor regions, processor p's slice
     *  starts at base + p * perProcBytes. */
    Addr base = 0;

    /** Stride between consecutive processors' slices (0 for shared). */
    std::uint64_t perProcBytes = 0;

    /** Total bytes this stream occupies across all processors. */
    std::uint64_t totalBytes = 0;
};

/**
 * A workload instance: one application profile laid out for an SMP of
 * nprocs processors. Create it once, then makeSource() per processor.
 */
class Workload
{
  public:
    /**
     * Lay out @p profile for @p nprocs processors.
     *
     * Generated addresses are *virtual*: region walks are contiguous. A
     * deterministic page table then scatters 4 KiB pages over a physical
     * frame space eight times larger, imitating OS physical page
     * allocation -- the address distribution the paper's WWT2 traces see.
     * Without it, contiguous regions make the Include-JETTY's coarse
     * index slices unrealistically discriminating.
     *
     * @param accessScale multiplies accessesPerProc (tests use < 1.0).
     */
    Workload(const AppProfile &profile, unsigned nprocs,
             double accessScale = 1.0);

    /** Translate a virtual address to its scattered physical address. */
    Addr translate(Addr vaddr) const;

    /** The deterministic reference stream of processor @p proc. The
     *  source reads this Workload's layout and
     *  page table and must not outlive it; one Workload can feed many
     *  concurrently running systems because that shared state is
     *  immutable after construction. */
    TraceSourcePtr makeSource(ProcId proc) const;

    /** Total bytes of address space the profile touches (the paper's
     *  "MA" column). */
    std::uint64_t memoryAllocated() const { return memAllocated_; }

    /** References each processor will issue. */
    std::uint64_t accessesPerProc() const { return accessesPerProc_; }

    /** The profile this workload was built from. */
    const AppProfile &profile() const { return profile_; }

    /** Number of processors the layout was built for. */
    unsigned nprocs() const { return nprocs_; }

    /** Stream layouts (exposed for tests; bases are virtual). */
    const std::vector<StreamLayout> &layouts() const { return layouts_; }

  private:
    AppProfile profile_;
    unsigned nprocs_;
    std::uint64_t accessesPerProc_;
    std::uint64_t memAllocated_ = 0;
    std::vector<StreamLayout> layouts_;
    Addr virtBase_ = 0;
    Addr virtEnd_ = 0;
    std::vector<std::uint32_t> pageFrames_;  //!< virtual page -> frame
};

} // namespace jetty::trace

#endif // JETTY_TRACE_SYNTHETIC_HH
