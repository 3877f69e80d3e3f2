/**
 * @file
 * Textual filter specifications and the factory that instantiates them.
 * The grammar mirrors the paper's configuration names:
 *
 *   "NULL"                         no filter (baseline)
 *   "EJ-<sets>x<assoc>"            exclude-JETTY, e.g. "EJ-32x4"
 *   "VEJ-<sets>x<assoc>-<vec>"     vector exclude-JETTY, e.g. "VEJ-32x4-8"
 *   "IJ-<E>x<N>x<S>[u]"            include-JETTY, e.g. "IJ-10x4x7";
 *                                  a trailing 'u' selects unit-granular
 *                                  index generation (ablation)
 *   "RF-<E>x<R>"                   coarse region filter (extension),
 *                                  2^E entries over 2^R-byte regions
 *   "HJ(<ij-spec>,<e-spec>)"       hybrid, e.g. "HJ(IJ-10x4x7,EJ-32x4)"
 *
 * Each family's parser lives in the FilterRegistry (filter_registry.hh);
 * makeFilter() dispatches through it, so new families extend the grammar
 * by registering themselves instead of editing a central parser.
 */

#ifndef JETTY_CORE_FILTER_SPEC_HH
#define JETTY_CORE_FILTER_SPEC_HH

#include <string>
#include <vector>

#include "core/snoop_filter.hh"

namespace jetty::filter
{

/**
 * Build a filter from its spec string. Calls fatal() on a malformed spec.
 *
 * @param spec configuration name per the grammar above.
 * @param amap address-space facts from the simulated system.
 */
SnoopFilterPtr makeFilter(const std::string &spec, const AddressMap &amap);

/** True when @p spec parses (without instantiating on failure). */
bool isValidFilterSpec(const std::string &spec);

/**
 * The canonical name of the filter @p spec builds (e.g. "null" ->
 * "NULL"). Canonical names round-trip: they parse back to an identical
 * filter. Calls fatal() on a malformed spec.
 */
std::string canonicalFilterName(const std::string &spec,
                                const AddressMap &amap);

/** The paper's evaluated configurations, for its tables. */
std::vector<std::string> paperExcludeSpecs();        //!< Figure 4(a)
std::vector<std::string> paperVectorExcludeSpecs();  //!< Figure 4(b)
std::vector<std::string> paperIncludeSpecs();        //!< Figure 5(a)
std::vector<std::string> paperHybridSpecs();         //!< Figure 5(b)/6

} // namespace jetty::filter

#endif // JETTY_CORE_FILTER_SPEC_HH
