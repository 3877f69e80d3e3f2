/**
 * @file
 * Exact JSON round-trip of AppRunResult — the payload format of the
 * persistent RunCache tier (disk_cache.hh). Every counter the simulator
 * produces is serialized, doubles through json::formatDouble's
 * shortest-exact form, so a result restored from disk is value-identical
 * to the one the simulation produced: any Report built from it (run
 * rows, energy decompositions, timing) is bit-identical to the
 * originating process's Report.
 *
 * The reader validates instead of panicking: disk entries are untrusted
 * input (a crash, a partial write by a pre-atomic build, a version skew)
 * and the cache contract is "corrupt entries are misses, never fatal".
 */

#ifndef JETTY_EXPERIMENTS_RUN_RESULT_JSON_HH
#define JETTY_EXPERIMENTS_RUN_RESULT_JSON_HH

#include <string>

#include "experiments/experiments.hh"
#include "util/json.hh"

namespace jetty::experiments
{

/** Serialize @p result losslessly (keys mirror the member names). */
json::Value runResultToJson(const AppRunResult &result);

/**
 * Rebuild @p out from the object @p v through @p rd: the first missing
 * or ill-typed field fails @p rd as "<rd's path>.<field>: <what>", the
 * field named by its indexed path inside arrays
 * ("result.filters[3].stats.snoopAllocs"). @p out is written only when
 * @p rd is still ok afterwards.
 */
void runResultFromJson(json::FieldReader &rd, const json::Value &v,
                       AppRunResult &out);

} // namespace jetty::experiments

#endif // JETTY_EXPERIMENTS_RUN_RESULT_JSON_HH
