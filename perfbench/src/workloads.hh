/**
 * @file
 * The benchmark's workloads. Each fills ctx.out: the end-to-end metrics
 * on an untraced run, the per-layer metrics on a traced one, and every
 * output check either way.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench
{

/** The paper's Figure 4 campaign, cold, through runMany + buildReport. */
void runFig4Cold(Context &ctx);

/** lu/em/fm on a 4-way L1 with 4 snoop buses and the paper trio. */
void runAssoc4Split(Context &ctx);

/** A closed loop of two clients against an in-process ExperimentServer. */
void runServeMix(Context &ctx);

/** The 90-cell grid across two forked workers, then a ledger resume. */
void runDistGrid(Context &ctx);

/**
 * The service-stack layers (ping, JSON, buildReport, memory and disk
 * tier hits, publish) timed alone, on a fresh in-process server that
 * serves the serve-mix key sets. dist-grid's traced run reports them, so
 * they are measured by a workload BENCHMARK.json lists.
 */
void addServiceProbes(Context &ctx);

/**
 * The simulator layers of the assoc4-split cells (4-way L1, 4 buses,
 * EJ/IJ/HJ): the pipeline walk, the per-bus deferred queues and the
 * IJ/HJ families, timed alone. dist-grid's traced run reports them.
 */
void addPipelineWalkProbes(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
