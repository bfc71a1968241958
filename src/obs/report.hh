/**
 * @file
 * Aggregation of SuperstepProfiler samples into the measured
 * counterpart of the paper's r_cycle decomposition:
 *
 *  - a per-cycle t_comp / t_comm / t_sync split (seconds, over the
 *    sampled cycles) where each phase's wall contribution is the
 *    straggler worker's interval (max over workers) and t_sync is the
 *    residual of the cycle span — so the three terms sum to measured
 *    wall time by construction;
 *  - per-worker work vs barrier-wait totals;
 *  - a per-shard eval-time distribution (the measured straggler
 *    histogram, runtime analog of paper Fig. 6a/14);
 *  - the monotonic counters.
 *
 * formatReport() renders the same sections core::describeSimulation()
 * prints for the *modeled* machine; formatModeledVsMeasured() puts the
 * two decompositions side by side (each in its own units — IPU cycles
 * or modeled ns vs measured ns — compared by share of the cycle).
 */

#ifndef PARENDI_OBS_REPORT_HH
#define PARENDI_OBS_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hh"

namespace parendi::obs {

struct ProfileReport
{
    uint64_t cyclesTotal = 0;
    uint64_t cyclesSampled = 0;     ///< cycles aggregated below
    uint32_t workers = 0;
    size_t shards = 0;

    /** Sum of sampled cycle spans, seconds. */
    double sampledWallSec = 0;

    /** Straggler (max-over-workers) wall per superstep, summed over
     *  sampled cycles. publishSec is the fused path's post-eval
     *  copy-out (zero on the single-worker in-place cycle). */
    double commitSec = 0;
    double latchSec = 0;
    double exchangeSec = 0;
    double evalSec = 0;
    double publishSec = 0;

    /**
     * The r_cycle mapping: comp = eval + latch, comm = commit +
     * exchange + publish, sync = cycle-span residual (clamped at 0).
     * The residual is only *synchronization* when there is more than
     * one worker; with a single worker there is no barrier, so the
     * residual — profiler sampling overhead and step-loop time
     * between phase records — is attributed to overheadSec instead
     * of masquerading as t_sync. The four terms
     * tComp + tComm + tSync + overhead sum to sampledWallSec by
     * construction.
     */
    double tCompSec = 0;
    double tCommSec = 0;
    double tSyncSec = 0;
    double overheadSec = 0;

    /** Per-worker totals over sampled cycles, seconds. */
    std::vector<double> workerWorkSec;
    std::vector<double> workerBarrierSec;

    /** Per-shard mean eval nanoseconds per sampled cycle. */
    std::vector<double> shardEvalNs;

    std::vector<std::pair<std::string, uint64_t>> counters;

    /** Mean measured ns per sampled cycle (0 if nothing sampled). */
    double
    nsPerCycle() const
    {
        return cyclesSampled
            ? sampledWallSec * 1e9 / static_cast<double>(cyclesSampled)
            : 0;
    }

    /** Measured simulation rate over the sampled cycles, kHz. */
    double
    rateKHz() const
    {
        return sampledWallSec > 0
            ? static_cast<double>(cyclesSampled) / sampledWallSec / 1e3
            : 0;
    }
};

/** Aggregate a quiesced profiler's rings into a report. */
ProfileReport buildReport(const SuperstepProfiler &prof);

/** Render the measured decomposition, per-worker table, straggler
 *  histogram, and counters as plain text. */
std::string formatReport(const ProfileReport &rep);

/** One side of the modeled-vs-measured comparison: a modeled
 *  t_comp/t_comm/t_sync split in whatever unit the model uses. */
struct ModeledSplit
{
    std::string source;     ///< e.g. "ipu model" or "x86 model"
    std::string unit;       ///< e.g. "IPU cyc" or "ns"
    double comp = 0;
    double comm = 0;
    double sync = 0;
    double rateKHz = 0;

    double total() const { return comp + comm + sync; }
};

/** Side-by-side modeled vs measured table (shares of the cycle, plus
 *  each side's absolute numbers in its own units). */
std::string formatModeledVsMeasured(const ModeledSplit &modeled,
                                    const ProfileReport &measured);

} // namespace parendi::obs

#endif // PARENDI_OBS_REPORT_HH
