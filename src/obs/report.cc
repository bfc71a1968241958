#include "obs/report.hh"

#include <algorithm>
#include <array>
#include <sstream>
#include <unordered_map>

#include "util/logging.hh"
#include "util/table.hh"

namespace parendi::obs {

namespace {

constexpr size_t kWorkPhases =
    static_cast<size_t>(Phase::BarrierWait); // ...incl. fused Publish

/// A cycle is aggregatable once the four classic phases are seen;
/// Publish only exists on the fused path and is optional.
constexpr uint8_t kRequiredPhases =
    (uint8_t{1} << static_cast<size_t>(Phase::Commit)) |
    (uint8_t{1} << static_cast<size_t>(Phase::Latch)) |
    (uint8_t{1} << static_cast<size_t>(Phase::Exchange)) |
    (uint8_t{1} << static_cast<size_t>(Phase::Eval));

struct CycleAgg
{
    uint64_t spanTicks = 0;
    bool hasSpan = false;
    uint8_t phasesSeen = 0;     ///< bitmask over the work phases
    std::array<uint64_t, kWorkPhases> maxTicks{};
};

/** Percentile of a sorted vector (nearest-rank). */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t i = static_cast<size_t>(
        static_cast<double>(sorted.size() - 1) * p);
    return sorted[i];
}

void
appendHistogram(std::ostringstream &out, const std::vector<double> &v,
                double maxv)
{
    if (v.empty() || maxv <= 0)
        return;
    const int buckets = 10;
    std::vector<size_t> hist(buckets, 0);
    for (double x : v) {
        size_t b = static_cast<size_t>(x / (maxv * 1.0001) * buckets);
        ++hist[std::min<size_t>(b, buckets - 1)];
    }
    size_t top = *std::max_element(hist.begin(), hist.end());
    for (int b = 0; b < buckets; ++b) {
        size_t bar = top ? hist[b] * 40 / top : 0;
        out << strprintf("  [%3d%%-%3d%%] %-40s %zu\n", b * 10,
                         (b + 1) * 10,
                         std::string(bar, '#').c_str(), hist[b]);
    }
}

} // namespace

ProfileReport
buildReport(const SuperstepProfiler &prof)
{
    ProfileReport rep;
    rep.cyclesTotal = prof.cyclesSeen();
    rep.workers = prof.workers();
    rep.shards = prof.shards();
    rep.workerWorkSec.assign(rep.workers, 0);
    rep.workerBarrierSec.assign(rep.workers, 0);
    rep.counters = prof.counters().snapshot();

    // Pass 1: which sampled cycles are fully aggregatable? A cycle
    // needs its span (cycle ring) and at least one sample of every
    // work phase (the phase rings wrap ~5x faster than the cycle
    // ring, so the oldest spans may have lost their phases — those
    // would misreport all work as t_sync residual).
    std::unordered_map<uint64_t, CycleAgg> agg;
    const SampleRing &cring = prof.cycleRing();
    for (size_t i = 0; i < cring.size(); ++i) {
        const Sample &s = cring.at(i);
        CycleAgg &a = agg[s.cycle];
        a.spanTicks = s.t1 - s.t0;
        a.hasSpan = true;
    }
    for (uint32_t w = 0; w < rep.workers; ++w) {
        const SampleRing &ring = prof.ring(w);
        for (size_t i = 0; i < ring.size(); ++i) {
            const Sample &s = ring.at(i);
            auto it = agg.find(s.cycle);
            if (it == agg.end())
                continue;
            size_t p = static_cast<size_t>(s.phase);
            if (p >= kWorkPhases)
                continue;
            it->second.phasesSeen |= uint8_t{1} << p;
            it->second.maxTicks[p] =
                std::max(it->second.maxTicks[p], s.t1 - s.t0);
        }
    }

    auto included = [](const CycleAgg &a) {
        return a.hasSpan &&
            (a.phasesSeen & kRequiredPhases) == kRequiredPhases;
    };

    // Pass 2: accumulate.
    std::array<double, kWorkPhases> phaseSec{};
    double residualSec = 0;
    for (const auto &[cycle, a] : agg) {
        (void)cycle;
        if (!included(a))
            continue;
        ++rep.cyclesSampled;
        double span = ticksToSeconds(a.spanTicks);
        rep.sampledWallSec += span;
        double work = 0;
        for (size_t p = 0; p < kWorkPhases; ++p)
            work += ticksToSeconds(a.maxTicks[p]);
        // On the in-place cycle the phases run back-to-back, so
        // the straggler maxima tile the span and sum below it. On the
        // fused path phases of *different* workers overlap (worker A
        // evaluates while worker B commits), so their maxima can
        // overshoot the span; normalize to the span in that case so
        // the decomposition stays a partition of measured wall time.
        double scale = work > span && work > 0 ? span / work : 1.0;
        for (size_t p = 0; p < kWorkPhases; ++p)
            phaseSec[p] += ticksToSeconds(a.maxTicks[p]) * scale;
        residualSec += std::max(0.0, span - work * scale);
    }
    rep.commitSec = phaseSec[static_cast<size_t>(Phase::Commit)];
    rep.latchSec = phaseSec[static_cast<size_t>(Phase::Latch)];
    rep.exchangeSec = phaseSec[static_cast<size_t>(Phase::Exchange)];
    rep.evalSec = phaseSec[static_cast<size_t>(Phase::Eval)];
    rep.publishSec = phaseSec[static_cast<size_t>(Phase::Publish)];
    rep.tCompSec = rep.evalSec + rep.latchSec;
    rep.tCommSec = rep.commitSec + rep.exchangeSec + rep.publishSec;
    // The residual of the cycle span is synchronization only when
    // there is something to synchronize. A single worker has no
    // barrier: its residual is measurement overhead (sampling
    // timestamps, the step loop between phase records) and is
    // reported as such instead of as a phantom t_sync.
    if (rep.workers > 1) {
        rep.tSyncSec = residualSec;
        rep.overheadSec = 0;
    } else {
        rep.tSyncSec = 0;
        rep.overheadSec = residualSec;
    }

    // Per-worker totals over the included cycles.
    for (uint32_t w = 0; w < rep.workers; ++w) {
        const SampleRing &ring = prof.ring(w);
        for (size_t i = 0; i < ring.size(); ++i) {
            const Sample &s = ring.at(i);
            auto it = agg.find(s.cycle);
            if (it == agg.end() || !included(it->second))
                continue;
            double d = ticksToSeconds(s.t1 - s.t0);
            if (s.phase == Phase::BarrierWait)
                rep.workerBarrierSec[w] += d;
            else
                rep.workerWorkSec[w] += d;
        }
    }

    const std::vector<ShardEvalStat> &sh = prof.shardEval();
    rep.shardEvalNs.reserve(sh.size());
    for (const ShardEvalStat &st : sh)
        rep.shardEvalNs.push_back(
            st.samples
                ? ticksToSeconds(st.ticks) * 1e9 /
                    static_cast<double>(st.samples)
                : 0);
    return rep;
}

std::string
formatReport(const ProfileReport &rep)
{
    std::ostringstream out;
    double n = rep.cyclesSampled
        ? static_cast<double>(rep.cyclesSampled) : 1;

    out << "== measured r_cycle decomposition ==\n";
    out << strprintf("  %llu cycles simulated, %llu sampled and "
                     "aggregated; %u worker(s), %zu shard(s)\n",
                     static_cast<unsigned long long>(rep.cyclesTotal),
                     static_cast<unsigned long long>(rep.cyclesSampled),
                     rep.workers, rep.shards);
    out << strprintf("  per RTL cycle: t_comp %.1f + t_comm %.1f + "
                     "t_sync %.1f + overhead %.1f = %.1f us -> "
                     "%.2f kHz measured\n",
                     rep.tCompSec * 1e6 / n, rep.tCommSec * 1e6 / n,
                     rep.tSyncSec * 1e6 / n, rep.overheadSec * 1e6 / n,
                     rep.sampledWallSec * 1e6 / n, rep.rateKHz());
    out << strprintf("  supersteps (straggler wall): commit %.2f, "
                     "latch %.2f, exchange %.2f, eval %.2f, "
                     "publish %.2f us\n",
                     rep.commitSec * 1e6 / n, rep.latchSec * 1e6 / n,
                     rep.exchangeSec * 1e6 / n, rep.evalSec * 1e6 / n,
                     rep.publishSec * 1e6 / n);

    if (rep.workers > 1) {
        Table t({"worker", "work us/cyc", "barrier us/cyc",
                 "wait share"});
        for (uint32_t w = 0; w < rep.workers; ++w) {
            double work = rep.workerWorkSec[w] * 1e6 / n;
            double wait = rep.workerBarrierSec[w] * 1e6 / n;
            double share = (work + wait) > 0
                ? wait / (work + wait) : 0;
            t.row()
                .cell(static_cast<int>(w))
                .cell(work, 2)
                .cell(wait, 2)
                .cell(strprintf("%.0f%%", share * 100));
        }
        out << "== per-worker superstep balance (sampled) ==\n";
        out << t.str();
    }

    // Measured straggler picture: per-shard mean eval ns/cycle.
    std::vector<double> evals;
    for (double v : rep.shardEvalNs)
        if (v > 0)
            evals.push_back(v);
    if (!evals.empty()) {
        std::sort(evals.begin(), evals.end());
        double mean = 0;
        for (double v : evals)
            mean += v;
        mean /= static_cast<double>(evals.size());
        double maxv = evals.back();
        out << "== per-shard eval stragglers (measured ns per RTL "
               "cycle) ==\n";
        out << strprintf("  min %.0f / p50 %.0f / p90 %.0f / max %.0f "
                         "(straggler), imbalance %.2fx over %zu "
                         "shard(s)\n",
                         evals.front(), percentile(evals, 0.5),
                         percentile(evals, 0.9), maxv,
                         mean > 0 ? maxv / mean : 0, evals.size());
        appendHistogram(out, evals, maxv);
    }

    if (!rep.counters.empty()) {
        out << "== counters ==\n";
        for (const auto &[name, value] : rep.counters)
            out << strprintf("  %-28s %llu\n", name.c_str(),
                             static_cast<unsigned long long>(value));
    }
    return out.str();
}

std::string
formatModeledVsMeasured(const ModeledSplit &modeled,
                        const ProfileReport &measured)
{
    std::ostringstream out;
    double mtot = modeled.total();
    double wtot = measured.sampledWallSec;
    double n = measured.cyclesSampled
        ? static_cast<double>(measured.cyclesSampled) : 1;
    auto pct = [](double x, double tot) {
        return tot > 0 ? x / tot * 100 : 0;
    };

    Table t({"component",
             strprintf("modeled (%s)", modeled.unit.c_str()),
             "modeled %", "measured (us)", "measured %"});
    struct RowDef
    {
        const char *name;
        double model;
        double meas;
    };
    const RowDef rows[] = {
        {"t_comp", modeled.comp, measured.tCompSec},
        {"t_comm", modeled.comm, measured.tCommSec},
        {"t_sync", modeled.sync, measured.tSyncSec},
        // The model has no notion of measurement overhead; the row
        // keeps the measured column summing to its total.
        {"overhead", 0, measured.overheadSec},
        {"total", mtot, wtot},
    };
    for (const RowDef &r : rows) {
        t.row()
            .cell(r.name)
            .cell(r.model, 1)
            .cell(strprintf("%.1f%%", pct(r.model, mtot)))
            .cell(r.meas * 1e6 / n, 2)
            .cell(strprintf("%.1f%%", pct(r.meas, wtot)));
    }
    out << strprintf("== modeled (%s) vs measured r_cycle ==\n",
                     modeled.source.c_str());
    out << t.str();
    out << strprintf("  rate: %.2f kHz modeled vs %.2f kHz measured\n",
                     modeled.rateKHz, measured.rateKHz());
    return out.str();
}

} // namespace parendi::obs
