#include "x86/parallel.hh"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <thread>
#include <vector>

#include "fiber/fiber.hh"
#include "obs/costprofile.hh"
#include "partition/process.hh"
#include "util/logging.hh"

namespace parendi::rtl {

namespace {

/** Stable CostProfile key of one fiber: named by what it computes, so
 *  a profile survives recompilation and node renumbering. */
std::string
fiberCostKey(const Netlist &nl, const fiber::Fiber &f)
{
    switch (f.kind) {
      case fiber::SinkKind::Register:
        return "reg:" + nl.reg(f.target).name;
      case fiber::SinkKind::MemoryWrite: {
        const Memory &m = nl.mem(f.target);
        for (size_t p = 0; p < m.writePorts.size(); ++p)
            if (m.writePorts[p] == f.sink)
                return "memw:" + m.name + ":" + std::to_string(p);
        return "memw:" + m.name + ":?";
      }
      case fiber::SinkKind::PortOutput:
        return "out:" + nl.output(f.target).name;
    }
    return "?";
}

} // namespace

std::vector<std::vector<uint32_t>>
ParallelInterpreter::lptAssign(const std::vector<double> &weights,
                               size_t nshards)
{
    // Heaviest fiber first onto the least-loaded shard. Ties break on
    // ascending fiber index so the packing (and thus the shard
    // programs) is deterministic; weights are floored at 1 so
    // zero-cost fibers still spread instead of piling on shard 0.
    std::vector<uint32_t> order(weights.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&weights](uint32_t a, uint32_t b) {
                         return weights[a] > weights[b];
                     });
    std::vector<double> load(nshards, 0);
    std::vector<std::vector<uint32_t>> assign(nshards);
    for (uint32_t fi : order) {
        size_t best = 0;
        for (size_t s = 1; s < nshards; ++s)
            if (load[s] < load[best])
                best = s;
        load[best] += std::max(1.0, weights[fi]);
        assign[best].push_back(fi);
    }
    return assign;
}

ParallelInterpreter::ParallelInterpreter(Netlist netlist,
                                         uint32_t threads,
                                         const LowerOptions &lower,
                                         const ParConfig &cfg)
    : nl_(std::move(netlist)), batch_(cfg.batch), lower_(lower),
      rebalance_(cfg.rebalance)
{
    fiber::FiberSet fs(nl_);
    // The shard count adapts to the host's real parallelism (unless
    // the config pins a worker count): shards beyond the core count
    // buy no concurrency and only add cross-shard exchange traffic
    // and barrier parties. The partition is bit-exact at any shard
    // count, so requesting 8 threads on a 2-core host simply yields
    // the 2-shard packing. A shared pool pins the width instead: the
    // pool's worker count is the parallelism actually available.
    const uint32_t maxw = cfg.pool ? cfg.pool->threads()
        : cfg.maxWorkers
        ? cfg.maxWorkers
        : std::max(1u, std::thread::hardware_concurrency());
    if (cfg.pool && threads == 0)
        threads = cfg.pool->threads();
    size_t nshards = std::max<size_t>(
        1, std::min<size_t>(std::min<uint32_t>(threads, maxw),
                            fs.size()));

    // Keep each fiber's cone, static cost and stable name: the
    // telemetry-directed repartitioner re-packs these without
    // re-running fiber extraction.
    fibers_.resize(fs.size());
    for (size_t fi = 0; fi < fs.size(); ++fi) {
        fibers_[fi].cone = fs[fi].cone;
        fibers_[fi].staticCost = static_cast<double>(fs[fi].totalX86);
        fibers_[fi].key = fiberCostKey(nl_, fs[fi]);
    }

    // LPT weights: the static x86 cost, or — when a measured profile
    // is supplied — each fiber's recorded cost, with unseen fibers
    // falling back to their static cost rescaled into the profile's
    // unit (the ratio is taken over the fibers both sides know).
    std::vector<double> weights(fibers_.size());
    for (size_t fi = 0; fi < fibers_.size(); ++fi)
        weights[fi] = fibers_[fi].staticCost;
    if (cfg.costIn && !cfg.costIn->empty()) {
        double sumMeasured = 0, sumStatic = 0;
        for (const FiberCost &f : fibers_) {
            double m = cfg.costIn->lookup(f.key, -1.0);
            if (m >= 0) {
                sumMeasured += m;
                sumStatic += f.staticCost;
            }
        }
        const double scale = (sumMeasured > 0 && sumStatic > 0)
            ? sumMeasured / sumStatic
            : 1.0;
        for (size_t fi = 0; fi < fibers_.size(); ++fi) {
            double m = cfg.costIn->lookup(fibers_[fi].key, -1.0);
            weights[fi] = m >= 0 ? m : fibers_[fi].staticCost * scale;
        }
    }

    assignment_ = lptAssign(weights, nshards);
    std::vector<std::vector<NodeId>> nodeSets(nshards);
    for (size_t s = 0; s < nshards; ++s)
        for (uint32_t fi : assignment_[s])
            nodeSets[s] =
                partition::sortedUnion(nodeSets[s], fibers_[fi].cone);

    shards_ = ShardSet(nl_, nodeSets, lower, cfg.replicas);
    if (cfg.pool) {
        pool_ = cfg.pool;
        poolShared_ = true;
    } else {
        const uint32_t workers = static_cast<uint32_t>(
            std::min<size_t>(shards_.size(), maxw));
        if (threads >= 2 && shards_.size() >= 2 && workers >= 2)
            pool_ = std::make_unique<util::BspPool>(workers);
    }
}

void
ParallelInterpreter::step(size_t n)
{
    size_t done = 0;
    while (done < n) {
        const size_t k =
            batch_ ? std::min(batch_, n - done) : n - done;
        shards_.stepCycles(pool_.get(), k);
        done += k;
        cycleCount_ += k;
        // Telemetry-directed repartitioning fires between batches
        // (never inside one), so a migration lands on a cycle
        // boundary and the continuation stays bit-identical.
        if (rebalance_ > 0 && batch_)
            maybeRebalance();
    }
}

void
ParallelInterpreter::reset()
{
    shards_.reset();
    cycleCount_ = 0;
}

bool
ParallelInterpreter::enableProfiling(const obs::ProfileOptions &opt)
{
    if (profiler_)
        return true;
    uint32_t workers = pool_ ? pool_->threads() : 1;
    profiler_ = std::make_unique<obs::SuperstepProfiler>(
        workers, shards_.size(), opt);
    shards_.setProfiler(profiler_.get());
    // A shared pool serves many engines; its wait observer slot
    // cannot belong to any one of them.
    if (pool_ && !poolShared_)
        pool_->setWaitObserver(profiler_.get());
    return true;
}

size_t
ParallelInterpreter::enableNativeKernels(const CgenOptions &opt)
{
    size_t attached = cgenAttachShards(shards_, opt);
    native_ = attached == shards_.size() && attached > 0;
    // Remember the request so a repartition re-attaches kernels to
    // the rebuilt shard programs (usually a compile-cache hit).
    wantNative_ = true;
    cgenOpt_ = opt;
    return attached;
}

bool
ParallelInterpreter::setActivity(bool on)
{
    if (!shards_.setActivity(on))
        return false;
    activityWanted_ = on;
    return true;
}

bool
ParallelInterpreter::ticksSinceBase(std::vector<uint64_t> &delta) const
{
    if (!profiler_)
        return false;
    const std::vector<obs::ShardEvalStat> &stats = profiler_->shardEval();
    delta.assign(stats.size(), 0);
    uint64_t sum = 0;
    for (size_t s = 0; s < stats.size(); ++s) {
        uint64_t base = s < ticksBase_.size() ? ticksBase_[s] : 0;
        delta[s] = stats[s].ticks > base ? stats[s].ticks - base : 0;
        sum += delta[s];
    }
    return sum > 0;
}

std::vector<double>
ParallelInterpreter::fiberWeightsFrom(
    const std::vector<uint64_t> &shardTicks) const
{
    // Each shard's measured eval ticks are attributed to its fibers
    // proportional to their static cost — the finest attribution the
    // per-shard straggler stat supports. Shards the profiler never
    // sampled keep their static weights (scaled consistently only by
    // LPT's relative comparisons, which is all that matters).
    std::vector<double> w(fibers_.size(), 1.0);
    for (size_t s = 0; s < assignment_.size(); ++s) {
        double staticSum = 0;
        for (uint32_t fi : assignment_[s])
            staticSum += fibers_[fi].staticCost;
        const uint64_t ticks =
            s < shardTicks.size() ? shardTicks[s] : 0;
        for (uint32_t fi : assignment_[s]) {
            double share = staticSum > 0
                ? fibers_[fi].staticCost / staticSum
                : 1.0 / static_cast<double>(assignment_[s].size());
            w[fi] = ticks > 0
                ? std::max(1.0, static_cast<double>(ticks) * share)
                : std::max(1.0, fibers_[fi].staticCost);
        }
    }
    return w;
}

bool
ParallelInterpreter::collectCostProfile(obs::CostProfile &out) const
{
    if (!profiler_)
        return false;
    const std::vector<obs::ShardEvalStat> &stats = profiler_->shardEval();
    std::vector<uint64_t> ticks(stats.size(), 0);
    uint64_t sum = 0;
    for (size_t s = 0; s < stats.size(); ++s) {
        ticks[s] = stats[s].ticks;
        sum += ticks[s];
    }
    if (sum == 0)
        return false;
    std::vector<double> w = fiberWeightsFrom(ticks);
    for (size_t fi = 0; fi < fibers_.size(); ++fi)
        out.set(fibers_[fi].key, w[fi]);
    return true;
}

void
ParallelInterpreter::rebuildShards(
    const std::vector<std::vector<uint32_t>> &assign)
{
    core::ArchState st;
    shards_.exportArch(st);

    std::vector<std::vector<NodeId>> nodeSets(assign.size());
    for (size_t s = 0; s < assign.size(); ++s)
        for (uint32_t fi : assign[s])
            nodeSets[s] =
                partition::sortedUnion(nodeSets[s], fibers_[fi].cone);

    shards_ = ShardSet(nl_, nodeSets, lower_, st.lanes);
    if (wantNative_) {
        size_t attached = cgenAttachShards(shards_, cgenOpt_);
        native_ = attached == shards_.size() && attached > 0;
    }
    if (profiler_)
        shards_.setProfiler(profiler_.get());
    if (activityWanted_)
        shards_.setActivity(true);
    // importArch re-runs exchange + eval, so the rebuilt set
    // continues bit-identically (and, with activity on, marks
    // everything dirty for the first guarded eval).
    shards_.importArch(st);
    assignment_ = assign;
    ++rebalances_;
}

bool
ParallelInterpreter::rebalanceNow()
{
    std::vector<uint64_t> delta;
    if (shards_.size() < 2 || !ticksSinceBase(delta))
        return false;
    std::vector<std::vector<uint32_t>> assign =
        lptAssign(fiberWeightsFrom(delta), assignment_.size());
    // Reset the skew window at every decision, taken or not.
    const std::vector<obs::ShardEvalStat> &stats = profiler_->shardEval();
    ticksBase_.resize(stats.size());
    for (size_t s = 0; s < stats.size(); ++s)
        ticksBase_[s] = stats[s].ticks;
    if (assign == assignment_)
        return false;
    rebuildShards(assign);
    return true;
}

void
ParallelInterpreter::maybeRebalance()
{
    std::vector<uint64_t> delta;
    if (shards_.size() < 2 || !ticksSinceBase(delta))
        return;
    uint64_t sum = 0, peak = 0;
    for (uint64_t d : delta) {
        sum += d;
        peak = std::max(peak, d);
    }
    const double mean =
        static_cast<double>(sum) / static_cast<double>(delta.size());
    if (mean <= 0 ||
        static_cast<double>(peak) <= rebalance_ * mean)
        return;
    if (rebalanceNow())
        inform("par: rebalanced shards (straggler skew max/mean "
               "%.2f > %.2f), repartition #%llu",
               static_cast<double>(peak) / mean, rebalance_,
               static_cast<unsigned long long>(rebalances_));
}

void
ParallelInterpreter::save(std::ostream &out) const
{
    out.write(reinterpret_cast<const char *>(&cycleCount_),
              sizeof(cycleCount_));
    shards_.save(out);
}

} // namespace parendi::rtl
