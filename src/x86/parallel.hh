/**
 * @file
 * ParallelInterpreter: a functional multi-threaded host engine (the
 * "thousand-way parallel" execution model run at host scale). The
 * design is decomposed into fibers (paper §3.1) which are packed onto
 * one shard per worker thread by LPT over the x86 cost model; the
 * shards execute as an rtl::ShardSet on a persistent util::BspPool,
 * i.e. the exact BSP cycle the simulated IPU machine runs, so the
 * engine is bit-identical to the reference rtl::Interpreter at any
 * thread count by construction.
 *
 * Declared in namespace parendi::rtl (it is an RTL engine), built in
 * parendi_x86 because the fiber decomposition lives above parendi_rtl
 * in the library stack.
 */

#ifndef PARENDI_X86_PARALLEL_HH
#define PARENDI_X86_PARALLEL_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/engine.hh"
#include "rtl/cgen.hh"
#include "rtl/netlist.hh"
#include "rtl/shard.hh"
#include "util/bsp_pool.hh"

namespace parendi::rtl {

/** Execution knobs of the parallel host engine. */
struct ParConfig
{
    /** Cycles per stepped batch: step(n) is split into batches of this
     *  many cycles, each (with >= 2 workers) one pool epoch with the
     *  in-dispatch barrier between cycles. 0 = the whole step(n) call
     *  is one batch. */
    size_t batch = 0;
    /**
     * Cap on shards and pool workers. 0 (default) caps at the host's
     * hardware concurrency — shards beyond the physical cores buy no
     * concurrency and only add cross-shard exchange traffic and
     * barrier parties, and any shard/worker count computes
     * bit-identical results, so oversubscribing buys nothing. Tests
     * and A/B benches that *want* a specific partition width or real
     * thread contention pass an explicit cap.
     */
    uint32_t maxWorkers = 0;
    /**
     * Externally owned worker pool, shared across engines — the
     * serving layer's fair-share scheduler steps many sessions on one
     * pool instead of paying N pools' worth of idle worker threads.
     * When set, the engine never creates its own pool and the shard
     * count adapts to the pool's width. Sharing contract: a BspPool
     * dispatch has exactly one caller, so hosts must serialize step()
     * calls across every engine on the pool (the scheduler thread).
     * step() is the only entry point that dispatches on the pool —
     * construction, reset(), poke and importArch() run on the calling
     * thread — and enableProfiling() does not install a pool
     * wait observer on a shared pool.
     */
    std::shared_ptr<util::BspPool> pool;
    /** Gang simulation: replica lanes per shard state, stepped in
     *  lock-step (threads × lanes total instances). 1 = scalar. */
    uint32_t replicas = 1;
    /**
     * Measured per-fiber costs (see obs::CostProfile) driving the
     * initial LPT packing in place of the static x86 model. Keys
     * missing from the profile fall back to their static cost, scaled
     * into the profile's unit by the fibers both sides know. Null or
     * empty = static costs. Only read during construction.
     */
    const obs::CostProfile *costIn = nullptr;
    /**
     * Telemetry-directed repartitioning threshold: after each stepped
     * batch, when the profiled per-shard eval-tick skew (max/mean over
     * the window since the last check) exceeds this ratio, re-run LPT
     * on the measured costs and migrate the architectural state onto
     * the new packing. Needs an attached profiler and batched stepping
     * to fire. 0 = off.
     */
    double rebalance = 0.0;
};

class ParallelInterpreter : public core::SimEngine
{
  public:
    /** Takes the netlist by value (copy or move). @p threads host
     *  workers (0/1 = one shard, sequential); the shard count is
     *  min(threads, number of fibers). */
    explicit ParallelInterpreter(Netlist nl, uint32_t threads = 0,
                                 const LowerOptions &lower =
                                     LowerOptions{},
                                 const ParConfig &cfg = ParConfig{});

    // The shard set points at the netlist member; the object must
    // stay put.
    ParallelInterpreter(const ParallelInterpreter &) = delete;
    ParallelInterpreter &operator=(const ParallelInterpreter &) = delete;

    const char *engineName() const override { return "par"; }
    const Netlist &netlist() const override { return nl_; }

    void step(size_t n = 1) override;
    void reset() override;
    uint64_t cycles() const override { return cycleCount_; }

    // Host access (see SimEngine); forwards to the shard set.
    uint32_t replicas() const override { return shards_.lanes(); }
    void
    pokeInput(PortId port, const BitVec &value, uint32_t lane) override
    {
        shards_.pokeInput(port, value, lane);
    }
    void
    readOutput(PortId port, uint32_t lane, BitVec &out) const override
    {
        shards_.readOutput(port, lane, out);
    }
    void
    readRegister(RegId reg, uint32_t lane, BitVec &out) const override
    {
        shards_.readRegister(reg, lane, out);
    }
    void
    readMemory(MemId mem, uint64_t index, uint32_t lane,
               BitVec &out) const override
    {
        shards_.readMemory(mem, index, lane, out);
    }

    /**
     * Compile every shard program to a native kernel (one TU, built
     * as per-core units into one object; see rtl/cgen) and install
     * them on the shard states, so the BSP evaluate phase runs emitted
     * code while commit/latch/exchange stay on the deterministic host
     * paths.
     * Returns the number of shards running natively: all, or 0 after a
     * warning when no toolchain is available (the engine keeps working
     * on the fused interpreter).
     */
    size_t enableNativeKernels(const CgenOptions &opt = CgenOptions{});

    /** True once enableNativeKernels() has succeeded. */
    bool native() const { return native_; }

    /** Activity-guarded evaluation on every shard (see
     *  ShardSet::setActivity). */
    bool setActivity(bool on) override;
    bool
    activityEnabled() const override
    {
        return shards_.activityEnabled();
    }

    /**
     * Attribute each shard's profiled eval ticks to the fibers packed
     * on it (proportional to their static cost within the shard) and
     * export the result keyed by stable fiber names. Requires an
     * attached profiler that has sampled at least one cycle.
     */
    bool collectCostProfile(obs::CostProfile &out) const override;

    /**
     * Repartition now from the measured per-shard eval ticks
     * accumulated since the last rebalance window: re-run LPT on the
     * measured fiber costs, and if the packing changes, migrate the
     * architectural state onto it (same shard count; native kernels,
     * profiler and activity guards are re-attached). Returns true iff
     * the packing changed. Needs profiled samples; false otherwise.
     */
    bool rebalanceNow();

    /** Repartitions performed so far (rebalanceNow + automatic). */
    uint64_t rebalances() const { return rebalances_; }

    /** Attach an obs::SuperstepProfiler sized for this engine's pool
     *  (one slot per shard worker, or one when sequential) and register
     *  it as the pool's barrier-wait observer. Always succeeds. */
    bool enableProfiling(const obs::ProfileOptions &opt =
                             obs::ProfileOptions{}) override;
    obs::SuperstepProfiler *profiler() override
    {
        return profiler_.get();
    }
    const obs::SuperstepProfiler *
    profiler() const override
    {
        return profiler_.get();
    }

    /** Checkpoint all simulation state (including the cycle count);
     *  layout-specific to the design and shard count. */
    void save(std::ostream &out) const;

    /** Raw state blob (see SimEngine::saveState). */
    bool
    saveState(std::ostream &out) const override
    {
        save(out);
        return true;
    }

    /** Canonical architectural state (see SimEngine / src/ckpt). */
    bool
    exportArch(core::ArchState &out) const override
    {
        shards_.exportArch(out);
        out.cycles = cycleCount_;
        return true;
    }
    bool
    importArch(const core::ArchState &st) override
    {
        shards_.importArch(st);
        cycleCount_ = st.cycles;
        return true;
    }

    /** Shards actually built (<= requested threads). */
    size_t numShards() const { return shards_.size(); }

    /** Pool workers actually running (1 when sequential; can be fewer
     *  than numShards() under the hardware-concurrency cap). */
    uint32_t
    numWorkers() const
    {
        return pool_ ? pool_->threads() : 1;
    }

  private:
    /** One fiber's partitioning summary, kept after construction so
     *  measured-cost repartitioning can re-pack without re-running
     *  fiber extraction. */
    struct FiberCost
    {
        std::vector<NodeId> cone;   ///< cone nodes, ascending
        double staticCost;          ///< x86 cost-model weight
        std::string key;            ///< stable CostProfile key
    };

    /** LPT: heaviest fiber first onto the least-loaded of
     *  @p nshards shards; ties break on ascending fiber index. */
    static std::vector<std::vector<uint32_t>>
    lptAssign(const std::vector<double> &weights, size_t nshards);

    /** Tear down the shard set and rebuild it for @p assign (same
     *  shard count), migrating the architectural state and
     *  re-attaching native kernels, profiler and activity guards. */
    void rebuildShards(const std::vector<std::vector<uint32_t>> &assign);

    /** Per-fiber measured weights from per-shard eval-tick deltas. */
    std::vector<double>
    fiberWeightsFrom(const std::vector<uint64_t> &shardTicks) const;

    /** Eval ticks per shard accumulated since the last rebalance
     *  window reset; false when nothing was sampled. */
    bool ticksSinceBase(std::vector<uint64_t> &delta) const;

    /** The automatic between-batch check (ParConfig::rebalance). */
    void maybeRebalance();

    Netlist nl_;
    ShardSet shards_;
    size_t batch_ = 0;

    // Repartitioning state (see rebuildShards).
    std::vector<FiberCost> fibers_;
    std::vector<std::vector<uint32_t>> assignment_;  ///< fibers per shard
    LowerOptions lower_;
    double rebalance_ = 0.0;
    bool activityWanted_ = false;
    bool wantNative_ = false;       ///< re-attach kernels on rebuild
    CgenOptions cgenOpt_;
    std::vector<uint64_t> ticksBase_;   ///< shard ticks at window start
    uint64_t rebalances_ = 0;

    // Declared before pool_: the pool holds a raw observer pointer to
    // the profiler, so the pool (destroyed first, in reverse member
    // order) must never outlive it.
    std::unique_ptr<obs::SuperstepProfiler> profiler_;
    std::shared_ptr<util::BspPool> pool_;   ///< null -> sequential
    bool poolShared_ = false;               ///< pool_ came from ParConfig
    uint64_t cycleCount_ = 0;
    bool native_ = false;                   ///< cgen kernels installed
};

} // namespace parendi::rtl

#endif // PARENDI_X86_PARALLEL_HH
