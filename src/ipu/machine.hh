/**
 * @file
 * The simulated IPU system executing a compiled BSP RTL simulation.
 *
 * Functionally, every process of a Partitioning becomes a tile: an
 * EvalProgram holding the union of its fibers' cones (duplicated nodes
 * and all, exactly like the generated poplar codelets of the real
 * Parendi). One simulated RTL cycle is:
 *
 *   compute   : every tile evaluates its combinational program
 *   barrier   : (modeled)
 *   exchange  : array write ports are broadcast to replicas
 *               (differential exchange, paper §5.2) and register values
 *               flow from owner tiles to reader tiles
 *   barrier   : (modeled)
 *
 * The functional execution is an rtl::ShardSet (one shard per tile).
 * With one host worker it runs the in-place sequential cycle; with
 * hostThreads >= 2 the whole cycle — exchange phases included — runs
 * as the fused superstep on a persistent util::BspPool whose workers
 * realize the BSP barriers on the host.
 *
 * Performance is accounted analytically per RTL cycle from the
 * partitioning and the IpuArch cost model (t_sync + t_comm + t_comp,
 * paper Eq. 1); because the simulation is full-cycle, the per-cycle
 * cost is static.
 */

#ifndef PARENDI_IPU_MACHINE_HH
#define PARENDI_IPU_MACHINE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/engine.hh"
#include "ipu/arch.hh"
#include "ipu/exchange.hh"
#include "partition/process.hh"
#include "rtl/eval.hh"
#include "rtl/shard.hh"
#include "util/bsp_pool.hh"

namespace parendi::ipu {

/** The three BSP cost components of one simulated RTL cycle. */
struct CycleCosts
{
    double tSync = 0;
    double tCommOn = 0;
    double tCommOff = 0;
    double tComp = 0;

    double
    total() const
    {
        return tSync + tCommOn + tCommOff + tComp;
    }

    double
    tComm() const
    {
        return tCommOn + tCommOff;
    }
};

struct MachineOptions
{
    /** Model differential array exchange (§5.2); when false, remote
     *  array replicas are modeled as receiving full copies each cycle
     *  (functional behaviour is unchanged — this is the ablation). */
    bool differentialExchange = true;

    /** Host worker threads for the functional execution (BSP makes
     *  this trivially safe: tiles only touch private state between
     *  barriers). 0/1 = sequential execution. */
    uint32_t hostThreads = 0;

    /** Cycles per stepCycles call (with >= 2 workers, one pool
     *  dispatch each); 0 = each step(n) call is one batch. */
    size_t batch = 0;

    /** Cap on pooled host workers; 0 = the host's hardware
     *  concurrency (see rtl::ParConfig::maxWorkers). */
    uint32_t maxHostWorkers = 0;

    /** Lowering (specialization/fusion) applied to every tile
     *  program; functional behaviour is unchanged by construction. */
    rtl::LowerOptions lower;
};

/** One tile's placement and modeled cost (the functional program and
 *  state live in the ShardSet, indexed by the same position). */
struct Tile
{
    uint32_t id;                ///< global tile id
    uint32_t chip;
    uint64_t computeCycles = 0; ///< modeled cycles per RTL cycle
};

class IpuMachine : public core::SimEngine
{
  public:
    IpuMachine(const fiber::FiberSet &fs,
               const partition::Partitioning &parts,
               const IpuArch &arch = IpuArch{},
               const MachineOptions &opt = MachineOptions{});

    // -- Functional simulation -------------------------------------------

    const char *engineName() const override { return "ipu"; }
    const rtl::Netlist &netlist() const override { return nl; }

    /** Simulate @p n RTL cycles. */
    void step(size_t n = 1) override;

    void reset() override;
    uint64_t cycles() const override { return cycleCount; }

    // Host access (see SimEngine); forwards to the shard set.
    void
    pokeInput(rtl::PortId port, const rtl::BitVec &value,
              uint32_t lane) override
    {
        shards.pokeInput(port, value, lane);
    }
    void
    readOutput(rtl::PortId port, uint32_t lane,
               rtl::BitVec &out) const override
    {
        shards.readOutput(port, lane, out);
    }
    void
    readRegister(rtl::RegId reg, uint32_t lane,
                 rtl::BitVec &out) const override
    {
        shards.readRegister(reg, lane, out);
    }
    void
    readMemory(rtl::MemId mem, uint64_t index, uint32_t lane,
               rtl::BitVec &out) const override
    {
        shards.readMemory(mem, index, lane, out);
    }

    /** Checkpoint the state of every tile (plus the cycle count). */
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
        shards.exportArch(out);
        out.cycles = cycleCount;
        return true;
    }
    bool
    importArch(const core::ArchState &st) override
    {
        shards.importArch(st);
        cycleCount = st.cycles;
        return true;
    }

    /** Attach an obs::SuperstepProfiler to the functional execution
     *  and register it as the pool's barrier-wait observer. Always
     *  succeeds. */
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

    // -- Performance model -----------------------------------------------

    const CycleCosts &cycleCosts() const { return costs; }
    double rateKHz() const { return arch.rateKHz(costs.total()); }
    const ExchangeTraffic &traffic() const { return traffic_; }

    uint32_t tilesUsed() const { return static_cast<uint32_t>(
        tiles.size()); }
    uint32_t chipsUsed() const { return chipsUsed_; }

    /** Largest per-tile memory footprint (bytes). */
    uint64_t maxTileMemBytes() const { return maxTileMem; }
    /** Largest per-tile code footprint (bytes). */
    uint64_t maxTileCodeBytes() const { return maxTileCode; }

    const IpuArch &architecture() const { return arch; }

  private:
    void buildTiles(const fiber::FiberSet &fs,
                    const partition::Partitioning &parts);
    void accountCosts(const fiber::FiberSet &fs,
                      const partition::Partitioning &parts);

    const rtl::Netlist &nl;
    IpuArch arch;
    MachineOptions opt;

    std::vector<Tile> tiles;
    uint32_t chipsUsed_ = 1;
    /** opt.hostThreads clamped to tiles and host concurrency (or the
     *  explicit maxHostWorkers cap). */
    uint32_t hostWorkers_ = 0;

    rtl::ShardSet shards;
    // Declared before pool: the pool holds a raw observer pointer to
    // the profiler, so the pool (destroyed first, in reverse member
    // order) must never outlive it.
    std::unique_ptr<obs::SuperstepProfiler> profiler_;
    std::unique_ptr<util::BspPool> pool;    ///< null -> sequential

    CycleCosts costs;
    ExchangeTraffic traffic_;
    uint64_t maxTileMem = 0;
    uint64_t maxTileCode = 0;
    uint64_t cycleCount = 0;
};

} // namespace parendi::ipu

#endif // PARENDI_IPU_MACHINE_HH
