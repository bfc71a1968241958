#include "core/engine.hh"

#include <unistd.h>

#include <utility>

#include "core/compiler.hh"
#include "obs/costprofile.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"
#include "x86/parallel.hh"

namespace parendi::core {

bool
tryParseEngineKind(const std::string &name, EngineKind &kind)
{
    if (name == "interp")
        kind = EngineKind::Interp;
    else if (name == "ipu")
        kind = EngineKind::Ipu;
    else if (name == "par")
        kind = EngineKind::Par;
    else if (name == "cgen")
        kind = EngineKind::Cgen;
    else
        return false;
    return true;
}

EngineKind
parseEngineKind(const std::string &name)
{
    EngineKind kind;
    if (!tryParseEngineKind(name, kind))
        fatal("unknown engine '%s' (expected interp|ipu|par|cgen)",
              name.c_str());
    return kind;
}

namespace {

/**
 * The ipu engine owns a whole compiled Simulation (fibers +
 * partitioning + machine); the machine is itself the SimEngine.
 */
class CompiledIpuEngine : public SimEngine
{
  public:
    explicit CompiledIpuEngine(std::unique_ptr<Simulation> sim)
        : sim_(std::move(sim))
    {
    }

    const char *engineName() const override { return "ipu"; }
    const rtl::Netlist &
    netlist() const override
    {
        return sim_->netlist();
    }
    void step(size_t n = 1) override { sim_->machine().step(n); }
    void reset() override { sim_->machine().reset(); }
    uint64_t cycles() const override { return sim_->machine().cycles(); }
    void
    pokeInput(rtl::PortId port, const rtl::BitVec &value,
              uint32_t lane) override
    {
        sim_->machine().pokeInput(port, value, lane);
    }
    void
    readOutput(rtl::PortId port, uint32_t lane,
               rtl::BitVec &out) const override
    {
        sim_->machine().readOutput(port, lane, out);
    }
    void
    readRegister(rtl::RegId reg, uint32_t lane,
                 rtl::BitVec &out) const override
    {
        sim_->machine().readRegister(reg, lane, out);
    }
    void
    readMemory(rtl::MemId mem, uint64_t index, uint32_t lane,
               rtl::BitVec &out) const override
    {
        sim_->machine().readMemory(mem, index, lane, out);
    }
    bool
    saveState(std::ostream &out) const override
    {
        return sim_->machine().saveState(out);
    }
    bool
    exportArch(ArchState &out) const override
    {
        return sim_->machine().exportArch(out);
    }
    bool
    importArch(const ArchState &st) override
    {
        return sim_->machine().importArch(st);
    }
    bool
    enableProfiling(const obs::ProfileOptions &opt) override
    {
        return sim_->machine().enableProfiling(opt);
    }
    obs::SuperstepProfiler *
    profiler() override
    {
        return sim_->machine().profiler();
    }
    const obs::SuperstepProfiler *
    profiler() const override
    {
        return sim_->machine().profiler();
    }

  private:
    std::unique_ptr<Simulation> sim_;
};

/** Bytes one replica of @p nl needs live per lane: every node's slot
 *  words plus every memory image. The gang multiplies this by R. */
uint64_t
estimateReplicaBytes(const rtl::Netlist &nl)
{
    uint64_t bytes = 0;
    for (rtl::NodeId n = 0; n < nl.numNodes(); ++n)
        bytes += uint64_t(rtl::wordsFor(nl.widthOf(n))) * 8;
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m)
        bytes += nl.mem(m).sizeBytes();
    return bytes;
}

/** Last-level cache size, or a 32 MiB guess when sysconf can't say. */
uint64_t
llcBytes()
{
#ifdef _SC_LEVEL3_CACHE_SIZE
    long sz = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (sz > 0)
        return static_cast<uint64_t>(sz);
#endif
    return uint64_t{32} << 20;
}

/**
 * Gang throughput falls off a cliff once R replicas of the design no
 * longer fit the last-level cache (the documented R=16 knee in
 * BENCH_PR8.json): every slot access then streams from DRAM. Warn once
 * per process with the largest R that still fits.
 */
void
maybeWarnGangCacheCliff(const rtl::Netlist &nl, uint32_t replicas)
{
    static bool warned = false;
    if (warned || replicas <= 1)
        return;
    uint64_t per = estimateReplicaBytes(nl);
    uint64_t total = per * replicas;
    uint64_t llc = llcBytes();
    if (total <= llc)
        return;
    warned = true;
    uint64_t fit = per ? llc / per : replicas;
    if (fit < 1)
        fit = 1;
    warn("gang state for --replicas %u is ~%llu KiB, past the ~%llu "
         "MiB last-level cache — throughput drops off this cliff "
         "(see BENCH_PR8.json at R=16); consider --replicas %llu or "
         "fewer",
         replicas, static_cast<unsigned long long>(total >> 10),
         static_cast<unsigned long long>(llc >> 20),
         static_cast<unsigned long long>(fit));
}

/** Cycles the activity probe interprets from reset. The predicted
 *  saving of every measured design is stable from 16 to 1024. */
constexpr size_t kActivityProbeCycles = 64;

/** What testing one group's dirty byte costs a guarded sweep, in
 *  instruction-equivalents (see DESIGN.md "Activity-aware execution"
 *  for the measurements that set it). */
constexpr double kActivityGroupCost = 4.0;

/** Least predicted saving at which activity guards pay for their
 *  overhead. Below it the engine compiles the straight-line kernel. */
constexpr double kActivityMinSkip = 0.1;

/**
 * Predicted share of eval work that activity guards save over the
 * first kActivityProbeCycles cycles of @p nl from reset: 1 - (executed
 * instructions + kActivityGroupCost x groups tested) / instructions,
 * where a guarded sweep tests every group each cycle and the
 * straight-line stream runs every instruction. Measured on a throwaway
 * plan-carrying program and state, interpreted and without a profiler,
 * so it costs milliseconds and little memory. Negative when the guards
 * cost more than they skip.
 */
double
probeActivitySaving(const rtl::Netlist &nl, const rtl::LowerOptions &lower)
{
    rtl::ProgramBuilder builder(nl);
    builder.addAll();
    rtl::EvalProgram prog = builder.build();
    rtl::lowerProgram(prog, lower);
    rtl::EvalState state(prog);
    if (!state.enableActivity(true) || prog.instrs.empty())
        return 0.0;
    double executed = 0, tested = 0;
    for (size_t c = 0; c < kActivityProbeCycles; ++c) {
        state.step();
        executed += double(state.lastEvalInstrs());
        tested += double(state.lastGroupsTotal());
    }
    double straight = double(prog.instrs.size()) * kActivityProbeCycles;
    return 1.0 - (executed + kActivityGroupCost * tested) / straight;
}

} // namespace

std::unique_ptr<SimEngine>
makeEngine(rtl::Netlist nl, const EngineOptions &opt)
{
    if (opt.cgen && opt.kind != EngineKind::Par &&
        opt.kind != EngineKind::Cgen)
        warn("native kernels (--cgen) only apply to the par and cgen "
             "engines; ignoring");
    uint32_t replicas = opt.replicas ? opt.replicas : 1;
    if (replicas > 1 && opt.kind == EngineKind::Ipu) {
        warn("gang simulation (--replicas) is not supported by the "
             "ipu engine; running a single replica");
        replicas = 1;
    }
    maybeWarnGangCacheCliff(nl, replicas);
    // Guards are on where a short interpreted probe predicts they save
    // enough to pay (ipu has no guarded path and is not probed).
    // Without guards no engine reads the plan, and a program without
    // one compiles to the straight-line native kernel instead of the
    // guarded one swept all-dirty.
    rtl::LowerOptions lower = opt.lower;
    bool guards = opt.activity;
    if (guards && lower.activityPlan && opt.kind != EngineKind::Ipu) {
        double saving = probeActivitySaving(nl, lower);
        guards = saving >= kActivityMinSkip;
        inform("activity: %zu-cycle probe predicts guards save %.1f%% "
               "of eval work; %s evaluation", kActivityProbeCycles,
               saving * 100.0, guards ? "guarded" : "straight-line");
    }
    if (!guards)
        lower.activityPlan = false;
    std::unique_ptr<SimEngine> engine;
    switch (opt.kind) {
      case EngineKind::Interp:
        engine = std::make_unique<rtl::Interpreter>(std::move(nl),
                                                    lower, replicas);
        break;
      case EngineKind::Cgen: {
        rtl::CgenOptions ccfg;
        ccfg.store = opt.artifacts;
        ccfg.lanes = replicas;
        engine = std::make_unique<rtl::CgenInterpreter>(std::move(nl),
                                                        lower, ccfg);
        break;
      }
      case EngineKind::Par: {
        rtl::ParConfig pcfg;
        pcfg.batch = opt.batch;
        pcfg.pool = opt.pool;
        pcfg.replicas = replicas;
        pcfg.rebalance = opt.rebalance;
        obs::CostProfile measured;
        if (!opt.costProfileIn.empty() &&
            measured.load(opt.costProfileIn) && !measured.empty()) {
            inform("par: partitioning on %zu measured fiber costs "
                   "from %s", measured.size(),
                   opt.costProfileIn.c_str());
            pcfg.costIn = &measured;
        }
        auto par = std::make_unique<rtl::ParallelInterpreter>(
            std::move(nl), opt.threads, lower, pcfg);
        if (opt.cgen) {
            rtl::CgenOptions ccfg;
            ccfg.store = opt.artifacts;
            par->enableNativeKernels(ccfg);
        }
        engine = std::move(par);
        break;
      }
      case EngineKind::Ipu: {
        CompilerOptions copt;
        copt.lower = lower;
        copt.machine.lower = lower;
        copt.machine.hostThreads = opt.threads;
        copt.machine.batch = opt.batch;
        engine = std::make_unique<CompiledIpuEngine>(
            compile(std::move(nl), copt));
        break;
      }
    }
    if (!engine)
        panic("unhandled engine kind");
    // Activity-guarded eval where the probe chose it (--activity 0
    // forces always-eval). Engines without a guarded path — ipu, or a
    // program whose activity plan could not be built — return false
    // and keep running always-eval.
    if (guards)
        engine->setActivity(true);
    // Telemetry-directed repartitioning reads the profiler's
    // per-shard straggler stats, so --rebalance implies --profile.
    const bool needProfile = opt.profile || opt.rebalance > 0;
    if (needProfile && !engine->enableProfiling(opt.profileOpt)) {
        if (opt.profile)
            warn("engine %s has no runtime instrumentation; --profile "
                 "ignored", engine->engineName());
        else
            warn("engine %s has no runtime instrumentation; "
                 "--rebalance ignored", engine->engineName());
    }
    return engine;
}

} // namespace parendi::core
