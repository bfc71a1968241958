/**
 * @file
 * SimEngine: the uniform host-facing surface of every functional RTL
 * engine in the tree — the reference interpreter, the simulated IPU
 * machine, the parallel host interpreter, native codegen, and the
 * event-driven test witness. Test harnesses, the waveform tracer, and
 * the CLI driver operate on this interface so any engine can be
 * swapped in; the engines are bit-identical by construction (they all
 * execute lowered EvalPrograms of the same netlist), so "same stimulus
 * in, same values out" holds across the whole matrix.
 *
 * This header is free of any core-library dependency so the
 * rtl/ipu/x86 libraries can implement the interface without linking
 * parendi_core: the shared name-based access layer is defined in
 * rtl/access.cc inside parendi_rtl. The makeEngine factory, which
 * needs the whole compiler, lives in engine.cc inside parendi_core.
 */

#ifndef PARENDI_CORE_ENGINE_HH
#define PARENDI_CORE_ENGINE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.hh"
#include "rtl/eval.hh"
#include "rtl/netlist.hh"

namespace parendi::util {
class BspPool;
}

namespace parendi::rtl {
class ArtifactCache;
}

namespace parendi::obs {
struct CostProfile;
}

namespace parendi::core {

/**
 * Canonical architectural state of one simulation session, in netlist
 * identity order — the engine-independent currency of the v2
 * checkpoint format (src/ckpt). Registers, memory entries and input
 * port values are indexed by their netlist ids; gang engines carry
 * every replica lane. Because every engine is bit-identical by
 * construction, a state exported from one engine imports into any
 * other engine of the same design (par@8 -> interp, cgen -> gang par)
 * and the continuation stays bit-identical — shard layout, slot
 * numbering and lane-major padding never leak into the format.
 */
struct ArchState
{
    uint64_t cycles = 0;
    uint32_t lanes = 1;
    /** [RegId][lane] current register values. */
    std::vector<std::vector<rtl::BitVec>> regs;
    /** [MemId][entry * lanes + lane] memory images. */
    std::vector<std::vector<rtl::BitVec>> mems;
    /** [PortId][lane] last poked input port values. */
    std::vector<std::vector<rtl::BitVec>> inputs;
};

/** Lane value addressing every replica lane at once: a poke with it
 *  broadcasts (SimEngine::poke). Journals record it for broadcast
 *  pokes (ckpt/journal.hh). */
inline constexpr uint32_t kAllLanes = UINT32_MAX;

class SimEngine
{
  public:
    virtual ~SimEngine() = default;

    /** Stable identifier ("interp", "ipu", "par", "cgen"; "event" for
     *  the event-driven test witness, which makeEngine never builds). */
    virtual const char *engineName() const = 0;

    /** The design this engine simulates. */
    virtual const rtl::Netlist &netlist() const = 0;

    /** Simulate @p n full RTL cycles. */
    virtual void step(size_t n = 1) = 0;

    /** Restore initial state (cycle count returns to 0). */
    virtual void reset() = 0;

    /** Cycles simulated since construction/reset. */
    virtual uint64_t cycles() const = 0;

    /** Number of replica lanes this engine steps per cycle (1 unless
     *  built as a gang: EngineOptions::replicas = R > 1 steps R
     *  independent instances of the design in lock-step). */
    virtual uint32_t replicas() const { return 1; }

    // -- Host access ----------------------------------------------------
    //
    // One layer for every engine. Each call resolves the name against
    // netlist(), checks the value width and the lane (lane <
    // replicas(); pokes also accept kAllLanes), and only then calls one
    // of the four id-indexed primitives below. An unknown name, a width
    // mismatch, an out-of-range lane or memory index is a FatalError
    // whose message is the same on every engine. Scalar pokes broadcast
    // to every lane (identical stimuli reproduce the scalar run in all
    // lanes); scalar peeks read lane 0.

    /** Drive an input port; combinationally visible immediately. */
    void poke(const std::string &input, const rtl::BitVec &value)
    {
        pokeLane(input, value, kAllLanes);
    }
    void poke(const std::string &input, uint64_t value)
    {
        pokeLane(input, value, kAllLanes);
    }
    /** Drive an input port of one lane (or of all, with kAllLanes). */
    void pokeLane(const std::string &input, const rtl::BitVec &value,
                  uint32_t lane);
    void pokeLane(const std::string &input, uint64_t value,
                  uint32_t lane);

    /** Sample an output port. */
    rtl::BitVec peek(const std::string &output) const
    {
        return peekLane(output, 0);
    }
    rtl::BitVec peekLane(const std::string &output, uint32_t lane) const;

    /** Read a register's current value by name. */
    rtl::BitVec peekRegister(const std::string &reg) const
    {
        return peekRegisterLane(reg, 0);
    }
    rtl::BitVec peekRegisterLane(const std::string &reg,
                                 uint32_t lane) const;

    /** Read one memory entry by memory name. */
    rtl::BitVec peekMemory(const std::string &mem, uint64_t index) const
    {
        return peekMemoryLane(mem, index, 0);
    }
    rtl::BitVec peekMemoryLane(const std::string &mem, uint64_t index,
                               uint32_t lane) const;

    /** peek()/peekRegister() into a caller-owned BitVec, reusing its
     *  buffer. */
    void peekInto(const std::string &output, rtl::BitVec &out) const;
    void peekRegisterInto(const std::string &reg, rtl::BitVec &out) const;

    // -- Id-indexed access primitives -------------------------------------
    //
    // What each engine implements. Callers pass valid ids, a width-
    // matched value and a valid lane (the name-based layer above checks
    // all three); the read primitives refill @p out in place, so a
    // caller that resolves ids once samples without allocating (the
    // waveform tracer).

    /** Write @p value into input @p port of @p lane (every lane with
     *  kAllLanes) and re-evaluate combinational logic once. */
    virtual void pokeInput(rtl::PortId port, const rtl::BitVec &value,
                           uint32_t lane) = 0;
    virtual void readOutput(rtl::PortId port, uint32_t lane,
                            rtl::BitVec &out) const = 0;
    virtual void readRegister(rtl::RegId reg, uint32_t lane,
                              rtl::BitVec &out) const = 0;
    /** @p index < the memory's depth. */
    virtual void readMemory(rtl::MemId mem, uint64_t index, uint32_t lane,
                            rtl::BitVec &out) const = 0;

    /**
     * Attach a runtime telemetry profiler (obs::SuperstepProfiler) to
     * this engine: monotonic counters every cycle, per-worker
     * superstep timestamps plus the per-shard straggler distribution
     * every opt.sampleEvery-th cycle. Returns false if the engine has
     * no instrumentation (the default; the event engine). Idempotent:
     * a second call keeps the existing profiler.
     */
    virtual bool
    enableProfiling(const obs::ProfileOptions &opt = obs::ProfileOptions{})
    {
        (void)opt;
        return false;
    }

    /** The attached profiler, or nullptr when profiling is off. */
    virtual obs::SuperstepProfiler *profiler() { return nullptr; }
    virtual const obs::SuperstepProfiler *
    profiler() const
    {
        return nullptr;
    }

    /**
     * Activity-guarded evaluation: skip combinational groups whose
     * input cone is unchanged since the previous cycle (see
     * rtl::EvalState::enableActivity). Bit-identical to always-eval by
     * construction. Returns false when the engine has no guarded path
     * (the default; the event and ipu engines) — always-eval stays in
     * effect.
     */
    virtual bool
    setActivity(bool on)
    {
        (void)on;
        return false;
    }

    virtual bool activityEnabled() const { return false; }

    /**
     * Export measured per-fiber evaluation costs (obs::CostProfile),
     * attributing each shard's profiled eval ticks to the fibers
     * packed on it. Requires an attached profiler that has sampled at
     * least one cycle; returns false otherwise (and for engines
     * without a fiber partition — the default).
     */
    virtual bool
    collectCostProfile(obs::CostProfile &out) const
    {
        (void)out;
        return false;
    }

    /**
     * Serialize all mutable simulation state (including the cycle
     * count) as a raw, engine-layout-specific blob — the size
     * baseline the compact checkpoint formats are measured against.
     * Returns false when the engine has no raw form (the default; the
     * event engine). Hosts checkpoint with core::saveCheckpoint /
     * core::restoreCheckpoint (core/session.hh), the engine-portable
     * v2 snapshot behind a versioned, design-hash-stamped header.
     */
    virtual bool
    saveState(std::ostream &out) const
    {
        (void)out;
        return false;
    }

    /**
     * Export the canonical architectural state (see ArchState) — what
     * the v2 checkpoint format (src/ckpt) serializes. Always returns
     * true (every engine has an architectural view; the return value
     * is kept for existing callers).
     */
    virtual bool exportArch(ArchState &out) const = 0;

    /**
     * Import an architectural state exported by any engine of the
     * same design (and, for gang engines, the same lane count):
     * restores registers, memories, inputs and the cycle count, then
     * re-evaluates combinational logic, so the continuation is
     * bit-identical to the exporting engine's. Always returns true;
     * fatal() on a shape mismatch.
     */
    virtual bool importArch(const ArchState &st) = 0;
};

/** Which engine makeEngine() instantiates. */
enum class EngineKind { Interp, Ipu, Par, Cgen };

/** Parse "interp" / "ipu" / "par" / "cgen" into @p kind;
 *  false on an unknown name. The non-throwing form servers use to
 *  reject a bad create-session request without killing the process. */
bool tryParseEngineKind(const std::string &name, EngineKind &kind);

/** Parse "interp" / "ipu" / "par" / "cgen"; fatal()
 *  otherwise (the CLI path, where a bad name should end the run). */
EngineKind parseEngineKind(const std::string &name);

struct EngineOptions
{
    EngineKind kind = EngineKind::Ipu;
    /** Host worker threads for the ipu and par engines (0/1 =
     *  sequential). Ignored by interp and cgen. */
    uint32_t threads = 0;
    /** Program lowering applied to whichever engine is built. */
    rtl::LowerOptions lower;
    /** Attach native codegen kernels (rtl/cgen) to the par engine's
     *  shards. The cgen engine implies this; ipu/interp ignore
     *  it. No-op (with a warning) when no toolchain is available. */
    bool cgen = false;
    /** Enable runtime telemetry (SimEngine::enableProfiling) on the
     *  built engine; profileOpt.sampleEvery is the --profile-every
     *  CLI knob. Engines without instrumentation warn and run
     *  unprofiled. */
    bool profile = false;
    obs::ProfileOptions profileOpt;
    /** Par and ipu engines: cycles per stepped batch, one pool
     *  dispatch each with >= 2 workers (`--batch N`; 0 = each step(n)
     *  call is one batch). */
    size_t batch = 0;
    /** Externally owned BSP worker pool for the par engine, shared
     *  across engines (the serving layer's fair-share scheduler steps
     *  many sessions on one pool). Null = the engine owns a private
     *  pool. See ParConfig::pool for the sharing contract. */
    std::shared_ptr<util::BspPool> pool;
    /** Artifact cache that cgen compiles resolve through (par --cgen
     *  and the cgen engine). Null = the per-process directory cache.
     *  Must outlive the engine. See rtl::ArtifactCache. */
    rtl::ArtifactCache *artifacts = nullptr;
    /** Gang simulation: replica lanes stepped in lock-step per cycle
     *  (`--replicas N`). Supported by the interp, cgen and par engines
     *  (lanes compose with par threads); ipu warns and runs a
     *  single replica. 1 = scalar. */
    uint32_t replicas = 1;
    /** Activity-guarded evaluation where it pays (`--activity`;
     *  default on): makeEngine runs a short interpreted probe of the
     *  design and turns guards on — skip combinational groups whose
     *  inputs are unchanged — only when it predicts they save enough
     *  eval work to pay for their dirty-byte tests;
     *  otherwise it lowers without a plan, as `--activity 0` always
     *  does, so native kernels are the straight-line ones. Engines
     *  without a guarded path (ipu) are not probed and silently run
     *  always-eval. */
    bool activity = true;
    /** Load measured per-fiber costs from this file (see
     *  obs::CostProfile) and let the par engine's LPT partition use
     *  them in place of the static x86 cost model (`--cost-profile`).
     *  Missing or unreadable file: static costs with a warning. */
    std::string costProfileIn;
    /** Telemetry-directed repartitioning (`--rebalance R`, par engine
     *  only): between stepped batches, when the profiled per-shard
     *  eval-tick skew max/mean exceeds R, re-run LPT on the measured
     *  costs and migrate state onto the new packing. 0 = off. Implies
     *  profiling. */
    double rebalance = 0.0;
};

/**
 * Build an engine over @p nl (taken by value; move it in). The ipu
 * engine runs the full compiler pipeline with default CompilerOptions
 * (hostThreads/lower overridden from @p opt).
 */
std::unique_ptr<SimEngine> makeEngine(rtl::Netlist nl,
                                      const EngineOptions &opt);

} // namespace parendi::core

#endif // PARENDI_CORE_ENGINE_HH
