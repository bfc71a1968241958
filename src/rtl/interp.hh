/**
 * @file
 * Reference single-threaded RTL interpreter (the golden model). It is
 * also the functional stand-in for "Verilator single-thread" in the
 * evaluation harness: a straight-line, full-cycle evaluation of the
 * whole design with no partitioning.
 */

#ifndef PARENDI_RTL_INTERP_HH
#define PARENDI_RTL_INTERP_HH

#include <iosfwd>
#include <memory>

#include "core/engine.hh"
#include "rtl/eval.hh"
#include "rtl/netlist.hh"

namespace parendi::rtl {

/**
 * A SimEngine over one whole-design EvalProgram: owns the design, the
 * program and its state, and implements the id-indexed access
 * primitives and the architectural view that Interpreter and
 * EventInterpreter share.
 */
class ProgramEngine : public core::SimEngine
{
  public:
    // The state holds a reference to the program member; the object
    // must stay put.
    ProgramEngine(const ProgramEngine &) = delete;
    ProgramEngine &operator=(const ProgramEngine &) = delete;

    const Netlist &netlist() const override { return nl; }
    const EvalProgram &program() const { return prog; }

    /** Cycles simulated since construction/reset. */
    uint64_t cycles() const override { return cycleCount; }
    uint32_t replicas() const override { return state->lanes(); }

    void pokeInput(PortId port, const BitVec &value,
                   uint32_t lane) override;
    void readOutput(PortId port, uint32_t lane,
                    BitVec &out) const override;
    void readRegister(RegId reg, uint32_t lane,
                      BitVec &out) const override;
    void readMemory(MemId mem, uint64_t index, uint32_t lane,
                    BitVec &out) const override;

    /** Canonical architectural state (see SimEngine / src/ckpt). */
    bool exportArch(core::ArchState &out) const override;
    bool importArch(const core::ArchState &st) override;

  protected:
    /** Takes the netlist by value (copy or move) so the engine owns
     *  its design and temporaries are safe to pass. Builds and lowers
     *  the program, instantiates @p lanes replica lanes of state and
     *  evaluates combinational logic once, so outputs are observable
     *  before the first clock edge. */
    ProgramEngine(Netlist nl, const LowerOptions &lower, uint32_t lanes);

    Netlist nl;
    EvalProgram prog;
    std::unique_ptr<EvalState> state;
    uint64_t cycleCount = 0;
};

/**
 * Owns a compiled whole-design EvalProgram and its state, and steps it
 * one full cycle at a time.
 */
class Interpreter : public ProgramEngine
{
  public:
    /** The compiled program is lowered (specialized + fused) by
     *  default; pass LowerOptions::none() for the fully generic A/B
     *  baseline. @p replicas > 1 builds a gang: R independent
     *  instances in one lane-major EvalState, stepped together. */
    explicit Interpreter(Netlist nl,
                         const LowerOptions &lower = LowerOptions{},
                         uint32_t replicas = 1);

    const char *engineName() const override { return "interp"; }

    /** Simulate @p n full RTL cycles. */
    void step(size_t n = 1) override;

    /** Enable/disable activity-guarded evaluation (see
     *  EvalState::enableActivity). Returns false if the program has no
     *  activity plan; the always-eval path then stays in effect. */
    bool
    setActivity(bool on) override
    {
        return state->enableActivity(on);
    }
    bool
    activityEnabled() const override
    {
        return state->activityEnabled();
    }

    /** Reset all state to initial values. */
    void reset() override;

    /** Checkpoint all simulation state (including the cycle count). */
    void save(std::ostream &out) const;

    /** Raw state blob (see SimEngine::saveState). */
    bool
    saveState(std::ostream &out) const override
    {
        save(out);
        return true;
    }

    /** Attach an obs::SuperstepProfiler (one worker, one shard; the
     *  whole design is a single straight-line program here, so the
     *  commit/latch/eval phases are timed on worker 0 and the eval
     *  duration doubles as the single shard's straggler stat). Also
     *  covers CgenInterpreter — the native kernel runs inside
     *  evalComb(). Always succeeds. */
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

  private:
    void stepProfiled(size_t n);

    std::unique_ptr<obs::SuperstepProfiler> profiler_;
    obs::Counter *ctrInstrs_ = nullptr;
    obs::Counter *ctrNative_ = nullptr;
    obs::Counter *ctrGroupsSkipped_ = nullptr;
    obs::Counter *ctrGroupsTotal_ = nullptr;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_INTERP_HH
