/**
 * @file
 * An event-driven (activity-aware) interpreter: per cycle, only the
 * combinational nodes whose inputs changed are re-evaluated. The
 * paper (§3, citing Beamer's work) argues full-cycle simulation
 * usually beats event-driven because the cost of tracking value
 * changes exceeds the savings at typical RTL activity factors; this
 * implementation exists to measure that trade-off on the benchmark
 * designs (bench/sec3_activity) and as a second, independently
 * derived functional model for differential testing. It is a test and
 * §3 witness, not a CLI engine: makeEngine never builds it.
 */

#ifndef PARENDI_RTL_EVENT_HH
#define PARENDI_RTL_EVENT_HH

#include <vector>

#include "rtl/interp.hh"

namespace parendi::rtl {

class EventInterpreter : public ProgramEngine
{
  public:
    /** Defaults to the generic (unlowered) program form so it remains
     *  an independently derived witness for differential testing of
     *  the specialized/fused kernels; pass other LowerOptions to run
     *  the event engine on a lowered program. */
    explicit EventInterpreter(Netlist nl,
                              const LowerOptions &lower =
                                  LowerOptions::none());

    const char *engineName() const override { return "event"; }

    /** Simulate @p n cycles with selective evaluation. */
    void step(size_t n = 1) override;

    /** Restore initial state (activity counters included). */
    void reset() override;

    /** Drive an input port. The write triggers a full re-evaluation
     *  (pokes are host-rate, not cycle-rate, so selective propagation
     *  is not worth the bookkeeping here). */
    void pokeInput(PortId port, const BitVec &value,
                   uint32_t lane) override;

    /** Scalar architectural import (see SimEngine); settles the
     *  change-detection shadow on the imported state. */
    bool importArch(const core::ArchState &st) override;

    /** Nodes evaluated since construction (the "work done"). */
    uint64_t evaluatedNodes() const { return evaluated; }
    /** Nodes that would have been evaluated full-cycle. */
    uint64_t
    fullCycleNodes() const
    {
        return cycleCount * prog.instrs.size();
    }
    /** Fraction of node evaluations actually performed. */
    double
    activityFactor() const
    {
        return fullCycleNodes()
                   ? static_cast<double>(evaluated) /
                         static_cast<double>(fullCycleNodes())
                   : 0.0;
    }

  private:
    /** Sync the change-detection shadow with a fully evaluated state
     *  and clear all pending dirty flags. */
    void settle();

    /// instruction index -> indices of dependent instructions
    std::vector<std::vector<uint32_t>> users;
    /// per-register: instructions reading its current-value slot
    std::vector<std::vector<uint32_t>> regUsers;
    /// per-memory(program index): instructions reading it
    std::vector<std::vector<uint32_t>> memUsers;
    std::vector<uint8_t> dirty;
    std::vector<uint64_t> shadow;   ///< previous dst values

    uint64_t evaluated = 0;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_EVENT_HH
