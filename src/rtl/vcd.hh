/**
 * @file
 * VCD (Value Change Dump) waveform tracing — the standard debug
 * output every RTL simulator provides (Verilator's --trace). The
 * writer emits IEEE-1364 VCD: a header declaring the traced signals,
 * then per-timestep deltas (only signals whose value changed).
 */

#ifndef PARENDI_RTL_VCD_HH
#define PARENDI_RTL_VCD_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "rtl/bitvec.hh"

namespace parendi::rtl {

/**
 * Where an EngineTracer writes: declared signals, one header, then one
 * sample per timestep. Implemented by VcdWriter (`--vcd`) and
 * ckpt::WaveWriter (`--wave`).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Declare a signal before writeHeader(); returns its index. */
    virtual size_t addSignal(const std::string &name, uint32_t width) = 0;

    /** Emit the header. @p designHash is rtl::netlistHash of the
     *  traced design. */
    virtual void writeHeader(const std::string &design,
                             uint64_t designHash) = 0;

    /** Record one timestep; @p values aligned with the declared
     *  signals. Only changes are written (all signals at the first
     *  sample). */
    virtual void sample(uint64_t time,
                        const std::vector<BitVec> &values) = 0;
};

/** Low-level VCD emitter over an arbitrary signal list. */
class VcdWriter : public TraceSink
{
  public:
    /** Writes to @p out (not owned; must outlive the writer). */
    explicit VcdWriter(std::ostream &out);

    size_t addSignal(const std::string &name, uint32_t width) override;

    /** Emit the VCD header ($timescale, $var declarations, ...). VCD
     *  has no field for @p designHash; it is not written. */
    void writeHeader(const std::string &design,
                     uint64_t designHash = 0) override;

    void sample(uint64_t time, const std::vector<BitVec> &values) override;

    size_t numSignals() const { return signals.size(); }

  private:
    struct Signal
    {
        std::string name;
        uint16_t width;
        std::string id;     ///< short VCD identifier
        BitVec last;
        bool dumped = false;
    };

    std::string idFor(size_t index) const;
    void dumpValue(const Signal &s, const BitVec &v);

    std::ostream &out;
    std::vector<Signal> signals;
    bool headerDone = false;
};

/**
 * Traces every register (by RegId), then every output port (by
 * PortId), of any SimEngine into a TraceSink: one sample at
 * construction (time 0), then one per stepped cycle. The engines are
 * bit-identical, so so are their waveforms.
 */
class EngineTracer
{
  public:
    /** @p sink is not owned and must outlive the tracer. */
    EngineTracer(core::SimEngine &sim, TraceSink &sink);

    /** Step the engine and record one sample per cycle. */
    void step(size_t n = 1);

  private:
    void sampleNow();

    core::SimEngine &sim;
    TraceSink &sink;
    /// Sampling scratch, sized once: the read primitives refill the
    /// BitVecs in place, so steady-state tracing does not touch the
    /// heap.
    std::vector<BitVec> values;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_VCD_HH
