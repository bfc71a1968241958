/**
 * @file
 * The compressed waveform trace (`--wave FILE`): the same signal set
 * the VCD tracer dumps (every register, then every output port), but
 * stored as bit-coded value-change deltas instead of ASCII — on
 * typical designs a few percent of the raw VCD bytes. `parendi
 * wave2vcd` expands a trace back to a VCD that is byte-identical to
 * what `--vcd` would have produced on the same run, so existing
 * waveform tooling keeps working.
 *
 * Stream layout:
 *
 *    [8B magic "PRNDWAVE"] [u32 version = 1] [u64 netlist hash]
 *    [u32 designNameLen] [designName]
 *    [u32 numSignals] ([u32 width] [u32 nameLen] [name])*
 *    sample*
 *
 * Signals are declared in EngineTracer order: registers by RegId,
 * then outputs by PortId. Each sample is byte-aligned:
 *
 *    [LEB128 payloadBytes] [bitstream payload]
 *
 * whose payload codes, with the shared Exp-Golomb bitstream
 * (ckpt/bitstream.hh):
 *
 *    UEG timeDelta      (vs the previous sample; absolute for the
 *                        first sample)
 *    UEG numChanges
 *    numChanges x:
 *       UEG idGap       (signal index gap: first = index, later =
 *                        index - prevIndex - 1; ascending)
 *       codeWords(new XOR previous, wordsFor(width))
 *
 * The first sample reports every signal as changed (matching VCD's
 * dump-all at time 0); later samples carry only real changes, XORed
 * against the previous value so near-still signals cost almost
 * nothing. Samples with no changes are not recorded at all — VCD
 * emits nothing for them either.
 */

#ifndef PARENDI_CKPT_WAVE_HH
#define PARENDI_CKPT_WAVE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rtl/bitvec.hh"
#include "rtl/vcd.hh"

namespace parendi::ckpt {

/** The wave stream version this module reads and writes. */
inline constexpr uint32_t kWaveVersion = 1;

/** Low-level compressed-waveform emitter over an arbitrary signal
 *  list (the bit-coded sibling of rtl::VcdWriter); rtl::EngineTracer
 *  drives it for `--wave`. */
class WaveWriter : public rtl::TraceSink
{
  public:
    explicit WaveWriter(std::ostream &out);

    size_t addSignal(const std::string &name, uint32_t width) override;

    /** Emit the stream header, stamped with @p designHash. */
    void writeHeader(const std::string &design,
                     uint64_t designHash) override;

    /** A change-free sample writes nothing. */
    void sample(uint64_t time,
                const std::vector<rtl::BitVec> &values) override;

    size_t numSignals() const { return signals_.size(); }

  private:
    struct Signal
    {
        std::string name;
        uint32_t width;
        rtl::BitVec last;
    };

    std::ostream &out_;
    std::vector<Signal> signals_;
    uint64_t lastTime_ = 0;
    bool headerDone_ = false;
    bool first_ = true;
};

/**
 * Expand a compressed wave stream to VCD, byte-identical to the VCD
 * the EngineTracer would have written on the same run. fatal() on a
 * corrupt or truncated stream. Returns the number of samples
 * converted.
 */
uint64_t waveToVcd(std::istream &in, std::ostream &out);

} // namespace parendi::ckpt

#endif // PARENDI_CKPT_WAVE_HH
