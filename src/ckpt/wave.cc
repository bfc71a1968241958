#include "ckpt/wave.hh"

#include <istream>
#include <ostream>

#include "ckpt/bitstream.hh"
#include "rtl/netlist.hh"
#include "rtl/vcd.hh"
#include "util/logging.hh"

namespace parendi::ckpt {

namespace {

constexpr uint64_t kWaveMagic = 0x45564157444e5250ull; // "PRNDWAVE"

template <typename T>
void
put(std::ostream &out, T v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof v);
}

template <typename T>
bool
get(std::istream &in, T &v)
{
    in.read(reinterpret_cast<char *>(&v), sizeof v);
    return in.good();
}

/** LEB128: sample payloads are almost always < 128 bytes, so the
 *  per-sample length prefix costs one byte instead of four. */
void
putVarint(std::ostream &out, uint64_t v)
{
    while (v >= 0x80) {
        put(out, static_cast<uint8_t>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    put(out, static_cast<uint8_t>(v));
}

bool
getVarint(std::istream &in, uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        uint8_t b = 0;
        in.read(reinterpret_cast<char *>(&b), 1);
        if (!in.good())
            return false;
        v |= uint64_t(b & 0x7f) << shift;
        if (!(b & 0x80))
            return true;
    }
    return false; // over-long encoding
}

} // namespace

WaveWriter::WaveWriter(std::ostream &out) : out_(out) {}

size_t
WaveWriter::addSignal(const std::string &name, uint32_t width)
{
    if (headerDone_)
        fatal("WaveWriter: cannot add signals after the header");
    Signal s;
    s.name = name;
    s.width = width;
    s.last = rtl::BitVec(width, uint64_t{0});
    signals_.push_back(std::move(s));
    return signals_.size() - 1;
}

void
WaveWriter::writeHeader(const std::string &design, uint64_t designHash)
{
    put(out_, kWaveMagic);
    put(out_, kWaveVersion);
    put(out_, designHash);
    put(out_, static_cast<uint32_t>(design.size()));
    out_.write(design.data(),
               static_cast<std::streamsize>(design.size()));
    put(out_, static_cast<uint32_t>(signals_.size()));
    for (const Signal &s : signals_) {
        put(out_, s.width);
        put(out_, static_cast<uint32_t>(s.name.size()));
        out_.write(s.name.data(),
                   static_cast<std::streamsize>(s.name.size()));
    }
    headerDone_ = true;
}

void
WaveWriter::sample(uint64_t time, const std::vector<rtl::BitVec> &values)
{
    if (!headerDone_)
        fatal("WaveWriter: sample() before writeHeader()");
    if (values.size() != signals_.size())
        fatal("WaveWriter: %zu values for %zu signals", values.size(),
              signals_.size());

    std::vector<size_t> changed;
    for (size_t i = 0; i < signals_.size(); ++i)
        if (first_ || values[i] != signals_[i].last)
            changed.push_back(i);
    if (changed.empty())
        return;

    BitWriter w;
    w.writeUEG(first_ ? time : time - lastTime_);
    w.writeUEG(changed.size());
    size_t prev = 0;
    bool firstChange = true;
    uint64_t xorWords[rtl::wordsFor(rtl::kMaxWidth)];
    for (size_t i : changed) {
        w.writeUEG(firstChange ? i : i - prev - 1);
        firstChange = false;
        prev = i;
        Signal &s = signals_[i];
        uint32_t n = rtl::wordsFor(s.width);
        for (uint32_t j = 0; j < n; ++j)
            xorWords[j] = values[i].word(j) ^ s.last.word(j);
        codeWords(w, xorWords, n);
        s.last = values[i];
    }
    w.alignByte();

    putVarint(out_, w.bytes().size());
    out_.write(reinterpret_cast<const char *>(w.bytes().data()),
               static_cast<std::streamsize>(w.bytes().size()));
    lastTime_ = time;
    first_ = false;
}

uint64_t
waveToVcd(std::istream &in, std::ostream &out)
{
    uint64_t magic = 0, hash = 0;
    uint32_t version = 0, nameLen = 0, numSignals = 0;
    if (!get(in, magic) || magic != kWaveMagic)
        fatal("wave: not a parendi wave stream (bad magic)");
    if (!get(in, version) || version != kWaveVersion)
        fatal("wave: unsupported wave version %u", version);
    if (!get(in, hash) || !get(in, nameLen))
        fatal("wave: truncated wave header");
    std::string design(nameLen, '\0');
    in.read(design.data(), nameLen);
    if (!in.good() || !get(in, numSignals))
        fatal("wave: truncated wave header");

    rtl::VcdWriter vcd(out);
    std::vector<uint32_t> widths;
    std::vector<rtl::BitVec> values;
    for (uint32_t i = 0; i < numSignals; ++i) {
        uint32_t width = 0, len = 0;
        if (!get(in, width) || !get(in, len))
            fatal("wave: truncated signal table");
        std::string name(len, '\0');
        in.read(name.data(), len);
        if (!in.good())
            fatal("wave: truncated signal table");
        vcd.addSignal(name, width);
        widths.push_back(width);
        values.emplace_back(width, uint64_t{0});
    }
    vcd.writeHeader(design);

    uint64_t time = 0;
    uint64_t samples = 0;
    uint64_t words[rtl::wordsFor(rtl::kMaxWidth)];
    for (;;) {
        if (in.peek() == std::char_traits<char>::eof())
            break; // clean end of stream
        uint64_t payloadBytes = 0;
        if (!getVarint(in, payloadBytes))
            fatal("wave: truncated sample record");
        if (payloadBytes > (uint64_t{1} << 30))
            fatal("wave: corrupt sample record (absurd payload size)");
        std::vector<uint8_t> payload(payloadBytes);
        in.read(reinterpret_cast<char *>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
        if (!in.good() && payloadBytes != 0)
            fatal("wave: truncated sample payload");

        BitReader r(payload.data(), payload.size());
        time = (samples == 0 ? r.readUEG() : time + r.readUEG());
        uint64_t numChanges = r.readUEG();
        size_t id = 0;
        for (uint64_t c = 0; c < numChanges; ++c) {
            uint64_t gap = r.readUEG();
            id = (c == 0 ? gap : id + gap + 1);
            if (id >= values.size() || r.overran())
                fatal("wave: corrupt sample record");
            uint32_t n = rtl::wordsFor(widths[id]);
            decodeWords(r, words, n);
            for (uint32_t j = 0; j < n; ++j)
                words[j] ^= values[id].word(j);
            values[id].assign(widths[id], words, n);
        }
        if (r.overran())
            fatal("wave: corrupt sample record");
        vcd.sample(time, values);
        ++samples;
    }
    return samples;
}

} // namespace parendi::ckpt
