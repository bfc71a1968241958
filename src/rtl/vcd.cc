#include "rtl/vcd.hh"

#include "util/logging.hh"

namespace parendi::rtl {

VcdWriter::VcdWriter(std::ostream &o) : out(o) {}

size_t
VcdWriter::addSignal(const std::string &name, uint32_t width)
{
    if (headerDone)
        fatal("VcdWriter: cannot add signals after the header");
    Signal s;
    s.name = name;
    s.width = static_cast<uint16_t>(width);
    s.id = idFor(signals.size());
    s.last = BitVec(width, uint64_t{0});
    signals.push_back(std::move(s));
    return signals.size() - 1;
}

std::string
VcdWriter::idFor(size_t index) const
{
    // Printable identifier code, base 94 starting at '!'.
    std::string id;
    do {
        id.push_back(static_cast<char>('!' + index % 94));
        index /= 94;
    } while (index);
    return id;
}

void
VcdWriter::writeHeader(const std::string &design, uint64_t)
{
    out << "$date generated by parendi $end\n";
    out << "$version parendi rtl simulator $end\n";
    out << "$timescale 1ns $end\n";
    out << "$scope module " << design << " $end\n";
    for (const Signal &s : signals)
        out << "$var wire " << s.width << " " << s.id << " " << s.name
            << (s.width > 1
                    ? " [" + std::to_string(s.width - 1) + ":0]"
                    : "")
            << " $end\n";
    out << "$upscope $end\n";
    out << "$enddefinitions $end\n";
    headerDone = true;
}

void
VcdWriter::dumpValue(const Signal &s, const BitVec &v)
{
    if (s.width == 1) {
        out << (v.bit(0) ? '1' : '0') << s.id << "\n";
        return;
    }
    out << 'b';
    bool leading = true;
    for (uint32_t i = s.width; i-- > 0;) {
        bool bit = v.bit(i);
        if (leading && !bit && i > 0)
            continue; // VCD allows trimmed leading zeros
        leading = false;
        out << (bit ? '1' : '0');
    }
    if (leading)
        out << '0';
    out << ' ' << s.id << "\n";
}

void
VcdWriter::sample(uint64_t time, const std::vector<BitVec> &values)
{
    if (!headerDone)
        fatal("VcdWriter: sample() before writeHeader()");
    if (values.size() != signals.size())
        fatal("VcdWriter: %zu values for %zu signals", values.size(),
              signals.size());
    bool any = false;
    for (size_t i = 0; i < signals.size(); ++i) {
        Signal &s = signals[i];
        if (s.dumped && values[i] == s.last)
            continue;
        if (!any) {
            out << '#' << time << "\n";
            any = true;
        }
        dumpValue(s, values[i]);
        s.last = values[i];
        s.dumped = true;
    }
}

EngineTracer::EngineTracer(core::SimEngine &s, TraceSink &k)
    : sim(s), sink(k)
{
    const Netlist &nl = sim.netlist();
    for (RegId r = 0; r < nl.numRegisters(); ++r)
        sink.addSignal(nl.reg(r).name, nl.reg(r).width);
    for (PortId o = 0; o < nl.numOutputs(); ++o)
        sink.addSignal(nl.output(o).name, nl.output(o).width);
    sink.writeHeader(nl.name(), netlistHash(nl));
    values.resize(nl.numRegisters() + nl.numOutputs());
    sampleNow(); // time 0: initial values
}

void
EngineTracer::sampleNow()
{
    const Netlist &nl = sim.netlist();
    size_t i = 0;
    for (RegId r = 0; r < nl.numRegisters(); ++r)
        sim.readRegister(r, 0, values[i++]);
    for (PortId o = 0; o < nl.numOutputs(); ++o)
        sim.readOutput(o, 0, values[i++]);
    sink.sample(sim.cycles(), values);
}

void
EngineTracer::step(size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        sim.step();
        sampleNow();
    }
}

} // namespace parendi::rtl
