/**
 * @file
 * Compressed waveform tests (src/ckpt/wave.hh): wave2vcd must expand
 * to a VCD byte-identical to what the EngineTracer writes on the same
 * run, the stream must beat the raw VCD by the documented margin, and
 * corrupt streams must be rejected.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ckpt/wave.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/interp.hh"
#include "rtl/vcd.hh"
#include "util/logging.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

/** Run @p cycles on two engines of @p nl — one VCD-traced, one
 *  wave-traced — and return {vcd text, wave bytes}. */
std::pair<std::string, std::string>
traceBoth(const Netlist &nl, size_t cycles)
{
    std::stringstream vcd;
    {
        Interpreter sim(nl);
        rtl::VcdWriter sink(vcd);
        rtl::EngineTracer tracer(sim, sink);
        tracer.step(cycles);
    }
    std::stringstream wave;
    {
        Interpreter sim(nl);
        ckpt::WaveWriter sink(wave);
        rtl::EngineTracer tracer(sim, sink);
        tracer.step(cycles);
    }
    return {vcd.str(), wave.str()};
}

} // namespace

TEST(Wave, Wave2VcdIsByteIdentical)
{
    for (uint64_t seed : {3u, 17u}) {
        Netlist nl = randomNetlist(seed);
        auto [vcd, wave] = traceBoth(nl, 150);
        std::stringstream in(wave), out;
        uint64_t samples = ckpt::waveToVcd(in, out);
        EXPECT_GT(samples, 0u);
        EXPECT_EQ(out.str(), vcd) << "seed " << seed;
    }
}

TEST(Wave, Wave2VcdIsByteIdenticalOnPico)
{
    Netlist nl = designs::makePico(designs::defaultCoreConfig());
    auto [vcd, wave] = traceBoth(nl, 400);
    std::stringstream in(wave), out;
    uint64_t samples = ckpt::waveToVcd(in, out);
    EXPECT_EQ(samples, 401u); // time 0 + one per cycle
    EXPECT_EQ(out.str(), vcd);
}

TEST(Wave, CompressedAtMostQuarterOfVcdOnPico)
{
    // Acceptance: the compressed wave is at most 25% of the raw VCD
    // bytes on pico.
    Netlist nl = designs::makePico(designs::defaultCoreConfig());
    auto [vcd, wave] = traceBoth(nl, 1000);
    EXPECT_LE(wave.size() * 4, vcd.size())
        << "wave " << wave.size() << "B vs vcd " << vcd.size() << "B";
}

TEST(Wave, StillSignalsCostNothing)
{
    // A design stepped zero times records exactly one sample (the
    // dump-all at time 0); a second identical sample writes nothing.
    std::stringstream out;
    ckpt::WaveWriter w(out);
    w.addSignal("a", 8);
    w.addSignal("b", 64);
    w.writeHeader("still", 0x1234);
    std::vector<rtl::BitVec> vals = {rtl::BitVec(8, uint64_t{5}),
                                     rtl::BitVec(64, uint64_t{7})};
    w.sample(0, vals);
    size_t afterFirst = out.str().size();
    w.sample(1, vals); // no changes: nothing written
    EXPECT_EQ(out.str().size(), afterFirst);
    vals[0] = rtl::BitVec(8, uint64_t{6});
    w.sample(2, vals); // one real change
    EXPECT_GT(out.str().size(), afterFirst);
}

TEST(Wave, RejectsCorruptAndTruncatedStreams)
{
    Netlist nl = designs::makeSr(2);
    auto [vcd, wave] = traceBoth(nl, 50);
    (void)vcd;

    // Bad magic.
    {
        std::string bad = wave;
        bad[0] ^= 0xff;
        std::stringstream in(bad), out;
        EXPECT_THROW(ckpt::waveToVcd(in, out), FatalError);
    }
    // Truncated mid-sample: the final sample's payload is cut short.
    {
        std::stringstream in(wave.substr(0, wave.size() - 2)), out;
        EXPECT_THROW(ckpt::waveToVcd(in, out), FatalError);
    }
    // Corrupt a payload byte: the decoder must fail loudly (a flipped
    // signal-id gap walks off the signal table) or, at worst, decode
    // different values — never crash. We flip a byte in the first
    // sample's payload, which corrupts an id gap or value with high
    // probability; accept either a FatalError or a clean (but
    // different) VCD.
    {
        std::string bad = wave;
        bad[bad.size() / 2] ^= 0x3c;
        std::stringstream in(bad), out;
        try {
            ckpt::waveToVcd(in, out);
        } catch (const FatalError &) {
            // expected path
        }
    }
}
