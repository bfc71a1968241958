/**
 * @file
 * Tests for the VCD waveform writer: header structure, delta
 * encoding, identifier generation, and the interpreter tracer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "rtl/dsl.hh"
#include "rtl/interp.hh"
#include "rtl/vcd.hh"
#include "util/logging.hh"

using namespace parendi;
using namespace parendi::rtl;

TEST(Vcd, HeaderDeclaresSignals)
{
    std::ostringstream out;
    VcdWriter w(out);
    w.addSignal("clk_counter", 8);
    w.addSignal("flag", 1);
    w.writeHeader("mydesign");
    std::string s = out.str();
    EXPECT_NE(s.find("$timescale"), std::string::npos);
    EXPECT_NE(s.find("$scope module mydesign"), std::string::npos);
    EXPECT_NE(s.find("$var wire 8 ! clk_counter [7:0] $end"),
              std::string::npos);
    EXPECT_NE(s.find("$var wire 1 \" flag $end"), std::string::npos);
    EXPECT_NE(s.find("$enddefinitions"), std::string::npos);
}

TEST(Vcd, DeltasOnly)
{
    std::ostringstream out;
    VcdWriter w(out);
    w.addSignal("a", 4);
    w.addSignal("b", 1);
    w.writeHeader("t");
    size_t header_len = out.str().size();
    w.sample(0, {BitVec(4, 5), BitVec(1, 0)});
    w.sample(1, {BitVec(4, 5), BitVec(1, 1)}); // only b changes
    w.sample(2, {BitVec(4, 5), BitVec(1, 1)}); // nothing changes
    std::string body = out.str().substr(header_len);
    EXPECT_NE(body.find("#0\nb101 !\n0\""), std::string::npos);
    EXPECT_NE(body.find("#1\n1\""), std::string::npos);
    // Timestep 2 emitted nothing at all.
    EXPECT_EQ(body.find("#2"), std::string::npos);
    // 'a' dumped exactly once.
    size_t first = body.find("b101 !");
    EXPECT_EQ(body.find("b101 !", first + 1), std::string::npos);
}

TEST(Vcd, ErrorsOnMisuse)
{
    std::ostringstream out;
    VcdWriter w(out);
    w.addSignal("a", 4);
    EXPECT_THROW(w.sample(0, {BitVec(4, 0)}), FatalError);
    w.writeHeader("t");
    EXPECT_THROW(w.addSignal("late", 1), FatalError);
    EXPECT_THROW(w.sample(0, {}), FatalError);
}

TEST(Vcd, ManySignalIdsAreUnique)
{
    std::ostringstream out;
    VcdWriter w(out);
    for (int i = 0; i < 200; ++i)
        w.addSignal("s" + std::to_string(i), 1);
    w.writeHeader("wide");
    // All 200 single-bit dumps must be distinguishable: dump all 1s
    // and count lines.
    std::vector<BitVec> vals(200, BitVec(1, 1));
    size_t before = out.str().size();
    w.sample(0, vals);
    std::string body = out.str().substr(before);
    size_t lines = std::count(body.begin(), body.end(), '\n');
    EXPECT_EQ(lines, 201u); // #0 plus one line per signal
}

TEST(Vcd, TracerFollowsInterpreter)
{
    Design d("trace");
    auto cnt = d.reg("cnt", 4, 0);
    d.next(cnt, d.read(cnt) + d.lit(4, 1));
    d.output("v", d.read(cnt));
    Interpreter sim(d.finish());

    std::ostringstream out;
    VcdWriter vcd(out);
    EngineTracer tracer(sim, vcd);
    tracer.step(3);
    std::string s = out.str();
    // Signals cnt and v both declared.
    EXPECT_NE(s.find("cnt"), std::string::npos);
    EXPECT_NE(s.find("$var wire 4"), std::string::npos);
    // Time 0 (initial) through 3 present.
    EXPECT_NE(s.find("#0"), std::string::npos);
    EXPECT_NE(s.find("#1"), std::string::npos);
    EXPECT_NE(s.find("#3"), std::string::npos);
    // Counter value 3 = b11 dumped at the end.
    EXPECT_NE(s.find("b11"), std::string::npos);
    EXPECT_EQ(sim.cycles(), 3u);
}
