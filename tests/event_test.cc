/**
 * @file
 * Tests for the event-driven interpreter: exact agreement with the
 * full-cycle interpreter on every design (differential testing of
 * two independently derived evaluation strategies), plus activity
 * accounting sanity — the basis of the paper's §3 argument.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/session.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/event.hh"
#include "rtl/interp.hh"

using namespace parendi;
using namespace parendi::rtl;
using parendi::testing::randomNetlist;

namespace {

void
expectSameState(EventInterpreter &ev, Interpreter &full)
{
    const Netlist &nl = full.netlist();
    for (RegId r = 0; r < nl.numRegisters(); ++r)
        ASSERT_EQ(ev.peekRegister(nl.reg(r).name),
                  full.peekRegister(nl.reg(r).name))
            << nl.reg(r).name;
    for (PortId o = 0; o < nl.numOutputs(); ++o)
        ASSERT_EQ(ev.peek(nl.output(o).name),
                  full.peek(nl.output(o).name));
}

} // namespace

TEST(Event, CounterAgrees)
{
    Design d("c");
    auto cnt = d.reg("cnt", 32, 0);
    d.next(cnt, d.read(cnt) + d.lit(32, 1));
    d.output("v", d.read(cnt));
    Netlist nl = d.finish();
    Interpreter full(nl);
    EventInterpreter ev(std::move(nl));
    ev.step(100);
    full.step(100);
    expectSameState(ev, full);
}

TEST(Event, QuietDesignDoesAlmostNoWork)
{
    // A register that stops changing: after it saturates, activity
    // must drop to ~zero.
    Design d("sat");
    auto r = d.reg("r", 8, 250);
    Wire v = d.read(r);
    Wire top = v == d.lit(8, 255);
    d.next(r, d.mux(top, v, v + d.lit(8, 1)));
    d.output("o", v * v);
    Netlist nl = d.finish();
    EventInterpreter ev(std::move(nl));
    ev.step(5); // reaches 255
    uint64_t active_phase = ev.evaluatedNodes();
    ev.step(100); // saturated: nothing changes
    EXPECT_EQ(ev.evaluatedNodes(), active_phase);
    EXPECT_LT(ev.activityFactor(), 0.2);
}

TEST(Event, BusyDesignApproachesFullActivity)
{
    // A xorshift PRNG flips most bits every cycle.
    Netlist nl = designs::makePrngBank(4);
    EventInterpreter ev(std::move(nl));
    ev.step(50);
    EXPECT_GT(ev.activityFactor(), 0.8);
}

struct EventDesignCase
{
    const char *name;
    Netlist (*make)();
};

class EventDesigns : public ::testing::TestWithParam<EventDesignCase>
{
};

TEST_P(EventDesigns, AgreesWithFullCycle)
{
    Netlist nl = GetParam().make();
    Interpreter full(nl);
    EventInterpreter ev(std::move(nl));
    for (int chunk = 0; chunk < 4; ++chunk) {
        ev.step(60);
        full.step(60);
        expectSameState(ev, full);
    }
    EXPECT_GT(ev.activityFactor(), 0.0);
    EXPECT_LE(ev.activityFactor(), 1.0);
}

TEST_P(EventDesigns, CheckpointsRoundTripThroughInterp)
{
    // The witness imports any engine's v2 checkpoint (importArch
    // settles its change-detection shadow, so selective propagation
    // resumes from the imported values) and exports its own.
    Netlist nl = GetParam().make();
    Interpreter full(nl);
    EventInterpreter ev(std::move(nl));
    full.step(90);
    std::stringstream snap;
    core::saveCheckpoint(full, snap);
    core::restoreCheckpoint(ev, snap);
    EXPECT_EQ(ev.cycles(), 90u);
    for (int chunk = 0; chunk < 2; ++chunk) {
        ev.step(60);
        full.step(60);
        expectSameState(ev, full);
    }

    std::stringstream back;
    core::saveCheckpoint(ev, back);
    Interpreter again(full.netlist());
    core::restoreCheckpoint(again, back);
    EXPECT_EQ(again.cycles(), full.cycles());
    ev.step(30);
    again.step(30);
    expectSameState(ev, again);
}

namespace {

Netlist makePicoE()
{
    return designs::makePico(designs::defaultCoreConfig());
}
Netlist makeRocketE()
{
    return designs::makeRocket(designs::defaultCoreConfig());
}
Netlist makeBtcE() { return designs::makeBitcoin({1, 16}); }
Netlist makeMcE() { return designs::makeMc({4, 16, 100 << 16,
                                            105 << 16}); }
Netlist makeVtaE() { return designs::makeVta({2, 2, 8}); }
Netlist makeSr2E() { return designs::makeSr(2); }

const EventDesignCase kEventCases[] = {
    {"pico", makePicoE},   {"rocket", makeRocketE},
    {"bitcoin", makeBtcE}, {"mc", makeMcE},
    {"vta", makeVtaE},     {"sr2", makeSr2E},
};

std::string
eventCaseName(const ::testing::TestParamInfo<EventDesignCase> &info)
{
    return info.param.name;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Designs, EventDesigns,
                         ::testing::ValuesIn(kEventCases),
                         eventCaseName);

class EventFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EventFuzz, RandomNetlistsAgree)
{
    Netlist nl = randomNetlist(GetParam());
    Interpreter full(nl);
    EventInterpreter ev(std::move(nl));
    ev.step(50);
    full.step(50);
    expectSameState(ev, full);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventFuzz,
                         ::testing::Range<uint64_t>(1, 16));
