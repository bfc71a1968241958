/**
 * @file
 * The host access contract (core::SimEngine): every engine resolves
 * names, widths and lanes in one shared layer, so a bad name, a
 * width mismatch or an out-of-range lane fails with the same
 * FatalError on every engine — a journaled per-lane poke can never
 * land silently in the wrong lane.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/journal.hh"
#include "core/engine.hh"
#include "rtl/dsl.hh"
#include "rtl/event.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"

using namespace parendi;
using rtl::BitVec;
using rtl::Netlist;

namespace {

/** An 8-bit input, register, memory and output. */
Netlist
tinyDesign()
{
    rtl::Design d("tiny");
    rtl::Wire a = d.input("a", 8);
    auto r = d.reg("r", 8, 1);
    rtl::MemId m = d.memory("m", 8, 4);
    d.memWrite(m, d.read(r).slice(0, 2), a, d.lit(1, 1));
    d.next(r, d.read(r) + a);
    d.output("o", d.read(r) ^ d.memRead(m, a.slice(0, 2)));
    return d.finish();
}

std::unique_ptr<core::SimEngine>
build(const std::string &kind)
{
    if (kind == "event")
        return std::make_unique<rtl::EventInterpreter>(tinyDesign());
    core::EngineOptions opt;
    opt.kind = core::parseEngineKind(kind);
    opt.threads = 2;
    return core::makeEngine(tinyDesign(), opt);
}

/** The FatalError message @p f throws, or a marker when it returns. */
std::string
fatalMessage(const std::function<void()> &f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "<no FatalError>";
}

/** Every misuse the shared layer rejects, by case name. */
std::vector<std::pair<std::string, std::string>>
misuseMessages(core::SimEngine &e)
{
    return {
        {"pokeLane 5",
         fatalMessage([&] { e.pokeLane("a", BitVec(8, 1), 5); })},
        {"pokeLane u64 5",
         fatalMessage([&] { e.pokeLane("a", uint64_t{1}, 5); })},
        {"peekLane 7", fatalMessage([&] { e.peekLane("o", 7); })},
        {"peekRegisterLane 9",
         fatalMessage([&] { e.peekRegisterLane("r", 9); })},
        {"peekMemoryLane 9",
         fatalMessage([&] { e.peekMemoryLane("m", 0, 9); })},
        {"4-bit poke", fatalMessage([&] { e.poke("a", BitVec(4, 1)); })},
        {"memory index", fatalMessage([&] { e.peekMemory("m", 4); })},
        {"unknown input", fatalMessage([&] { e.poke("nope", 1); })},
        {"unknown output", fatalMessage([&] { e.peek("nope"); })},
        {"unknown register",
         fatalMessage([&] { e.peekRegister("nope"); })},
        {"unknown memory",
         fatalMessage([&] { e.peekMemory("nope", 0); })},
    };
}

} // namespace

TEST(AccessContract, EveryEngineRejectsMisuseWithOneMessage)
{
    auto interp = build("interp");
    auto want = misuseMessages(*interp);
    EXPECT_EQ(want[0].second,
              "pokeLane: lane 5 out of range (replicas=1)");
    EXPECT_EQ(want[5].second, "poke a: width 4 != port width 8");
    for (const auto &[what, msg] : want)
        EXPECT_NE(msg, "<no FatalError>") << what;

    for (const char *kind : {"cgen", "par", "ipu", "event"}) {
        auto e = build(kind);
        ASSERT_STREQ(e->engineName(), kind);
        auto got = misuseMessages(*e);
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i].second, want[i].second)
                << kind << ": " << want[i].first;
        // Nothing above touched the state: the engine still agrees
        // with the reference.
        e->poke("a", uint64_t{3});
        interp->poke("a", uint64_t{3});
        e->step(5);
        interp->step(5);
        EXPECT_EQ(e->peek("o"), interp->peek("o")) << kind;
        interp->reset();
    }
}

TEST(AccessContract, AllLanesBroadcastsOnAGang)
{
    rtl::Interpreter gang(tinyDesign(), rtl::LowerOptions{}, 4);
    gang.pokeLane("a", uint64_t{5}, 2);
    gang.step(1);
    // r: 1 + 5 in lane 2, 1 + 0 elsewhere; a kAllLanes poke then
    // reaches every lane without touching the per-lane registers.
    gang.pokeLane("a", BitVec(8, 9), core::kAllLanes);
    gang.step(1);
    for (uint32_t l = 0; l < 4; ++l)
        EXPECT_EQ(gang.peekRegisterLane("r", l).toUint64(),
                  l == 2 ? 15u : 10u)
            << "lane " << l;
    // The scalar poke is the same broadcast.
    gang.poke("a", uint64_t{2});
    gang.step(1);
    for (uint32_t l = 0; l < 4; ++l)
        EXPECT_EQ(gang.peekRegisterLane("r", l).toUint64(),
                  l == 2 ? 17u : 12u)
            << "lane " << l;
    EXPECT_THROW(gang.peekLane("o", core::kAllLanes), FatalError);
}

TEST(AccessContract, JournaledLanePokeFailsOnANarrowerEngine)
{
    // A journal recorded on a 4-lane gang replays into a scalar engine
    // only up to its first lane-3 poke, which must fail instead of
    // landing in lane 0.
    std::stringstream journal;
    {
        rtl::Interpreter gang(tinyDesign(), rtl::LowerOptions{}, 4);
        ckpt::JournalWriter w(journal, gang.netlist());
        w.recordStep(2);
        w.recordPoke("a", BitVec(8, 7), 3);
        w.recordStep(2);
    }
    auto event = build("event");
    EXPECT_THROW(ckpt::replayJournal(journal, *event), FatalError);
    EXPECT_EQ(event->cycles(), 2u);
}
