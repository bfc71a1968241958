/**
 * @file
 * Activity-guarded evaluation tests. The dirty-bit sweep must be an
 * invisible optimization: every engine with activity on must stay
 * bit-identical to the always-eval baseline under random pokes,
 * resets and mid-run checkpoint/restore — the classic failure mode is
 * a stale skip, where a group whose inputs DID change is not re-run
 * and downstream logic keeps a value from a previous cycle. The
 * directed hazard tests aim straight at that: registers that return
 * to an earlier value (A->B->A, so only the memcmp in the latch can
 * tell the second edge happened) and inputs re-poked with both equal
 * and distinct values. The telemetry loop (CostProfile persistence,
 * measured-cost repartitioning, in-run rebalance) is covered at the
 * engine API level.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "obs/costprofile.hh"
#include "random_netlist.hh"
#include "rtl/cgen.hh"
#include "rtl/dsl.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "x86/parallel.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using parendi::testing::RandomNetlistConfig;
using rtl::BitVec;
using rtl::CgenInterpreter;
using rtl::Interpreter;
using rtl::Netlist;
using rtl::ParallelInterpreter;

namespace {

/** Random netlists with inputs so the fuzz can poke, and extra
 *  memories so commit-port seeding is exercised. */
RandomNetlistConfig
fuzzConfig()
{
    RandomNetlistConfig cfg;
    cfg.registers = 16;
    cfg.memories = 4;
    cfg.combNodes = 150;
    cfg.inputs = 3;
    return cfg;
}

void
compareAllState(core::SimEngine &sim, core::SimEngine &ref,
                const Netlist &nl, const char *what)
{
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        const std::string &name = nl.reg(r).name;
        ASSERT_EQ(sim.peekRegister(name), ref.peekRegister(name))
            << what << ": reg " << name;
    }
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
        const std::string &name = nl.output(o).name;
        ASSERT_EQ(sim.peek(name), ref.peek(name))
            << what << ": output " << name;
    }
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m) {
        const rtl::Memory &mem = nl.mem(m);
        for (uint32_t e = 0; e < mem.depth; ++e)
            ASSERT_EQ(sim.peekMemory(mem.name, e),
                      ref.peekMemory(mem.name, e))
                << what << ": " << mem.name << "[" << e << "]";
    }
}

/**
 * Drive @p act (activity on) and @p ref (always-eval) through the
 * same stimulus: random pokes — deliberately re-poking the same value
 * sometimes, so unchanged-input skips are exercised alongside changed
 * ones — short step bursts, a mid-run reset and a checkpoint/restore
 * round-trip on the activity engine, comparing all state after every
 * segment.
 */
void
differentialRun(core::SimEngine &act, core::SimEngine &ref,
                const Netlist &nl, uint64_t seed, const char *what)
{
    Rng rng(seed ^ 0xac71f17e5ull);
    for (int segment = 0; segment < 12; ++segment) {
        // Poke a random subset of inputs; half the time repeat the
        // last value (an unchanged poke must not dirty the readers,
        // and must not corrupt anything either).
        for (rtl::PortId i = 0; i < nl.numInputs(); ++i) {
            if (rng.below(3) == 0)
                continue;
            uint64_t v = rng.below(2) ? rng.next() : 0;
            BitVec bv(nl.input(i).width, v);
            act.poke(nl.input(i).name, bv);
            ref.poke(nl.input(i).name, bv);
        }
        size_t n = 1 + rng.below(7);
        act.step(n);
        ref.step(n);
        compareAllState(act, ref, nl, what);

        if (segment == 4) {
            // Checkpoint/restore mid-run: the restored state must
            // conservatively re-dirty everything (a stale dirty map
            // from before the restore would skip groups whose inputs
            // changed across the restore).
            std::stringstream ckpt;
            core::saveCheckpoint(act, ckpt);
            act.step(3);
            core::restoreCheckpoint(act, ckpt);
            act.step(2);
            ref.step(2);
            compareAllState(act, ref, nl, what);
        }
        if (segment == 8) {
            act.reset();
            ref.reset();
            compareAllState(act, ref, nl, what);
        }
    }
}

} // namespace

class ActivityFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ActivityFuzz, InterpMatchesAlwaysEval)
{
    Netlist nl = randomNetlist(GetParam(), fuzzConfig());
    Interpreter ref(nl);
    Interpreter act(nl);
    ASSERT_TRUE(act.setActivity(true));
    ASSERT_TRUE(act.activityEnabled());
    ASSERT_FALSE(ref.activityEnabled());
    differentialRun(act, ref, nl, GetParam(), "interp");
}

TEST_P(ActivityFuzz, CgenMatchesAlwaysEval)
{
    uint64_t seed = GetParam();
    if (seed % 2) // subsample: the compile is the slow part
        return;
    Netlist nl = randomNetlist(seed, fuzzConfig());
    Interpreter ref(nl);
    CgenInterpreter act(nl);
    ASSERT_TRUE(act.setActivity(true));
    differentialRun(act, ref, nl, seed, "cgen");
}

TEST_P(ActivityFuzz, ParMatchesAlwaysEval)
{
    uint64_t seed = GetParam();
    Netlist nl = randomNetlist(seed, fuzzConfig());
    for (uint32_t threads : {1u, 8u}) {
        Interpreter ref(nl);
        // Pin real shards/workers: the default clamp to hardware
        // concurrency would collapse this to one shard on small CI
        // hosts, and cross-shard exchange seeding is the part under
        // test.
        rtl::ParConfig pcfg;
        pcfg.maxWorkers = threads;
        ParallelInterpreter act(nl, threads, rtl::LowerOptions{},
                                pcfg);
        ASSERT_TRUE(act.setActivity(true));
        differentialRun(act, ref, nl, seed ^ threads, "par");
    }
}

TEST_P(ActivityFuzz, GangMatchesAlwaysEval)
{
    // Gang semantics: one dirty map guards all lanes, so a group is
    // live when ANY lane's inputs changed. Drive distinct per-lane
    // stimuli and compare every lane against an always-eval gang.
    uint64_t seed = GetParam();
    if (seed % 2 == 0) // subsample for balance with the cgen half
        return;
    constexpr uint32_t R = 8;
    Netlist nl = randomNetlist(seed, fuzzConfig());
    Interpreter ref(nl, rtl::LowerOptions{}, R);
    Interpreter act(nl, rtl::LowerOptions{}, R);
    ASSERT_TRUE(act.setActivity(true));
    Rng rng(seed * 77 + 5);
    for (int segment = 0; segment < 8; ++segment) {
        for (rtl::PortId i = 0; i < nl.numInputs(); ++i) {
            // Mix broadcast pokes with per-lane ones, and leave some
            // lanes unchanged so lane-OR'd dirtiness is exercised.
            if (rng.below(4) == 0) {
                BitVec bv(nl.input(i).width, rng.next());
                act.poke(nl.input(i).name, bv);
                ref.poke(nl.input(i).name, bv);
                continue;
            }
            for (uint32_t l = 0; l < R; ++l) {
                if (rng.below(2))
                    continue;
                BitVec bv(nl.input(i).width, rng.next());
                act.pokeLane(nl.input(i).name, bv, l);
                ref.pokeLane(nl.input(i).name, bv, l);
            }
        }
        size_t n = 1 + rng.below(5);
        act.step(n);
        ref.step(n);
        for (uint32_t l = 0; l < R; ++l) {
            for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
                const std::string &name = nl.reg(r).name;
                ASSERT_EQ(act.peekRegisterLane(name, l),
                          ref.peekRegisterLane(name, l))
                    << "gang lane " << l << " reg " << name;
            }
            for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
                const std::string &name = nl.output(o).name;
                ASSERT_EQ(act.peekLane(name, l),
                          ref.peekLane(name, l))
                    << "gang lane " << l << " output " << name;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActivityFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

namespace {

/**
 * The stale-skip hazard design: a register `r` latches the input, a
 * heavy combinational cone of `r` feeds the output. The A->B->A
 * stimulus makes the second edge visible ONLY to the latch's value
 * compare — after it, `r` holds exactly the value it had two cycles
 * earlier, so an engine whose dirtiness tracked "r was written" vs
 * "r changed" incorrectly would serve a stale cone output.
 */
Netlist
hazardDesign()
{
    using namespace rtl;
    Design d("hazard");
    Wire in = d.input("in", 32);
    RegId r = d.reg("r", 32, 0);
    d.next(r, in);
    Wire x = d.read(r);
    for (int i = 0; i < 6; ++i) {
        x = x ^ x.shl(13);
        x = x ^ x.shr(17);
        x = x * d.lit(32, 0x9e3779b9u + 2 * i);
    }
    d.output("digest", x);
    d.output("raw", d.read(r));
    return d.finish();
}

} // namespace

TEST(ActivityHazard, AbaRegisterReDirtiesReaders)
{
    Netlist nl = hazardDesign();
    Interpreter ref(nl);
    Interpreter act(nl);
    ASSERT_TRUE(act.setActivity(true));

    auto both = [&](uint64_t v, size_t n) {
        act.poke("in", v);
        ref.poke("in", v);
        act.step(n);
        ref.step(n);
        ASSERT_EQ(act.peek("digest"), ref.peek("digest"))
            << "after poke " << v;
        ASSERT_EQ(act.peekRegister("r"), ref.peekRegister("r"));
    };

    both(5, 1);  // A
    both(7, 1);  // B
    both(5, 1);  // back to A: r changes 7->5, cone must re-run
    BitVec digestA = act.peek("digest");
    both(5, 3);  // steady state: skips every cycle, value must hold
    ASSERT_EQ(act.peek("digest"), digestA);
    both(7, 1);  // and wake up again
    ASSERT_NE(act.peek("digest"), digestA);
}

TEST(ActivityHazard, AbaSurvivesCgenAndPar)
{
    Netlist nl = hazardDesign();
    Interpreter ref(nl);
    CgenInterpreter cg(nl);
    ASSERT_TRUE(cg.setActivity(true));
    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    ParallelInterpreter par(nl, 4, rtl::LowerOptions{}, pcfg);
    ASSERT_TRUE(par.setActivity(true));

    const uint64_t pattern[] = {5, 7, 5, 5, 9, 5, 9, 9, 5};
    for (uint64_t v : pattern) {
        for (core::SimEngine *e : std::vector<core::SimEngine *>{
                 &ref, &cg, &par}) {
            e->poke("in", v);
            e->step(1);
        }
        ASSERT_EQ(cg.peek("digest"), ref.peek("digest")) << v;
        ASSERT_EQ(par.peek("digest"), ref.peek("digest")) << v;
    }
}

TEST(CostProfile, RoundTripAndLookup)
{
    obs::CostProfile p;
    p.set("reg:ctr", 12.5);
    p.set("reg:u0", 4096);
    p.set("out:digest", 88);
    EXPECT_DOUBLE_EQ(p.total(), 12.5 + 4096 + 88);
    EXPECT_DOUBLE_EQ(p.lookup("reg:u0", 1.0), 4096);
    EXPECT_DOUBLE_EQ(p.lookup("reg:never-seen", 7.0), 7.0);

    std::string path = ::testing::TempDir() + "activity_cp.txt";
    ASSERT_TRUE(p.save(path));
    obs::CostProfile q;
    ASSERT_TRUE(q.load(path));
    EXPECT_EQ(q.size(), p.size());
    EXPECT_DOUBLE_EQ(q.lookup("reg:ctr", 0), 12.5);
    EXPECT_DOUBLE_EQ(q.lookup("out:digest", 0), 88);
    std::remove(path.c_str());
}

TEST(CostProfile, LoadRejectsMissingAndMalformed)
{
    obs::CostProfile p;
    EXPECT_FALSE(p.load("/nonexistent/parendi-cost-profile.txt"));

    std::string path = ::testing::TempDir() + "activity_cp_bad.txt";
    {
        std::ofstream out(path);
        out << "# comment lines are fine\n"
            << "reg:ok 3.0\n"
            << "this-line-has-no-cost\n";
    }
    EXPECT_FALSE(p.load(path));
    std::remove(path.c_str());
}

TEST(Repartition, MeasuredCostsCloseTheLoop)
{
    // The full telemetry loop at API level: profile a run, collect
    // per-fiber measured costs, feed them to a fresh engine's
    // partitioner, and require bit-identity throughout. Keys must be
    // the stable design-name form so the profile survives
    // recompilation.
    Netlist nl = randomNetlist(11, fuzzConfig());
    Interpreter ref(nl);

    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    ParallelInterpreter prof(nl, 4, rtl::LowerOptions{}, pcfg);
    obs::ProfileOptions popt;
    popt.sampleEvery = 1; // every cycle: short runs must sample
    ASSERT_TRUE(prof.enableProfiling(popt));
    prof.step(200);
    ref.step(200);
    compareAllState(prof, ref, nl, "profiled");

    obs::CostProfile measured;
    ASSERT_TRUE(prof.collectCostProfile(measured));
    ASSERT_FALSE(measured.empty());
    bool sawReg = false, sawStable = true;
    for (const auto &[key, cost] : measured.cost) {
        EXPECT_GT(cost, 0) << key;
        if (key.rfind("reg:", 0) == 0)
            sawReg = true;
        else if (key.rfind("memw:", 0) != 0 &&
                 key.rfind("out:", 0) != 0)
            sawStable = false;
    }
    EXPECT_TRUE(sawReg);
    EXPECT_TRUE(sawStable) << "unexpected cost-profile key form";

    // Second engine partitions on the measured costs; same answers.
    rtl::ParConfig mcfg;
    mcfg.maxWorkers = 4;
    mcfg.costIn = &measured;
    ParallelInterpreter repart(nl, 4, rtl::LowerOptions{}, mcfg);
    repart.step(200);
    compareAllState(repart, ref, nl, "repartitioned");
}

TEST(Repartition, InRunRebalancePreservesState)
{
    // rebalanceNow() tears the shard set down mid-run and rebuilds it
    // on measured weights; architectural state, activity guards and
    // subsequent stepping must be unaffected.
    Netlist nl = randomNetlist(13, fuzzConfig());
    Interpreter ref(nl);

    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    ParallelInterpreter par(nl, 4, rtl::LowerOptions{}, pcfg);
    ASSERT_TRUE(par.setActivity(true));
    obs::ProfileOptions popt;
    popt.sampleEvery = 1;
    ASSERT_TRUE(par.enableProfiling(popt));

    par.step(120);
    ref.step(120);
    compareAllState(par, ref, nl, "before rebalance");

    EXPECT_EQ(par.rebalances(), 0u);
    ASSERT_TRUE(par.rebalanceNow());
    EXPECT_EQ(par.rebalances(), 1u);
    EXPECT_TRUE(par.activityEnabled());
    compareAllState(par, ref, nl, "after rebalance");

    par.step(120);
    ref.step(120);
    compareAllState(par, ref, nl, "stepping after rebalance");
}

TEST(Activity, ProbeChoosesStream)
{
    // makeEngine probes each design and keeps guards only where they
    // skip enough: always-active bitcoin and sr2 get the straight-line
    // kernels (no plan), clock-gated gated keeps the guarded ones.
    // Whichever stream it picks must match the generic interpreter.
    struct Case
    {
        const char *name;
        Netlist nl;
        bool guarded;
    };
    std::vector<Case> cases;
    cases.push_back({"bitcoin", designs::makeBitcoin(), false});
    cases.push_back({"sr2", designs::makeSr(2), false});
    cases.push_back({"gated", designs::makeGated(), true});
    // Scalar cgen, gang R=8 cgen and par@2 with native shards.
    const std::pair<core::EngineKind, uint32_t> engines[] = {
        {core::EngineKind::Cgen, 1},
        {core::EngineKind::Cgen, 8},
        {core::EngineKind::Par, 1}};
    for (const Case &c : cases) {
        for (const auto &[kind, replicas] : engines) {
            core::EngineOptions eo;
            eo.kind = kind;
            eo.threads = 2;
            eo.cgen = true;
            eo.replicas = replicas;
            auto engine = core::makeEngine(c.nl, eo);
            std::string what = std::string(c.name) + " " +
                               engine->engineName() + " R=" +
                               std::to_string(replicas);
            EXPECT_EQ(engine->activityEnabled(), c.guarded) << what;
            if (auto *cg = dynamic_cast<CgenInterpreter *>(engine.get())) {
                EXPECT_TRUE(cg->native()) << what;
                EXPECT_EQ(cg->program().activity.built, c.guarded) << what;
            }
            if (auto *par =
                    dynamic_cast<ParallelInterpreter *>(engine.get())) {
                EXPECT_TRUE(par->native()) << what;
            }

            // Every lane of the gang: the reference holds as many.
            Interpreter ref(c.nl, rtl::LowerOptions::none(), replicas);
            for (int c64 = 0; c64 < 2048 / 64; ++c64) {
                engine->step(64);
                ref.step(64);
                ASSERT_EQ(ckpt::archStateFnv(*engine),
                          ckpt::archStateFnv(ref))
                    << what << " at cycle " << engine->cycles();
            }
        }
    }
}
