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

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "designs/cores.hh"
#include "designs/designs.hh"
#include "obs/costprofile.hh"
#include "random_netlist.hh"
#include "rtl/cgen.hh"
#include "rtl/dsl.hh"
#include "rtl/eval.hh"
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

/** makeGated with @p units pipelines enabled every @p period cycles. */
designs::GatedConfig
gatedConfig(uint32_t units, uint32_t period)
{
    designs::GatedConfig cfg;
    cfg.units = units;
    cfg.period = period;
    return cfg;
}

/** @p nl lowered as the engines lower it, activity plan included. */
rtl::EvalProgram
plannedProgram(const Netlist &nl)
{
    rtl::ProgramBuilder builder(nl);
    builder.addAll();
    rtl::EvalProgram prog = builder.build();
    rtl::lowerProgram(prog);
    return prog;
}

/** Index of the instruction producing each slot of @p prog. */
std::map<uint32_t, uint32_t>
producers(const rtl::EvalProgram &prog)
{
    std::map<uint32_t, uint32_t> of;
    for (uint32_t i = 0; i < prog.instrs.size(); ++i)
        of[prog.instrs[i].dst] = i;
    return of;
}

/**
 * Each instruction's full source set, from scratch: register r is
 * source r, input j is R + j and memory k is R + I + k, and an
 * instruction reads the sources it reads directly plus its operands'.
 * Needs a topologically ordered stream.
 */
std::vector<std::vector<uint32_t>>
sourceSets(const rtl::EvalProgram &prog)
{
    const uint32_t R = prog.regs.size(), I = prog.inputs.size();
    std::map<uint32_t, uint32_t> sourceOf;
    for (uint32_t r = 0; r < R; ++r)
        sourceOf[prog.regs[r].cur] = r;
    for (uint32_t j = 0; j < I; ++j)
        sourceOf[prog.inputs[j].slot] = R + j;
    const std::map<uint32_t, uint32_t> producer = producers(prog);
    std::vector<std::vector<uint32_t>> sets(prog.instrs.size());
    for (uint32_t i = 0; i < prog.instrs.size(); ++i) {
        std::vector<uint32_t> &set = sets[i];
        uint32_t ops[4];
        int arity = rtl::evalInstrOperands(prog.instrs[i], ops);
        for (int k = 0; k < arity; ++k) {
            if (auto p = producer.find(ops[k]); p != producer.end())
                set.insert(set.end(), sets[p->second].begin(),
                           sets[p->second].end());
            else if (auto s = sourceOf.find(ops[k]); s != sourceOf.end())
                set.push_back(s->second);
        }
        if (rtl::evalReadsMemory(prog.instrs[i].op))
            set.push_back(R + I + prog.instrs[i].aux);
        std::sort(set.begin(), set.end());
        set.erase(std::unique(set.begin(), set.end()), set.end());
    }
    return sets;
}

/** The class an instruction's source set falls into: the set itself,
 *  or the empty "broad" marker past the cap (a real set is never
 *  confused with it: an empty set is within the cap). */
std::pair<bool, std::vector<uint32_t>>
classOf(const std::vector<uint32_t> &set)
{
    if (set.size() > rtl::kActivitySourceCap)
        return {true, {}};
    return {false, set};
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
    // are predicted to save enough eval work: bitcoin, sr2, pico and
    // rocket get the straight-line kernels (no plan) although guards
    // would skip up to half of their groups, the clock-gated designs
    // keep the guarded ones. Whichever stream it picks must match the
    // generic interpreter.
    struct Case
    {
        const char *name;
        Netlist nl;
        bool guarded;
    };
    std::vector<Case> cases;
    cases.push_back({"bitcoin", designs::makeBitcoin(), false});
    cases.push_back({"sr2", designs::makeSr(2), false});
    cases.push_back({"pico",
                     designs::makePico(designs::defaultCoreConfig()),
                     false});
    cases.push_back({"rocket",
                     designs::makeRocket(designs::defaultCoreConfig()),
                     false});
    cases.push_back({"gated", designs::makeGated(), true});
    cases.push_back({"gated(5,3)", designs::makeGated(gatedConfig(5, 3)),
                     true});
    cases.push_back({"gated16", designs::makeGated(gatedConfig(16, 16)),
                     true});
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

TEST(ActivityPlan, SourceClassGroupsKeepTheStreamTopological)
{
    // The plan reorders the stream by source class; every operand's
    // producer must still come before its reader, the groups must tile
    // the stream, and each group must be exactly one class (the broad
    // one included) — one maximal run, so no class spans two groups.
    std::vector<std::pair<std::string, Netlist>> cases;
    cases.push_back({"gated16", designs::makeGated(gatedConfig(16, 16))});
    cases.push_back({"gated(5,3)", designs::makeGated(gatedConfig(5, 3))});
    cases.push_back({"sr2", designs::makeSr(2)});
    cases.push_back(
        {"pico", designs::makePico(designs::defaultCoreConfig())});
    cases.push_back({"bitcoin", designs::makeBitcoin()});
    for (uint64_t seed = 1; seed <= 8; ++seed)
        cases.push_back({"random seed " + std::to_string(seed),
                         randomNetlist(seed, fuzzConfig())});
    for (const auto &[name, nl] : cases) {
        rtl::EvalProgram prog = plannedProgram(nl);
        const rtl::ActivityPlan &ap = prog.activity;
        ASSERT_TRUE(ap.built) << name;
        const std::map<uint32_t, uint32_t> producer = producers(prog);
        for (uint32_t i = 0; i < prog.instrs.size(); ++i) {
            uint32_t ops[4];
            int arity = rtl::evalInstrOperands(prog.instrs[i], ops);
            for (int k = 0; k < arity; ++k) {
                auto p = producer.find(ops[k]);
                ASSERT_TRUE(p == producer.end() || p->second < i)
                    << name << ": instruction " << i << " reads slot "
                    << ops[k] << " produced by instruction " << p->second;
            }
        }

        const auto sets = sourceSets(prog);
        std::map<std::pair<bool, std::vector<uint32_t>>, uint32_t> groupOf;
        uint32_t next = 0;
        for (uint32_t g = 0; g < ap.numGroups(); ++g) {
            const rtl::ActivityGroup &grp = ap.groups[g];
            ASSERT_EQ(grp.beginInstr, next) << name << ": group " << g;
            ASSERT_LT(grp.beginInstr, grp.endInstr) << name;
            next = grp.endInstr;
            const auto cls = classOf(sets[grp.beginInstr]);
            for (uint32_t i = grp.beginInstr; i < grp.endInstr; ++i)
                ASSERT_EQ(classOf(sets[i]), cls)
                    << name << ": group " << g << " mixes classes at "
                    << "instruction " << i;
            auto [it, fresh] = groupOf.emplace(cls, g);
            EXPECT_TRUE(fresh) << name << ": groups " << it->second
                               << " and " << g << " share a class";
        }
        EXPECT_EQ(next, prog.instrs.size()) << name;
    }
}

TEST(ActivityPlan, GuardedRunMatchesPerInstructionReference)
{
    // With one class per group, a guarded sweep runs an instruction
    // exactly when one of its own sources changed: every cycle, the
    // interpreted guarded run executes as many instructions as a
    // brute-force count over an unguarded run's register changes. The
    // gated designs have no memories and are never poked, so register
    // changes are the only seeds, and no source set reaches the cap.
    for (auto [units, period] :
         {std::pair{16u, 16u}, std::pair{5u, 3u}}) {
        std::string name = "gated(" + std::to_string(units) + "," +
                           std::to_string(period) + ")";
        rtl::EvalProgram prog =
            plannedProgram(designs::makeGated(gatedConfig(units, period)));
        ASSERT_TRUE(prog.activity.built) << name;
        ASSERT_TRUE(prog.mems.empty()) << name;
        const auto sets = sourceSets(prog);
        for (const auto &set : sets)
            ASSERT_LE(set.size(), rtl::kActivitySourceCap) << name;

        rtl::EvalState guarded(prog);
        ASSERT_TRUE(guarded.enableActivity(true));
        rtl::EvalState plain(prog);
        auto regValues = [&]() {
            std::vector<BitVec> v;
            for (const rtl::ProgReg &r : prog.regs)
                v.push_back(plain.readSlot(r.cur, r.width));
            return v;
        };
        // Cycle 0 runs everything: enabling guards marks all dirty.
        std::vector<bool> changed(prog.regs.size(), true);
        bool first = true;
        uint64_t total = 0;
        for (int cycle = 0; cycle < 64; ++cycle) {
            uint64_t expect = 0;
            for (const auto &set : sets)
                expect += first || std::any_of(
                    set.begin(), set.end(),
                    [&](uint32_t s) {
                        return s < changed.size() && changed[s];
                    });
            first = false;
            std::vector<BitVec> before = regValues();
            plain.step();
            guarded.step();
            ASSERT_EQ(guarded.lastEvalInstrs(), expect)
                << name << " cycle " << cycle;
            total += expect;
            std::vector<BitVec> after = regValues();
            for (size_t r = 0; r < prog.regs.size(); ++r)
                changed[r] = before[r] != after[r];
        }
        // The guards do skip: far fewer than every instruction runs.
        EXPECT_LT(total, 64 * prog.instrs.size() / 2) << name;
    }
}
