/**
 * @file
 * Native codegen backend (rtl/cgen) tests: the JIT-compiled kernels
 * must be bit-identical to the *generic* (unlowered) interpreter — so
 * a bug shared by the whole lowered pipeline cannot mask itself — on
 * directed designs, on random netlists biased toward >64-bit values
 * and colliding memory write ports, and when attached to the
 * ShardSet-based parallel engine. The fallback contract is tested by
 * pointing the backend at a compiler that does not exist: the engine
 * must warn, keep simulating on the interpreter, and stay correct.
 * The split build (one TU compiled as per-core units and linked once)
 * is pinned the same way: split-built kernels against the generic
 * interpreter, and a compiler that fails on a single unit.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "ckpt/snapshot.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"
#include "serve/artifact.hh"
#include "x86/parallel.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using rtl::CgenInterpreter;
using rtl::CgenOptions;
using rtl::Interpreter;
using rtl::Netlist;

namespace {

/** A throwaway cache dir per test, so cached objects from other tests
 *  (or prior runs) can never mask the behaviour under test. */
std::string
freshBuildDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "parendi-cgen-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

void
compareEngines(const core::SimEngine &a, const core::SimEngine &b,
               const char *what)
{
    const Netlist &nl = a.netlist();
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r) {
        const std::string &name = nl.reg(r).name;
        ASSERT_EQ(a.peekRegister(name), b.peekRegister(name))
            << what << ": reg " << name;
    }
    for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
        const std::string &name = nl.output(o).name;
        ASSERT_EQ(a.peek(name), b.peek(name))
            << what << ": output " << name;
    }
    for (rtl::MemId m = 0; m < nl.numMemories(); ++m) {
        const rtl::Memory &mem = nl.mem(m);
        for (uint32_t e = 0; e < mem.depth; ++e)
            ASSERT_EQ(a.peekMemory(mem.name, e),
                      b.peekMemory(mem.name, e))
                << what << ": " << mem.name << "[" << e << "]";
    }
}

/** Lock-step differential: native cgen vs the fully generic
 *  interpreter, with periodic full-state comparison. */
void
checkCgenEquivalence(const Netlist &nl, int cycles, int checkEvery,
                     const CgenOptions &copt = CgenOptions{})
{
    Interpreter generic(nl, rtl::LowerOptions::none());
    CgenInterpreter cg(nl, rtl::LowerOptions{}, copt);
    ASSERT_TRUE(cg.native()) << "JIT unavailable in test environment";
    for (int c = 0; c < cycles; ++c) {
        generic.step();
        cg.step();
        if (c % checkEvery != checkEvery - 1 && c != cycles - 1)
            continue;
        compareEngines(cg, generic, "cgen vs generic");
    }
}

/** Step @p dut and @p ref 2048 cycles in lock-step, comparing their
 *  architectural state every 64; @p before(c) runs before the block
 *  that starts at cycle c. */
void
lockStep(core::SimEngine &dut, core::SimEngine &ref, const char *what,
         const std::function<void(int)> &before = nullptr)
{
    for (int c = 0; c < 2048; c += 64) {
        if (before)
            before(c);
        dut.step(64);
        ref.step(64);
        ASSERT_EQ(ckpt::archStateFnv(dut), ckpt::archStateFnv(ref))
            << what << " at cycle " << c + 64;
    }
}

} // namespace

TEST(Cgen, EmitSourceIsDeterministic)
{
    Netlist nl = designs::makePico(designs::defaultCoreConfig());
    rtl::ProgramBuilder builder(nl);
    builder.addAll();
    rtl::EvalProgram prog = builder.build();
    rtl::lowerProgram(prog);

    std::string s1 = rtl::cgenEmitSource({&prog});
    std::string s2 = rtl::cgenEmitSource({&prog});
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(rtl::cgenHash(s1), rtl::cgenHash(s2));
    // Every program entry point is present.
    EXPECT_NE(s1.find("parendi_eval_0"), std::string::npos);
}

TEST(Cgen, PicoMatchesGenericInterpreter)
{
    CgenOptions copt;
    copt.buildDir = freshBuildDir("pico");
    checkCgenEquivalence(
        designs::makePico(designs::defaultCoreConfig()), 50, 10, copt);
}

TEST(Cgen, BitcoinMatchesGenericInterpreter)
{
    checkCgenEquivalence(designs::makeBitcoin({2, 16}), 40, 10);
}

TEST(Cgen, VtaMatchesGenericInterpreter)
{
    checkCgenEquivalence(designs::makeVta({4, 4, 16}), 40, 10);
}

class CgenFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CgenFuzz, MatchesGenericInterpreter)
{
    checkCgenEquivalence(randomNetlist(GetParam()), 30, 10);
}

TEST_P(CgenFuzz, MatchesOnWideAndMemoryHeavyCircuits)
{
    // Bias toward multi-word (>64-bit) values and colliding write
    // ports: the generic-tier emitter paths and the saturating wide
    // address/shift reads only show up here.
    uint64_t seed = GetParam();
    if (seed % 2)
        return; // subsample: one JIT compile per seed
    parendi::testing::RandomNetlistConfig cfg;
    cfg.maxWidth = 192;
    cfg.memories = 4;
    cfg.registers = 16;
    cfg.combNodes = 160;
    checkCgenEquivalence(randomNetlist(seed ^ 0x90e7ull, cfg), 25, 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgenFuzz,
                         ::testing::Range<uint64_t>(1, 9));

TEST(Cgen, ParallelEngineRunsNativeShardKernels)
{
    Netlist nl = randomNetlist(7);
    Interpreter ref(nl, rtl::LowerOptions::none());
    // Pin the partition width: the default clamp to hardware
    // concurrency could leave a single shard on small CI hosts.
    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 4;
    rtl::ParallelInterpreter par(nl, 4, rtl::LowerOptions{}, pcfg);
    ASSERT_GE(par.numShards(), 2u);

    // All shard programs compile into one module; every shard must go
    // native (a partial attach would be a silent perf lie).
    size_t attached = par.enableNativeKernels();
    ASSERT_EQ(attached, par.numShards());
    EXPECT_TRUE(par.native());

    for (int c = 0; c < 30; ++c) {
        ref.step();
        par.step();
        if (c % 10 == 9 || c == 29)
            compareEngines(par, ref, "par+cgen vs generic");
    }
}

TEST(Cgen, FallsBackWhenCompilerIsBroken)
{
    Netlist nl = designs::makeBitcoin({2, 16});
    CgenOptions copt;
    copt.cxx = "/nonexistent/parendi-no-such-compiler";
    // A fresh build dir: a cached .so from a healthy run must not be
    // able to mask the broken toolchain.
    copt.buildDir = freshBuildDir("broken-cxx");

    CgenInterpreter cg(nl, rtl::LowerOptions{}, copt);
    EXPECT_FALSE(cg.native());

    // The fallback is not a stub: simulation continues, bit-identical
    // to the reference interpreter.
    Interpreter ref(nl);
    cg.step(20);
    ref.step(20);
    compareEngines(cg, ref, "fallback vs reference");
}

TEST(Cgen, FallsBackWhenEnvCompilerIsBroken)
{
    // CXX resolution order is PARENDI_CXX, CXX, then "c++": a broken
    // PARENDI_CXX must win (so users can see their override is used)
    // and must degrade to the interpreter, not crash.
    ASSERT_EQ(setenv("PARENDI_CXX", "/nonexistent/parendi-bad-cxx", 1),
              0);
    Netlist nl = randomNetlist(3);
    CgenOptions copt;
    copt.buildDir = freshBuildDir("broken-env");
    CgenInterpreter cg(nl, rtl::LowerOptions{}, copt);
    unsetenv("PARENDI_CXX");
    EXPECT_FALSE(cg.native());

    Interpreter ref(nl);
    cg.step(15);
    ref.step(15);
    compareEngines(cg, ref, "env fallback vs reference");
}

TEST(Cgen, CacheReusesCompiledObject)
{
    Netlist nl = designs::makeBitcoin({2, 16});
    rtl::ProgramBuilder builder(nl);
    builder.addAll();
    rtl::EvalProgram prog = builder.build();
    rtl::lowerProgram(prog);

    CgenOptions copt;
    copt.buildDir = freshBuildDir("cache");

    auto first = rtl::CgenModule::compile({&prog}, copt);
    ASSERT_NE(first, nullptr);
    auto stamp =
        std::filesystem::last_write_time(first->objectPath());

    auto second = rtl::CgenModule::compile({&prog}, copt);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->objectPath(), first->objectPath());
    // The second load came from the cache: the object was not rebuilt.
    EXPECT_EQ(std::filesystem::last_write_time(second->objectPath()),
              stamp);
}

TEST(Cgen, GangLaneCountChangesCacheKey)
{
    // Gang and scalar builds of one design must never collide in the
    // artifact cache: the lane count (and SoA layout version) is part
    // of the compile-cache key.
    Netlist nl = designs::makeBitcoin({2, 16});
    rtl::ProgramBuilder builder(nl);
    builder.addAll();
    rtl::EvalProgram prog = builder.build();
    rtl::lowerProgram(prog);

    CgenOptions copt;
    copt.buildDir = freshBuildDir("gang-key");
    auto scalar = rtl::CgenModule::compile({&prog}, copt);
    ASSERT_NE(scalar, nullptr);
    copt.lanes = 8;
    auto gang = rtl::CgenModule::compile({&prog}, copt);
    ASSERT_NE(gang, nullptr);
    EXPECT_NE(gang->objectPath(), scalar->objectPath());

    // And the key is stable: recompiling the gang hits its cache.
    auto again = rtl::CgenModule::compile({&prog}, copt);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->objectPath(), gang->objectPath());
}

TEST(Cgen, GangEmissionAtOneLaneIsScalarEmission)
{
    // lanes == 1 must emit byte-identical source to the pre-gang
    // scalar emitter, so single-replica runs keep the proven codegen.
    Netlist nl = designs::makePico(designs::defaultCoreConfig());
    rtl::ProgramBuilder builder(nl);
    builder.addAll();
    rtl::EvalProgram prog = builder.build();
    rtl::lowerProgram(prog);

    EXPECT_EQ(rtl::cgenEmitSource({&prog}, 1),
              rtl::cgenEmitSource({&prog}));
    std::string gang = rtl::cgenEmitSource({&prog}, 4);
    EXPECT_NE(gang, rtl::cgenEmitSource({&prog}));
    // The gang TU carries the lane-loop machinery.
    EXPECT_NE(gang.find("PG_SIMD"), std::string::npos);
}

TEST(Cgen, NativeStateSurvivesResetAndCheckpoint)
{
    // reset() and restore() reallocate memory images; the kernel ABI
    // memory-pointer table must be refreshed or the native kernels
    // read freed memory.
    Netlist nl = randomNetlist(11);
    Interpreter ref(nl);
    CgenInterpreter cg(nl);
    ASSERT_TRUE(cg.native());

    cg.step(10);
    ref.step(10);
    cg.reset();
    ref.reset();
    cg.step(10);
    ref.step(10);
    compareEngines(cg, ref, "after reset");

    std::stringstream ckpt;
    core::saveCheckpoint(cg, ckpt);
    cg.step(5);
    core::restoreCheckpoint(cg, ckpt);
    ref.step(0);
    compareEngines(cg, ref, "after restore");
    cg.step(7);
    ref.step(7);
    compareEngines(cg, ref, "after restore + step");
}

TEST(Cgen, AssignUnitsIsDeterministicLpt)
{
    // Heaviest first (ties by index), each to the least-loaded unit
    // (ties by unit index): 1,3,7,5,0,4,6,2 land on 0,1,2,2,0,1,1,0.
    std::vector<uint64_t> w{5, 9, 1, 9, 3, 7, 2, 8};
    auto units = rtl::cgenAssignUnits(w, 3);
    std::vector<std::vector<size_t>> expect{{0, 1, 2}, {3, 4, 6}, {5, 7}};
    EXPECT_EQ(units, expect);
    EXPECT_EQ(rtl::cgenAssignUnits(w, 3), units);

    for (size_t n = 0; n <= w.size() + 2; ++n) {
        auto us = rtl::cgenAssignUnits(w, n);
        EXPECT_EQ(us.size(), std::max<size_t>(1, std::min(n, w.size())));
        std::multiset<size_t> seen;
        for (const auto &u : us) {
            EXPECT_FALSE(u.empty()) << n << " units";
            seen.insert(u.begin(), u.end());
        }
        // Every function lands in exactly one unit.
        EXPECT_EQ(seen.size(), w.size());
        for (size_t f = 0; f < w.size(); ++f)
            EXPECT_EQ(seen.count(f), 1u) << "function " << f;
    }

    // The emitter's function list tiles the TU after the header, and
    // its chunk functions are what the unit count is capped by.
    Netlist nl = designs::makeSr(2);
    Interpreter lowered(nl);
    rtl::CgenSource src = rtl::cgenEmit({&lowered.program()});
    EXPECT_EQ(src.text, rtl::cgenEmitSource({&lowered.program()}));
    size_t at = src.headerEnd;
    for (const rtl::CgenFunction &f : src.functions) {
        EXPECT_EQ(f.begin, at);
        EXPECT_GT(f.end, f.begin);
        at = f.end;
    }
    EXPECT_EQ(at, src.text.size());
    EXPECT_GE(src.numChunks(), 2u);
}

TEST(Cgen, SplitBuildMatchesInterpreter)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2)
        GTEST_SKIP() << "one hardware thread: the build is one unit";

    Netlist nl = designs::makeSr(2);
    CgenOptions copt;
    copt.buildDir = freshBuildDir("split");

    // Every object in the fresh dir is a split build.
    Interpreter lowered(nl);
    auto mod = rtl::CgenModule::compile({&lowered.program()}, copt);
    ASSERT_NE(mod, nullptr);
    EXPECT_GE(mod->numUnits(), 2u);
    EXPECT_EQ(mod->numUnits(),
              std::min<size_t>(
                  hw, rtl::cgenEmit({&lowered.program()}).numChunks()));

    {
        CgenInterpreter cg(nl, rtl::LowerOptions{}, copt);
        ASSERT_TRUE(cg.native());
        Interpreter ref(nl, rtl::LowerOptions::none());
        lockStep(cg, ref, "scalar cgen");
    }
    {
        CgenOptions gopt = copt;
        gopt.lanes = 4;
        CgenInterpreter gang(nl, rtl::LowerOptions{}, gopt);
        ASSERT_TRUE(gang.native());
        Interpreter ref(nl, rtl::LowerOptions::none(), 4);
        lockStep(gang, ref, "gang R=4");
    }
    {
        rtl::ParConfig pcfg;
        pcfg.maxWorkers = 2;
        rtl::ParallelInterpreter par(nl, 2, rtl::LowerOptions{}, pcfg);
        ASSERT_EQ(par.enableNativeKernels(copt), par.numShards());
        Interpreter ref(nl, rtl::LowerOptions::none());
        lockStep(par, ref, "par@2 native shards");
    }
}

TEST(Cgen, FallsBackWhenOneUnitFails)
{
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "one hardware thread: there is no unit 1";
    namespace fs = std::filesystem;

    // A compiler wrapper that fails on unit 1 while the flag exists and
    // otherwise runs the compiler the backend would have picked.
    std::string root = freshBuildDir("unit-fail");
    fs::create_directories(root);
    std::string flag = root + "/fail-unit-1";
    std::string wrapper = root + "/cxx.sh";
    {
        std::ofstream f(wrapper);
        f << "#!/bin/sh\n"
          << "for a in \"$@\"; do\n"
          << "  case \"$a\" in\n"
          << "    *.u1.cc) [ -e " << flag << " ] && exit 1 ;;\n"
          << "  esac\n"
          << "done\n"
          << "exec ${PARENDI_CXX:-${CXX:-c++}} \"$@\"\n";
    }
    fs::permissions(wrapper, fs::perms::owner_all);
    std::ofstream(flag).put('1');

    Netlist nl = designs::makeSr(2);
    CgenOptions copt;
    copt.cxx = wrapper;
    copt.buildDir = root + "/dir";

    ::testing::internal::CaptureStderr();
    CgenInterpreter cg(nl, rtl::LowerOptions{}, copt);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(cg.native());
    size_t at = err.find(".u1.log");
    ASSERT_NE(at, std::string::npos) << err;
    size_t begin = err.rfind(' ', at) + 1;
    std::string log = err.substr(begin, at + 7 - begin);
    EXPECT_TRUE(fs::exists(log)) << log;

    // Nothing published, nothing of the units left but unit 1's log.
    for (const auto &e : fs::directory_iterator(copt.buildDir))
        EXPECT_EQ(e.path().string(), log) << "left behind";

    Interpreter ref(nl);
    cg.step(100);
    ref.step(100);
    EXPECT_EQ(ckpt::archStateFnv(cg), ckpt::archStateFnv(ref));

    // Through a shared store the failed flight leaves no entry, and
    // the same key builds once the compiler works.
    obs::Counters counters;
    serve::ArtifactStore::Options sopt;
    sopt.dir = root + "/store";
    serve::ArtifactStore store(sopt, counters);
    CgenOptions viaStore = copt;
    viaStore.store = &store;
    ::testing::internal::CaptureStderr();
    auto failed = rtl::CgenModule::compile({&cg.program()}, viaStore);
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(failed, nullptr);
    EXPECT_EQ(store.entries(), 0u);

    fs::remove(flag);
    auto ok = rtl::CgenModule::compile({&cg.program()}, viaStore);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_GE(ok->numUnits(), 2u);
}

TEST(Cgen, OneInstructionStreamPerKernel)
{
    // A program with an activity plan compiles only the guarded
    // stream; one without compiles only the straight-line stream.
    Netlist nl = designs::makeSr(2);
    rtl::LowerOptions noPlan;
    noPlan.activityPlan = false;
    Interpreter planned(nl);
    Interpreter plain(nl, noPlan);
    ASSERT_TRUE(planned.program().activity.built);
    ASSERT_FALSE(plain.program().activity.built);
    std::string guarded = rtl::cgenEmitSource({&planned.program()});
    EXPECT_EQ(guarded.find("pe0_c"), std::string::npos);
    EXPECT_NE(guarded.find("pea0_c"), std::string::npos);
    std::string straight = rtl::cgenEmitSource({&plain.program()});
    EXPECT_EQ(straight.find("pea0_c"), std::string::npos);
    EXPECT_EQ(straight.find("parendi_eval_act_0"), std::string::npos);
    EXPECT_NE(straight.find("pe0_c"), std::string::npos);

    // --activity 0 through the factory runs the straight-line kernel.
    {
        core::EngineOptions eo;
        eo.kind = core::EngineKind::Cgen;
        eo.activity = false;
        auto engine = core::makeEngine(nl, eo);
        auto *cg = dynamic_cast<CgenInterpreter *>(engine.get());
        ASSERT_NE(cg, nullptr);
        EXPECT_TRUE(cg->native());
        EXPECT_FALSE(cg->program().activity.built);
    }

    // Plan-carrying kernels with activity off, on and off again: the
    // all-dirty wrappers, then the act entries, then the wrappers.
    CgenOptions copt;
    copt.buildDir = freshBuildDir("one-stream");
    auto toggle = [](core::SimEngine &e) {
        return [&e](int c) {
            if (c == 640)
                ASSERT_TRUE(e.setActivity(true));
            else if (c == 1344)
                e.setActivity(false);
        };
    };
    {
        CgenInterpreter cg(nl, rtl::LowerOptions{}, copt);
        ASSERT_TRUE(cg.native());
        Interpreter ref(nl, rtl::LowerOptions::none());
        lockStep(cg, ref, "scalar cgen", toggle(cg));
    }
    {
        CgenOptions gopt = copt;
        gopt.lanes = 4;
        CgenInterpreter gang(nl, rtl::LowerOptions{}, gopt);
        ASSERT_TRUE(gang.native());
        Interpreter ref(nl, rtl::LowerOptions::none(), 4);
        lockStep(gang, ref, "gang R=4", toggle(gang));
    }
    {
        rtl::ParConfig pcfg;
        pcfg.maxWorkers = 2;
        rtl::ParallelInterpreter par(nl, 2, rtl::LowerOptions{}, pcfg);
        ASSERT_EQ(par.enableNativeKernels(copt), par.numShards());
        Interpreter ref(nl, rtl::LowerOptions::none());
        lockStep(par, ref, "par@2 native shards", toggle(par));
    }
}

namespace {

/** The activity groups each guarded chunk function of @p src guards,
 *  in text order. */
std::vector<std::vector<uint32_t>>
guardedChunks(const rtl::CgenSource &src)
{
    const std::string guard = "    if (d[";
    std::vector<std::vector<uint32_t>> chunks;
    for (const rtl::CgenFunction &f : src.functions) {
        std::string body = src.text.substr(f.begin, f.end - f.begin);
        if (!f.chunk || body.find("pea0_c") == std::string::npos)
            continue;
        chunks.emplace_back();
        for (size_t at = body.find(guard); at != std::string::npos;
             at = body.find(guard, at + 1))
            chunks.back().push_back(
                std::stoul(body.substr(at + guard.size())));
    }
    return chunks;
}

/** Check the chunking of @p prog's guarded stream against its plan:
 *  every group once and in order, whole groups per chunk up to
 *  kCgenActChunkInstrs (a larger group alone), each chunk full. */
void
expectPackedChunks(const rtl::EvalProgram &prog, const std::string &what)
{
    const rtl::ActivityPlan &ap = prog.activity;
    auto size = [&](uint32_t g) {
        return size_t{ap.groups[g].endInstr - ap.groups[g].beginInstr};
    };
    const auto chunks = guardedChunks(rtl::cgenEmit({&prog}));
    ASSERT_FALSE(chunks.empty()) << what;
    uint32_t next = 0;
    for (size_t k = 0; k < chunks.size(); ++k) {
        ASSERT_FALSE(chunks[k].empty()) << what << ": chunk " << k;
        size_t instrs = 0;
        for (uint32_t g : chunks[k]) {
            EXPECT_EQ(g, next++) << what << ": chunk " << k;
            instrs += size(g);
        }
        EXPECT_TRUE(instrs <= rtl::kCgenActChunkInstrs ||
                    chunks[k].size() == 1)
            << what << ": chunk " << k << " holds " << instrs
            << " instructions in " << chunks[k].size() << " groups";
        if (k + 1 < chunks.size()) {
            EXPECT_GT(instrs + size(chunks[k + 1].front()),
                      rtl::kCgenActChunkInstrs)
                << what << ": chunk " << k << " had room for group "
                << chunks[k + 1].front();
        }
    }
    EXPECT_EQ(next, ap.numGroups()) << what;
}

} // namespace

TEST(Cgen, GuardedChunksPackWholeGroups)
{
    // Activity groups are source classes of any size; guarded chunks
    // pack them whole rather than by the first group's size.
    designs::GatedConfig gated16;
    gated16.units = 16;
    for (const auto &[name, nl] :
         {std::pair{"sr2", designs::makeSr(2)},
          std::pair{"gated16", designs::makeGated(gated16)}}) {
        Interpreter planned(nl);
        const rtl::EvalProgram &prog = planned.program();
        ASSERT_TRUE(prog.activity.built) << name;
        uint32_t lo = UINT32_MAX, hi = 0;
        for (const rtl::ActivityGroup &g : prog.activity.groups) {
            lo = std::min(lo, g.endInstr - g.beginInstr);
            hi = std::max(hi, g.endInstr - g.beginInstr);
        }
        EXPECT_LT(lo, hi) << name << ": group sizes do not vary";
        expectPackedChunks(prog, name);
    }

    // A group larger than a chunk gets a chunk of its own: merge sr2's
    // leading groups into one (emission only reads the ranges).
    Interpreter planned(designs::makeSr(2));
    rtl::EvalProgram prog = planned.program();
    std::vector<rtl::ActivityGroup> &groups = prog.activity.groups;
    size_t merged = 1;
    while (merged < groups.size() &&
           groups[merged - 1].endInstr <= rtl::kCgenActChunkInstrs + 64)
        ++merged;
    ASSERT_LT(merged, groups.size());
    groups[0].endInstr = groups[merged - 1].endInstr;
    groups.erase(groups.begin() + 1, groups.begin() + merged);
    for (rtl::ActivityGroup &g : groups)
        g.succBegin = g.succEnd = 0;
    ASSERT_GT(groups[0].endInstr, rtl::kCgenActChunkInstrs);
    expectPackedChunks(prog, "sr2 with a large first group");
    EXPECT_EQ(guardedChunks(rtl::cgenEmit({&prog})).front().size(), 1u);
}

namespace {

/** The first and last line (1-based) of each `PG_SIMD` lane loop of
 *  @p tu, and the statements it holds. */
struct LaneLoop
{
    size_t open = 0, close = 0, stmts = 0;
};

std::vector<LaneLoop>
laneLoops(const std::string &tu)
{
    std::vector<LaneLoop> loops;
    std::istringstream in(tu);
    std::string line;
    bool inLoop = false;
    for (size_t n = 1; std::getline(in, line); ++n) {
        if (line.find("PG_SIMD for (") != std::string::npos) {
            loops.push_back({n, 0, 0});
            inLoop = true;
        } else if (inLoop && line == "    }") {
            loops.back().close = n;
            inLoop = false;
        } else if (inLoop) {
            ++loops.back().stmts;
        }
    }
    return loops;
}

/** Run @p cmd through the shell; true on exit status 0. */
bool
runQuiet(const std::string &cmd)
{
    return std::system(cmd.c_str()) == 0;
}

} // namespace

TEST(Cgen, GangLaneRunsStayVectorizable)
{
    // Straight-line gang kernels batch each run of single-word ops into
    // one lane loop; a run past the vectorizer's dataref budget is left
    // scalar, so emitRange caps every run.
    rtl::LowerOptions noPlan;
    noPlan.activityPlan = false;
    auto straightTu = [&](Netlist nl) {
        Interpreter plain(std::move(nl), noPlan);
        return rtl::cgenEmitSource({&plain.program()}, 8);
    };
    const std::string sr2Tu = straightTu(designs::makeSr(2));
    const std::string bitcoinTu = straightTu(designs::makeBitcoin());
    for (const auto &[name, tu] : {std::pair{"sr2", &sr2Tu},
                                   std::pair{"bitcoin", &bitcoinTu}}) {
        std::vector<LaneLoop> loops = laneLoops(*tu);
        ASSERT_FALSE(loops.empty()) << name;
        for (const LaneLoop &l : loops) {
            EXPECT_NE(l.close, 0u) << name << ": unclosed lane loop";
            EXPECT_LE(l.stmts, rtl::kCgenLaneRunStmts)
                << name << ": lane loop at line " << l.open;
        }
    }

    // Every lane loop must come out vectorized, where the compiler can
    // say so (g++'s -fopt-info; other compilers skip this half).
    namespace fs = std::filesystem;
    const char *cxxEnv = std::getenv("PARENDI_CXX");
    if (!cxxEnv || !*cxxEnv)
        cxxEnv = std::getenv("CXX");
    std::string cxx = cxxEnv && *cxxEnv ? cxxEnv : "c++";
    fs::path dir = freshBuildDir("vec-report");
    fs::create_directories(dir);
    const std::string flags =
        " -O2 -fPIC -std=c++17 -fopenmp-simd -march=native"
        " -fopt-info-vec-optimized -c -o /dev/null ";
    fs::path probe = dir / "probe.cc";
    std::ofstream(probe) << "int f(int x) { return x; }\n";
    if (!runQuiet(cxx + flags + probe.string() + " 2>/dev/null"))
        GTEST_SKIP() << cxx << " does not accept -fopt-info-vec-optimized";
    fs::path tu = dir / "sr2_r8.cc";
    fs::path log = dir / "vec.log";
    std::ofstream(tu) << sr2Tu;
    ASSERT_TRUE(runQuiet(cxx + flags + tu.string() + " 2>" + log.string()))
        << "the emitted sr2 R=8 TU does not compile";
    std::set<size_t> vectorized;
    std::ifstream in(log);
    const std::string tag = tu.filename().string() + ":";
    for (std::string line; std::getline(in, line);) {
        size_t at = line.find(tag);
        if (at == std::string::npos ||
            line.find("loop vectorized") == std::string::npos)
            continue;
        vectorized.insert(std::stoul(line.substr(at + tag.size())));
    }
    for (const LaneLoop &l : laneLoops(sr2Tu)) {
        auto hit = vectorized.lower_bound(l.open);
        EXPECT_TRUE(hit != vectorized.end() && *hit <= l.close)
            << "sr2 R=8: lane loop at line " << l.open << " ("
            << l.stmts << " statements) was not vectorized";
    }
}
