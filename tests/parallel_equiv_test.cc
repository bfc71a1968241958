/**
 * @file
 * Multithreaded differential fuzz for the BSP host runtime: the
 * IpuMachine and the ParallelInterpreter must be bit-identical to the
 * reference interpreter at every tested thread count (the in-place
 * cycle at one worker, the fused superstep at two or more), over
 * random netlists whose colliding write ports make any
 * ordering bug in the parallel commit phase observable. Also checks
 * the host-facing extras (poke, reset, checkpoint) of the new engine
 * and the BspPool itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/compiler.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "random_netlist.hh"
#include "rtl/interp.hh"
#include "util/bsp_pool.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "x86/parallel.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using parendi::testing::RandomNetlistConfig;
using rtl::Interpreter;
using rtl::Netlist;
using rtl::ParallelInterpreter;

namespace {

/** Random netlists with extra memories -> more colliding ports. */
RandomNetlistConfig
collidingConfig()
{
    RandomNetlistConfig cfg;
    cfg.registers = 16;
    cfg.memories = 4;
    cfg.combNodes = 150;
    return cfg;
}

void
compareAllState(core::SimEngine &sim, Interpreter &ref,
                const char *what)
{
    const Netlist &nl = ref.netlist();
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

} // namespace

class ParallelEquiv : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ParallelEquiv, ParallelInterpreterMatchesReference)
{
    uint64_t seed = GetParam();
    Netlist nl = randomNetlist(seed, collidingConfig());
    Interpreter ref(nl);
    ref.step(40);
    for (uint32_t threads : {1u, 2u, 8u}) {
        // Pin real shards/workers: the default clamp to hardware
        // concurrency would serialize this on small CI hosts.
        rtl::ParConfig pcfg;
        pcfg.maxWorkers = threads;
        ParallelInterpreter par(nl, threads, rtl::LowerOptions{},
                                pcfg);
        par.step(40);
        compareAllState(par, ref, "par");
    }
}

TEST_P(ParallelEquiv, PooledMachineMatchesReference)
{
    uint64_t seed = GetParam();
    if (seed % 2) // subsample: compile is the slow part
        return;
    Netlist nl = randomNetlist(seed, collidingConfig());
    Interpreter ref(nl);
    ref.step(40);
    for (uint32_t threads : {1u, 2u, 8u}) {
        core::CompilerOptions opt;
        opt.tilesPerChip = 24;
        opt.machine.hostThreads = threads;
        opt.machine.maxHostWorkers = threads;
        auto sim = core::compile(Netlist(nl), opt);
        sim->step(40);
        compareAllState(sim->machine(), ref, "ipu");
    }
}

TEST_P(ParallelEquiv, FusedMatchesReferenceAcrossBatchShapes)
{
    // The fused single-barrier superstep (threads >= 2) and the
    // in-place cycle (threads = 1) must stay bit-identical to the
    // reference interpreter over colliding write ports, odd and even
    // batch lengths (the publish-buffer parity flips), and mid-run
    // reset and checkpoint intrusions (which invalidate the publish
    // buffers).
    uint64_t seed = GetParam();
    Netlist nl = randomNetlist(seed, collidingConfig());
    for (uint32_t threads : {1u, 2u, 8u}) {
        Interpreter ref(nl);
        rtl::ParConfig pcfg;
        pcfg.maxWorkers = threads;
        pcfg.batch = 3; // step(n) splits into odd-length batches
        ParallelInterpreter par(nl, threads, rtl::LowerOptions{}, pcfg);
        // Pinned: 2 and 8 threads really run the fused superstep.
        ASSERT_EQ(par.numWorkers(),
                  std::min(threads,
                           static_cast<uint32_t>(par.numShards())));

        for (size_t batch : {size_t{1}, size_t{3}, size_t{16}}) {
            ref.step(batch);
            par.step(batch);
            compareAllState(par, ref, "par");
        }

        // Checkpoint round-trip mid-run: restore must re-publish
        // before the next fused batch.
        std::stringstream snap;
        core::saveCheckpoint(par, snap);
        par.step(5);
        core::restoreCheckpoint(par, snap);
        ref.step(5);
        par.step(5);
        compareAllState(par, ref, "par after restore");

        // Reset mid-run, then another odd/even batch mix.
        ref.reset();
        par.reset();
        ref.step(7);
        par.step(7);
        compareAllState(par, ref, "par after reset");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquiv,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ParallelInterpreter, PokeResetAndCheckpoint)
{
    rtl::Design d("io");
    rtl::Wire a = d.input("a", 16);
    auto acc = d.reg("acc", 16, 0);
    auto other = d.reg("other", 16, 5);
    d.next(acc, d.read(acc) + a);
    d.next(other, d.read(other) ^ a);
    d.output("acc", d.read(acc));
    Netlist nl = d.finish();

    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 2;
    ParallelInterpreter sim(nl, 2, rtl::LowerOptions{}, pcfg);
    sim.poke("a", uint64_t{3});
    sim.step(4);
    EXPECT_EQ(sim.peek("acc").toUint64(), 12u);

    std::stringstream snap;
    core::saveCheckpoint(sim, snap);
    sim.step(2);
    EXPECT_EQ(sim.peek("acc").toUint64(), 18u);
    core::restoreCheckpoint(sim, snap);
    EXPECT_EQ(sim.cycles(), 4u);
    EXPECT_EQ(sim.peek("acc").toUint64(), 12u);

    sim.reset();
    EXPECT_EQ(sim.cycles(), 0u);
    EXPECT_EQ(sim.peekRegister("other").toUint64(), 5u);
}

TEST(ParallelInterpreter, ShardCountClampsToFibers)
{
    // 2 sinks -> at most 2 shards no matter how many threads.
    rtl::Design d("tiny");
    auto r = d.reg("r", 8, 1);
    d.next(r, d.read(r) + d.lit(8, 1));
    d.output("o", d.read(r));
    ParallelInterpreter sim(d.finish(), 16);
    EXPECT_LE(sim.numShards(), 2u);
    sim.step(3);
    EXPECT_EQ(sim.peekRegister("r").toUint64(), 4u);
}

TEST(ParallelEquiv, EngineFactoryBuildsEveryKind)
{
    Netlist nl = randomNetlist(7);
    Interpreter ref(nl);
    ref.step(20);
    for (const char *name : {"interp", "ipu", "par", "cgen"}) {
        core::EngineOptions opt;
        opt.kind = core::parseEngineKind(name);
        opt.threads = 2;
        auto engine = core::makeEngine(Netlist(nl), opt);
        ASSERT_STREQ(engine->engineName(), name);
        engine->step(20);
        EXPECT_EQ(engine->cycles(), 20u);
        for (rtl::PortId o = 0; o < nl.numOutputs(); ++o) {
            const std::string &out = nl.output(o).name;
            ASSERT_EQ(engine->peek(out), ref.peek(out))
                << name << ": " << out;
        }
    }
    EXPECT_THROW(core::parseEngineKind("verilator"), FatalError);
    // The event-driven witness is built directly, never by the factory.
    EXPECT_THROW(core::parseEngineKind("event"), FatalError);
}

TEST(BspPool, ManySuperstepsKeepWorkersInLockstep)
{
    util::BspPool pool(4);
    std::atomic<uint64_t> sum{0};
    constexpr int kSteps = 500;
    for (int s = 0; s < kSteps; ++s)
        pool.run([&](uint32_t worker) { sum.fetch_add(worker + 1); });
    // Each superstep runs every worker exactly once: 1+2+3+4 = 10.
    EXPECT_EQ(sum.load(), uint64_t{10} * kSteps);
}

TEST(ParallelInterpreter, PokeBetweenFusedBatchesIsVisible)
{
    // A poke between fused batches rewrites input replicas behind the
    // publish buffers' back; the next batch must see the new value on
    // every shard (pubValid_ invalidation), at odd and even batch
    // lengths so both buffer parities are exercised.
    rtl::Design d("pokes");
    rtl::Wire a = d.input("a", 16);
    auto acc = d.reg("acc", 16, 0);
    d.next(acc, d.read(acc) + a);
    d.output("acc", d.read(acc));
    Netlist nl = d.finish();

    rtl::ParConfig pcfg;
    pcfg.maxWorkers = 2;
    ParallelInterpreter sim(nl, 2, rtl::LowerOptions{}, pcfg);
    uint64_t expect = 0;
    uint64_t value = 1;
    for (size_t batch : {size_t{1}, size_t{3}, size_t{16},
                         size_t{4}}) {
        sim.poke("a", value);
        sim.step(batch);
        expect += value * batch;
        ASSERT_EQ(sim.peek("acc").toUint64(), expect & 0xffff)
            << "batch " << batch;
        value += 3;
    }
}

TEST(SpinBarrier, ReleasesEveryPartyEachGeneration)
{
    constexpr uint32_t kParties = 4;
    constexpr int kRounds = 300;
    util::SpinBarrier bar(kParties);
    std::atomic<uint32_t> arrived{0};
    std::vector<std::thread> threads;
    threads.reserve(kParties);
    for (uint32_t p = 0; p < kParties; ++p) {
        threads.emplace_back([&]() {
            for (int r = 0; r < kRounds; ++r) {
                arrived.fetch_add(1);
                bar.arriveAndWait();
                // All parties of round r incremented before anyone
                // passes the barrier (later rounds may have started).
                ASSERT_GE(arrived.load(),
                          kParties * static_cast<uint32_t>(r + 1));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(bar.generations(), static_cast<uint64_t>(kRounds));
    EXPECT_EQ(arrived.load(), kParties * kRounds);
}

TEST(SpinBarrier, AdaptiveBudgetStaysBoundedAndTracksWaits)
{
    util::SpinBarrier bar(1);
    const uint32_t initial = bar.spinBudget();
    EXPECT_GT(initial, 0u);
    // Long observed waits saturate the budget at its upper bound;
    // near-zero waits pull it back to the lower bound. Both bounds
    // must hold no matter how extreme the inputs.
    for (int i = 0; i < 64; ++i)
        bar.observeWaitNs(50'000'000);
    const uint32_t high = bar.spinBudget();
    EXPECT_GE(high, initial);
    for (int i = 0; i < 64; ++i)
        bar.observeWaitNs(0);
    const uint32_t low = bar.spinBudget();
    EXPECT_LE(low, high);
    EXPECT_GT(low, 0u);
    // A single party never blocks; generations still advance.
    bar.arriveAndWait();
    bar.arriveAndWait();
    EXPECT_EQ(bar.generations(), 2u);
}

namespace {

/** Counts pool-epoch wait pairs (one per worker per run()). */
struct EpochCounter final : util::BspWaitObserver
{
    std::atomic<uint32_t> begins{0};
    std::atomic<uint32_t> ends{0};
    void epochWaitBegin(uint32_t) override { begins.fetch_add(1); }
    void epochWaitEnd(uint32_t) override { ends.fetch_add(1); }
};

} // namespace

TEST(BspPool, BatchDispatchCrossesInnerBarriersInOneEpoch)
{
    // The multi-cycle batch shape: one pool.run() dispatch whose
    // workers separate k inner cycles with a SpinBarrier. The pool's
    // own epoch machinery (and its wait observer) must fire once per
    // dispatch, not once per inner cycle — that is the entire point
    // of batching.
    constexpr uint32_t kWorkers = 3;
    constexpr uint32_t kBatches = 4;
    constexpr int kInner = 17;
    util::BspPool pool(kWorkers);
    EpochCounter obs;
    pool.setWaitObserver(&obs);
    util::SpinBarrier inner(kWorkers);
    std::vector<uint64_t> perWorker(kWorkers, 0);
    for (uint32_t b = 0; b < kBatches; ++b)
        pool.run([&](uint32_t w) {
            for (int c = 0; c < kInner; ++c) {
                perWorker[w] += 1;
                inner.arriveAndWait();
            }
        });
    for (uint32_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(perWorker[w],
                  static_cast<uint64_t>(kBatches) * kInner);
    // Every inner cycle crossed the in-dispatch barrier...
    EXPECT_EQ(inner.generations(),
              static_cast<uint64_t>(kBatches) * kInner);
    // ...while the pool's epoch machinery fired one wait pair per
    // worker per *dispatch* (give or take the workers still entering
    // their next wait when run() returns) — never per inner cycle.
    EXPECT_GE(obs.ends.load(), kBatches);
    EXPECT_LE(obs.begins.load(), (kBatches + 1) * kWorkers);
    EXPECT_LT(obs.begins.load(), kBatches * kInner);
    pool.setWaitObserver(nullptr);
}
