/**
 * @file
 * Host wall-clock microbenchmarks (google-benchmark): how fast this
 * repository's own engines run on the host CPU — the reference
 * interpreter, the partitioned BSP machine's functional execution,
 * and the compiler itself. These are engineering benchmarks for the
 * simulator (not paper figures): they track regressions in the
 * evaluation kernel and compile pipeline.
 *
 * `--json FILE` additionally runs a fixed engine matrix (reference
 * interpreter, the JIT-compiled cgen engine, IpuMachine at 1 and 8
 * host threads, ParallelInterpreter with and without native kernels
 * at several thread counts) on pico and bitcoin — every engine but
 * ipu built by core::makeEngine with default options, so the activity
 * probe picks its stream — and writes the measured cycles/s as a JSON
 * object: git SHA + ISO timestamp metadata plus {design, engine,
 * threads, cycles_per_sec} records (the BENCH_*.json trajectory
 * format — see scripts/bench_baseline.sh).
 * Combine with --benchmark_filter=NONE to skip the google-benchmark
 * suite and only emit the matrix. PARENDI_BENCH_FAST=1 trims the
 * measured cycle counts.
 *
 * `--threads-sweep` widens the par and par-cgen rows to thread counts
 * 1/2/4/8 (the scaling curve for the fused-superstep engine).
 *
 * `--replicas-sweep` appends gang-simulation rows: the cgen engine and
 * par-cgen (4 threads) at R = 1/4/8/16 replica lanes on pico and
 * bitcoin, built by core::makeEngine with default options (so the
 * activity probe picks their stream). cycles_per_sec stays per lane;
 * the rows additionally carry replicas and agg_lane_cycles_per_sec =
 * R * cycles_per_sec (the batched-throughput figure the CI gang guard
 * checks).
 *
 * `--activity-sweep` appends activity A/B rows: cgen and par-cgen
 * (4 threads) with activity-guarded evaluation on vs the always-eval
 * baseline, on the clock-gated design and on bitcoin; the rows carry
 * an `activity` 0/1 column.
 *
 * `--repeat N` takes the best of N full measurements per row (min
 * wall time for the same work) — the defence against scheduler noise
 * on shared hosts.
 *
 * Each design's interp row additionally carries checkpoint columns
 * (snapshot_bytes, raw_blob_bytes, snapshot_ratio, save_ms,
 * restore_ms): the v2 compressed snapshot against the raw engine blob
 * (SimEngine::saveState), and the save/restore wall latency.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include <fstream>
#include <sstream>

#include "bench_common.hh"
#include "core/compiler.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "obs/report.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"
#include "rtl/vcd.hh"
#include "util/logging.hh"
#include "x86/parallel.hh"

using namespace parendi;

namespace {

void
BM_InterpPico(benchmark::State &state)
{
    rtl::Interpreter sim(
        designs::makePico(designs::defaultCoreConfig()));
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpPico);

void
BM_InterpPicoUnfused(benchmark::State &state)
{
    rtl::Interpreter sim(
        designs::makePico(designs::defaultCoreConfig()),
        rtl::LowerOptions::none());
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpPicoUnfused);

void
BM_InterpBitcoin(benchmark::State &state)
{
    rtl::Interpreter sim(designs::makeBitcoin({2, 16}));
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpBitcoin);

void
BM_InterpBitcoinUnfused(benchmark::State &state)
{
    rtl::Interpreter sim(designs::makeBitcoin({2, 16}),
                         rtl::LowerOptions::none());
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpBitcoinUnfused);

void
BM_InterpBitcoinSpecializedOnly(benchmark::State &state)
{
    rtl::LowerOptions lower;
    lower.fuse = false;
    rtl::Interpreter sim(designs::makeBitcoin({2, 16}), lower);
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpBitcoinSpecializedOnly);

/** A cgen engine as users get it: core::makeEngine with default
 *  options, so the activity probe picks its instruction stream. */
std::unique_ptr<core::SimEngine>
makeCgen(rtl::Netlist nl)
{
    core::EngineOptions eo;
    eo.kind = core::EngineKind::Cgen;
    return core::makeEngine(std::move(nl), eo);
}

void
BM_CgenPico(benchmark::State &state)
{
    auto sim = makeCgen(designs::makePico(designs::defaultCoreConfig()));
    if (!static_cast<rtl::CgenInterpreter &>(*sim).native())
        state.SkipWithError("cgen toolchain unavailable");
    for (auto _ : state)
        sim->step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CgenPico);

void
BM_CgenBitcoin(benchmark::State &state)
{
    auto sim = makeCgen(designs::makeBitcoin({2, 16}));
    if (!static_cast<rtl::CgenInterpreter &>(*sim).native())
        state.SkipWithError("cgen toolchain unavailable");
    for (auto _ : state)
        sim->step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CgenBitcoin);

void
BM_TracedInterpBitcoin(benchmark::State &state)
{
    // Steady-state VCD sampling is allocation-free: EngineTracer keeps
    // one scratch BitVec per traced signal and refills it in place via
    // the engine's read primitives, so the per-cycle delta over
    // BM_InterpBitcoin is pure compare-and-format — no malloc on this
    // path.
    rtl::Interpreter sim(designs::makeBitcoin({2, 16}));
    std::ofstream null("/dev/null");
    rtl::VcdWriter vcd(null);
    rtl::EngineTracer tracer(sim, vcd);
    for (auto _ : state)
        tracer.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracedInterpBitcoin);

void
BM_InterpMesh(benchmark::State &state)
{
    rtl::Interpreter sim(
        designs::makeSr(static_cast<uint32_t>(state.range(0))));
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpMesh)->Arg(2)->Arg(3)->Arg(4);

void
BM_MachineStepMesh(benchmark::State &state)
{
    setQuiet(true);
    core::CompilerOptions opt;
    opt.tilesPerChip = 256;
    auto sim = core::compile(
        designs::makeSr(static_cast<uint32_t>(state.range(0))), opt);
    for (auto _ : state)
        sim->step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineStepMesh)->Arg(2)->Arg(3);

std::unique_ptr<core::Simulation>
compileDesign(const std::string &design, uint32_t host_threads)
{
    setQuiet(true);
    core::CompilerOptions opt;
    opt.tilesPerChip = 256;
    opt.machine.hostThreads = host_threads;
    return core::compile(bench::makeDesign(design), opt);
}

void
BM_MachineStepBitcoinPool(benchmark::State &state)
{
    auto sim = compileDesign("bitcoin",
                             static_cast<uint32_t>(state.range(0)));
    for (auto _ : state)
        sim->step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineStepBitcoinPool)->Arg(1)->Arg(8);

void
BM_ParInterpBitcoin(benchmark::State &state)
{
    rtl::ParallelInterpreter sim(
        designs::makeBitcoin({2, 16}),
        static_cast<uint32_t>(state.range(0)));
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParInterpBitcoin)->Arg(1)->Arg(2)->Arg(8);

void
BM_CompileMesh(benchmark::State &state)
{
    setQuiet(true);
    for (auto _ : state) {
        core::CompilerOptions opt;
        opt.chips = 4;
        auto sim = core::compile(
            designs::makeSr(static_cast<uint32_t>(state.range(0))),
            opt);
        benchmark::DoNotOptimize(sim->report().processes);
    }
}
BENCHMARK(BM_CompileMesh)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_FiberExtraction(benchmark::State &state)
{
    rtl::Netlist nl =
        designs::makeSr(static_cast<uint32_t>(state.range(0)));
    for (auto _ : state) {
        fiber::FiberSet fs(nl);
        benchmark::DoNotOptimize(fs.size());
    }
}
BENCHMARK(BM_FiberExtraction)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// -- --json engine matrix ------------------------------------------------

/** `--repeat N`: take the best of N full measurements (min wall time
 *  for the same work), the standard defence against scheduler noise
 *  and frequency ramps on shared CI hosts. 1 = single measurement. */
long g_repeat = 1;

double
measureCyclesPerSec(core::SimEngine &engine, size_t cycles)
{
    // Repeat the measured block until enough wall time has elapsed:
    // the fast engines run `cycles` in well under a millisecond, where
    // a single timing is dominated by clock granularity and scheduler
    // noise.
    using clock = std::chrono::steady_clock;
    const double min_secs = bench::fastMode() ? 0.05 : 0.25;
    engine.step(std::max<size_t>(cycles / 10, 8)); // warm up
    double best = 0;
    for (long rep = 0; rep < std::max(1L, g_repeat); ++rep) {
        size_t done = 0;
        double secs = 0;
        auto t0 = clock::now();
        do {
            engine.step(cycles);
            done += cycles;
            secs = std::chrono::duration<double>(clock::now() - t0)
                       .count();
        } while (secs < min_secs);
        double rate =
            secs > 0 ? static_cast<double>(done) / secs : 0;
        best = std::max(best, rate);
    }
    return best;
}

/**
 * Measure the engine's r_cycle decomposition (after the throughput
 * measurement, so profiling overhead cannot contaminate it) and store
 * it on the record as shares of the sampled wall time. No-op for
 * engines without instrumentation.
 */
void
attachMeasuredSplit(core::SimEngine &engine, bench::PerfRecord &rec)
{
    obs::ProfileOptions popt;
    popt.sampleEvery = 4;
    if (!engine.enableProfiling(popt))
        return;
    engine.step(bench::fastMode() ? 256 : 1024);
    obs::ProfileReport rep = obs::buildReport(*engine.profiler());
    if (rep.sampledWallSec <= 0)
        return;
    rec.hasSplit = true;
    rec.tCompFrac = rep.tCompSec / rep.sampledWallSec;
    rec.tCommFrac = rep.tCommSec / rep.sampledWallSec;
    rec.tSyncFrac = rep.tSyncSec / rep.sampledWallSec;
}

/**
 * Checkpoint columns for the design's interp row: the v2 compressed
 * snapshot size against the raw engine blob, plus the save and
 * restore wall latency (src/ckpt; see DESIGN.md "Checkpoint &
 * replay"). The CI perf smoke asserts snapshot_ratio <= 0.5.
 */
void
attachCkptColumns(core::SimEngine &engine, bench::PerfRecord &rec)
{
    using clock = std::chrono::steady_clock;
    std::stringstream v2, raw;
    auto t0 = clock::now();
    core::saveCheckpoint(engine, v2);
    auto t1 = clock::now();
    engine.saveState(raw);
    rec.snapshotBytes = v2.str().size();
    rec.rawBlobBytes = raw.str().size();
    rec.saveMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::stringstream in(v2.str());
    auto t2 = clock::now();
    core::restoreCheckpoint(engine, in);
    rec.restoreMs =
        std::chrono::duration<double, std::milli>(clock::now() - t2)
            .count();
}

void
runEngineMatrixFor(const std::string &design, size_t cycles,
                   bool threads_sweep,
                   std::vector<bench::PerfRecord> &recs)
{
    auto record = [&](const std::string &engine_name, uint32_t threads,
                      core::SimEngine &engine) {
        bench::PerfRecord rec{design, engine_name, threads,
                              measureCyclesPerSec(engine, cycles)};
        attachMeasuredSplit(engine, rec);
        recs.push_back(rec);
    };

    // Every engine but ipu as users get it: core::makeEngine with
    // default options, so the activity probe picks its stream.
    auto make = [&](core::EngineKind kind, uint32_t threads, bool cgen) {
        core::EngineOptions eo;
        eo.kind = kind;
        eo.threads = threads;
        eo.cgen = cgen;
        return core::makeEngine(bench::makeOptimized(design), eo);
    };
    {
        auto sim = make(core::EngineKind::Interp, 1, false);
        record("interp", 1, *sim);
        attachCkptColumns(*sim, recs.back());
    }
    {
        auto sim = make(core::EngineKind::Cgen, 1, false);
        if (static_cast<rtl::CgenInterpreter &>(*sim).native())
            record("cgen", 1, *sim);
        else
            warn("cgen toolchain unavailable; omitting cgen rows "
                 "for %s", design.c_str());
    }
    for (uint32_t threads : {1u, 8u}) {
        auto sim = compileDesign(design, threads);
        record("ipu", threads, sim->machine());
    }
    const std::vector<uint32_t> par_threads = threads_sweep
        ? std::vector<uint32_t>{1, 2, 4, 8}
        : std::vector<uint32_t>{1, 2, 8};
    const std::vector<uint32_t> cgen_threads = threads_sweep
        ? std::vector<uint32_t>{1, 2, 4, 8}
        : std::vector<uint32_t>{1, 8};
    for (uint32_t threads : par_threads) {
        auto sim = make(core::EngineKind::Par, threads, false);
        record("par", threads, *sim);
    }
    for (uint32_t threads : cgen_threads) {
        // Same BSP supersteps, native evaluate phase (--engine par
        // --cgen on the CLI).
        auto sim = make(core::EngineKind::Par, threads, true);
        if (static_cast<rtl::ParallelInterpreter &>(*sim).native())
            record("par-cgen", threads, *sim);
    }
}

/**
 * Gang-simulation rows: one instruction stream stepping R replica
 * lanes (rtl::GangState SoA layout + lane-vectorized cgen kernels).
 * The engines come from core::makeEngine with default options, so the
 * rows measure what users get: the activity probe picks the guarded
 * or straight-line stream per design. cyclesPerSec is measured per
 * lane as usual — step(n) advances all lanes n cycles — and the
 * record's replicas field lets readers form the aggregate
 * R * cyclesPerSec.
 */
void
runReplicasSweepFor(const std::string &design, size_t cycles,
                    std::vector<bench::PerfRecord> &recs)
{
    for (uint32_t r : {1u, 4u, 8u, 16u}) {
        core::EngineOptions eo;
        eo.kind = core::EngineKind::Cgen;
        eo.replicas = r;
        auto sim = core::makeEngine(bench::makeOptimized(design), eo);
        if (!static_cast<rtl::CgenInterpreter &>(*sim).native()) {
            warn("cgen toolchain unavailable; omitting gang rows "
                 "for %s", design.c_str());
            return;
        }
        bench::PerfRecord rec{design, "cgen", 1,
                              measureCyclesPerSec(*sim, cycles)};
        rec.replicas = r;
        recs.push_back(rec);
    }
    for (uint32_t r : {1u, 4u, 8u, 16u}) {
        core::EngineOptions eo;
        eo.kind = core::EngineKind::Par;
        eo.threads = 4;
        eo.cgen = true;
        eo.replicas = r;
        auto sim = core::makeEngine(bench::makeOptimized(design), eo);
        if (!static_cast<rtl::ParallelInterpreter &>(*sim).native())
            return;
        bench::PerfRecord rec{design, "par-cgen", 4,
                              measureCyclesPerSec(*sim, cycles)};
        rec.replicas = r;
        recs.push_back(rec);
    }
}

/**
 * Activity A/B rows (--activity-sweep): the cgen engine and par-cgen
 * (4 requested threads) with activity-guarded evaluation on vs the
 * always-eval baseline, on the clock-gated design (where guards skip
 * the idle heavy cones) and on bitcoin (always active — the guard
 * overhead floor the CI perf smoke bounds at 5%). The baseline is
 * lowered without an activity plan, as `--activity 0` is, so it runs
 * the straight-line kernel rather than the guarded one swept
 * all-dirty.
 */
void
runActivitySweepFor(const std::string &design, size_t cycles,
                    std::vector<bench::PerfRecord> &recs)
{
    auto lowerFor = [](int act) {
        rtl::LowerOptions lower;
        lower.activityPlan = act != 0;
        return lower;
    };
    for (int act : {1, 0}) {
        rtl::CgenInterpreter sim(bench::makeOptimized(design),
                                 lowerFor(act));
        if (!sim.native()) {
            warn("cgen toolchain unavailable; omitting activity rows "
                 "for %s", design.c_str());
            return;
        }
        sim.setActivity(act != 0);
        bench::PerfRecord rec{design, "cgen", 1,
                              measureCyclesPerSec(sim, cycles)};
        rec.activity = act;
        recs.push_back(rec);
    }
    for (int act : {1, 0}) {
        rtl::ParallelInterpreter sim(bench::makeOptimized(design), 4,
                                     lowerFor(act));
        if (sim.enableNativeKernels() != sim.numShards())
            return;
        sim.setActivity(act != 0);
        bench::PerfRecord rec{design, "par-cgen", 4,
                              measureCyclesPerSec(sim, cycles)};
        rec.activity = act;
        recs.push_back(rec);
    }
}

std::vector<bench::PerfRecord>
runEngineMatrix(bool threads_sweep, bool replicas_sweep,
                bool activity_sweep)
{
    const size_t cycles = bench::fastMode() ? 200 : 2000;
    std::vector<bench::PerfRecord> recs;
    for (const char *design : {"pico", "bitcoin"})
        runEngineMatrixFor(design, cycles, threads_sweep, recs);
    if (replicas_sweep)
        for (const char *design : {"pico", "bitcoin"})
            runReplicasSweepFor(design, cycles, recs);
    if (activity_sweep)
        for (const char *design : {"gated", "bitcoin"})
            runActivitySweepFor(design, cycles, recs);
    return recs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = bench::extractJsonFlag(argc, argv);
    bool threads_sweep =
        bench::extractBoolFlag(argc, argv, "--threads-sweep");
    bool replicas_sweep =
        bench::extractBoolFlag(argc, argv, "--replicas-sweep");
    bool activity_sweep =
        bench::extractBoolFlag(argc, argv, "--activity-sweep");
    g_repeat = bench::extractIntFlag(argc, argv, "--repeat", 1);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!json_path.empty())
        bench::writePerfJson(
            json_path, runEngineMatrix(threads_sweep, replicas_sweep,
                                       activity_sweep));
    return 0;
}
