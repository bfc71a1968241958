/**
 * @file
 * Shared helpers for the benchmark harnesses. Every bench binary
 * regenerates one table or figure of the paper (see DESIGN.md's
 * per-experiment index) and prints it via util/table.hh.
 */

#ifndef PARENDI_BENCH_COMMON_HH
#define PARENDI_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "rtl/opt.hh"
#include "designs/designs.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "x86/model.hh"

namespace parendi::bench {

/** Benchmarks honor PARENDI_BENCH_FAST=1 to trim sweep sizes. */
inline bool
fastMode()
{
    const char *v = std::getenv("PARENDI_BENCH_FAST");
    return v && v[0] == '1';
}

/** Build a named benchmark design ("pico", "bitcoin", "mc", "vta",
 *  "srN", "lrN" with N a number, "prngN"). */
inline rtl::Netlist
makeDesign(const std::string &name)
{
    using namespace designs;
    if (name == "pico")
        return makePico(defaultCoreConfig());
    if (name == "rocket")
        return makeRocket(defaultCoreConfig());
    if (name == "bitcoin")
        return makeBitcoin({4, 16});
    if (name == "mc")
        return makeMc(McConfig{});
    if (name == "vta")
        return makeVta(VtaConfig{});
    if (name.rfind("sr", 0) == 0)
        return makeSr(static_cast<uint32_t>(std::stoul(name.substr(2))));
    if (name.rfind("lr", 0) == 0)
        return makeLr(static_cast<uint32_t>(std::stoul(name.substr(2))));
    if (name.rfind("prng", 0) == 0)
        return makePrngBank(
            static_cast<uint32_t>(std::stoul(name.substr(4))));
    if (name == "gated")
        return makeGated(GatedConfig{});
    fatal("unknown design %s", name.c_str());
}

/** The design as the compiler would see it (optimizer applied) —
 *  used when profiling the x86 baseline so both sides of a
 *  comparison run the same optimized netlist (Verilator is -O3). */
inline rtl::Netlist
makeOptimized(const std::string &name)
{
    return rtl::optimize(makeDesign(name));
}

/** Compile for a given machine shape. */
inline std::unique_ptr<core::Simulation>
compileFor(rtl::Netlist nl, uint32_t chips, uint32_t tiles_per_chip,
           core::CompilerOptions base = core::CompilerOptions{})
{
    base.chips = chips;
    base.tilesPerChip = tiles_per_chip;
    return core::compile(std::move(nl), base);
}

/** Best Parendi configuration over 1..4 chips (paper methodology:
 *  only whole-IPU counts are considered). */
struct IpuBest
{
    uint32_t chips = 1;
    double kHz = 0;
    std::unique_ptr<core::Simulation> sim;
};

inline IpuBest
bestParendi(const std::string &design,
            const std::vector<uint32_t> &chip_counts = {1, 2, 3, 4},
            core::CompilerOptions base = core::CompilerOptions{})
{
    IpuBest best;
    for (uint32_t chips : chip_counts) {
        auto sim = compileFor(makeDesign(design), chips, 1472, base);
        double rate = sim->rateKHz();
        if (rate > best.kHz) {
            best.kHz = rate;
            best.chips = chips;
            best.sim = std::move(sim);
        }
    }
    return best;
}

/** x86 (Verilator-model) results for one design on one machine. */
struct X86Result
{
    double stKHz = 0;
    double mtKHz = 0;
    uint32_t threads = 1;
};

inline X86Result
runX86(const x86::X86Arch &arch, const fiber::FiberSet &fs,
       uint32_t max_threads = 32)
{
    x86::DesignProfile prof = x86::profileDesign(fs);
    X86Result r;
    r.stKHz = x86::modelVerilator(arch, prof, 1).rateKHz();
    x86::BestThreads best = x86::bestVerilator(arch, prof, max_threads);
    r.mtKHz = best.perf.rateKHz();
    r.threads = best.threads;
    return r;
}

/** Geometric mean. */
inline double
gmean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double acc = 0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

// -- Machine-readable results (--json FILE) ------------------------------

/** One measured host-throughput data point. */
struct PerfRecord
{
    std::string design;
    std::string engine;     ///< "interp", "ipu", "par", "par-cgen", ...
    uint32_t threads = 0;
    double cyclesPerSec = 0;

    /** Measured r_cycle decomposition (obs::SuperstepProfiler), as
     *  shares of the sampled cycle wall time; present only for
     *  engines with runtime instrumentation. The JSON fields are
     *  optional, so older BENCH_*.json readers keep working. */
    bool hasSplit = false;
    double tCompFrac = 0;
    double tCommFrac = 0;
    double tSyncFrac = 0;

    /** Gang rows (--replicas-sweep): replica lanes stepped per cycle.
     *  cyclesPerSec is per lane; the JSON additionally carries the
     *  aggregate replicas * cyclesPerSec as agg_lane_cycles_per_sec.
     *  Both fields are emitted only when replicas > 1, so older
     *  readers keep working. */
    uint32_t replicas = 1;

    /** Activity A/B rows (--activity-sweep): 1 = activity-guarded
     *  evaluation, 0 = always-eval baseline. -1 (the default) marks
     *  rows outside the sweep; the JSON field is emitted only when
     *  >= 0, so older readers keep working. */
    int activity = -1;

    /** Checkpoint columns (attached to the interp row of each
     *  design): v2 compressed snapshot bytes vs the raw engine blob
     *  (SimEngine::saveState), plus save/restore wall latency.
     *  Emitted only when snapshotBytes > 0, so older readers keep
     *  working. */
    uint64_t snapshotBytes = 0;
    uint64_t rawBlobBytes = 0;
    double saveMs = 0;
    double restoreMs = 0;
};

/**
 * Pull `--json FILE` out of argv (so the remaining arguments can go
 * to google-benchmark untouched); returns the FILE, or "" if the
 * flag is absent.
 */
inline std::string
extractJsonFlag(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            path = argv[++i];
            continue;
        }
        if (arg.rfind("--json=", 0) == 0) {
            path = arg.substr(7);
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    return path;
}

/**
 * Pull a `--name N` (or `--name=N`) integer flag out of argv the same
 * way extractJsonFlag does; returns @p dflt when absent.
 */
inline long
extractIntFlag(int &argc, char **argv, const std::string &name,
               long dflt)
{
    long v = dflt;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == name && i + 1 < argc) {
            v = std::atol(argv[++i]);
            continue;
        }
        if (arg.rfind(name + "=", 0) == 0) {
            v = std::atol(arg.c_str() + name.size() + 1);
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    return v;
}

/**
 * Pull a boolean flag (e.g. `--threads-sweep`) out of argv the same
 * way extractJsonFlag does; returns whether it was present.
 */
inline bool
extractBoolFlag(int &argc, char **argv, const std::string &name)
{
    bool found = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (name == argv[i]) {
            found = true;
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    return found;
}

/** Commit the results belong to: PARENDI_GIT_SHA (CI sets it from the
 *  checkout), else `git rev-parse HEAD`, else "unknown". */
inline std::string
benchGitSha()
{
    const char *env = std::getenv("PARENDI_GIT_SHA");
    if (env && *env)
        return env;
    std::string sha;
    if (FILE *p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128];
        if (std::fgets(buf, sizeof buf, p))
            sha = buf;
        pclose(p);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    if (sha.size() != 40 ||
        sha.find_first_not_of("0123456789abcdef") != std::string::npos)
        return "unknown";
    return sha;
}

/** UTC wall-clock in ISO-8601 (e.g. "2025-07-01T12:34:56Z"). */
inline std::string
benchTimestampIso()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/**
 * Write the measurements as one JSON object: provenance metadata
 * (git SHA, UTC timestamp) plus a "records" array of
 * {design, engine, threads, cycles_per_sec} with optional
 * t_comp_frac/t_comm_frac/t_sync_frac fields on instrumented rows.
 * This is the BENCH_*.json trajectory format; fatal() on I/O error.
 */
inline void
writePerfJson(const std::string &path,
              const std::vector<PerfRecord> &records)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s", path.c_str());
    out << "{\n"
        << "  \"git_sha\": \"" << benchGitSha() << "\",\n"
        << "  \"timestamp\": \"" << benchTimestampIso() << "\",\n"
        << "  \"records\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        const PerfRecord &r = records[i];
        out << "    {\"design\": \"" << r.design << "\", "
            << "\"engine\": \"" << r.engine << "\", "
            << "\"threads\": " << r.threads << ", "
            << "\"cycles_per_sec\": " << r.cyclesPerSec;
        if (r.hasSplit)
            out << ", \"t_comp_frac\": " << r.tCompFrac
                << ", \"t_comm_frac\": " << r.tCommFrac
                << ", \"t_sync_frac\": " << r.tSyncFrac;
        if (r.replicas > 1)
            out << ", \"replicas\": " << r.replicas
                << ", \"agg_lane_cycles_per_sec\": "
                << r.cyclesPerSec * r.replicas;
        if (r.activity >= 0)
            out << ", \"activity\": " << r.activity;
        if (r.snapshotBytes > 0)
            out << ", \"snapshot_bytes\": " << r.snapshotBytes
                << ", \"raw_blob_bytes\": " << r.rawBlobBytes
                << ", \"snapshot_ratio\": "
                << (r.rawBlobBytes
                        ? static_cast<double>(r.snapshotBytes) /
                            static_cast<double>(r.rawBlobBytes)
                        : 0.0)
                << ", \"save_ms\": " << r.saveMs
                << ", \"restore_ms\": " << r.restoreMs;
        out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out)
        fatal("error writing %s", path.c_str());
}

} // namespace parendi::bench

#endif // PARENDI_BENCH_COMMON_HH
