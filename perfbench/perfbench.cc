/**
 * @file
 * perfbench: the end-to-end and per-layer benchmark of the simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Run it from the root of a checkout; scratch files go to kWorkDir.
 *
 * Each workload generates its design with designs::* and serializes it
 * with frontend::writePnl; from then on the simulator only sees the PNL
 * text. A run is a sequence of bursts, each of which does
 *
 *  1. cold set-ups of the cgen engine, and in the first burst one of
 *     the par-cgen engine at nproc/2 workers (parse, optimize, lower,
 *     emit, $CXX, dlopen, first cycle), each into an empty artifact
 *     directory;
 *  2. rounds of steady-state slices of those engines and of a gang
 *     (R = 8) engine, each slice stepping the same cycles from the same
 *     start state;
 *  3. v2 checkpoint save/restore round trips on the cgen engine;
 *  4. a closed-loop serve burst: nproc-1 clients against an in-process
 *     serve host whose pool is nproc/2 wide;
 *
 * and then the modeled IPU rate of core::compile on one chip.
 *
 * Every timed result is checked against the reference interpreter (see
 * harness.hh). With --trace 0 the last stdout line carries the
 * end-to-end metrics; with --trace 1 it carries the per-layer metrics of
 * a traced run, which records spans around each layer call and reads
 * the engines' obs profilers. See README.md.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "core/stats.hh"
#include "designs/designs.hh"
#include "fiber/fiber.hh"
#include "frontend/pnl.hh"
#include "harness.hh"
#include "obs/report.hh"
#include "rtl/cgen.hh"
#include "rtl/opt.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "util/logging.hh"
#include "x86/model.hh"
#include "x86/parallel.hh"

namespace fs = std::filesystem;
using namespace parendi;
using namespace perfbench;

namespace {

/** Bursts per untraced run (see run()). */
constexpr uint32_t kBursts = 3;
/** Cycles run before the start state of the timed slices. */
constexpr uint64_t kWarmCycles = 1024;
/** Timed slices per engine and run, at least; more while time
 *  remains. */
constexpr size_t kMinSlices = 20;
/** Checkpoint save/restore round trips on the cgen engine per burst. */
constexpr size_t kCkptReps = 50;
/** Cycles stepped after a restore to check the continuation. */
constexpr uint64_t kTailCycles = 1000;
/** Cycles per serve step request: the default batch of
 *  bench/serve_throughput, the repository's closed-loop serve driver.
 *  Serve peeks land on multiples of it. */
constexpr uint64_t kStepCycles = 2048;
/** Each serve client checkpoints once and restores once in every
 *  group of this many steps, at seeded positions. */
constexpr uint32_t kCkptEvery = 8;
/** Gang lanes of the gang_lane_cps engine. */
constexpr uint32_t kGangLanes = 8;
/** Artifact caches, trace files and set-up directories, relative to
 *  the checkout root. */
constexpr const char *kWorkDir = ".bench_build/perfbench/work";

struct Workload
{
    const char *name;
    rtl::Netlist (*make)();
    /** Cold cgen set-ups per burst. The $CXX time of one set-up varies
     *  by up to 2x on the shared host, with nothing measurable beside
     *  it tracking the change, so setup_s is the median of many; fewer
     *  where one $CXX takes many seconds. */
    uint32_t setupsPerBurst;
    /** Cycles per timed slice: short enough that a run times a hundred
     *  or more slices per engine. */
    uint64_t sliceCycles;
    /** Serve sessions stay within this many cycles past kWarmCycles. */
    uint64_t serveCycles;
    /** Share of --seconds given to the serve window; the steady-state
     *  slices get the rest. Only serve-gated bounds a serve figure. */
    double serveShare;
    /** True where the checkpoint metrics are measured over the wire. */
    bool ckptOverWire;
};

rtl::Netlist makeSocMesh() { return designs::makeSr(2); }
rtl::Netlist makeMinerDense() { return designs::makeBitcoin(); }
rtl::Netlist
makeServeGated()
{
    // 16 units instead of the default 64, so the $CXX of each set-up
    // fits the run budget; the guards still skip most groups (about
    // 61% here, 81% at 64 units).
    designs::GatedConfig cfg;
    cfg.units = 16;
    return designs::makeGated(cfg);
}

const Workload kWorkloads[] = {
    {"soc-mesh", makeSocMesh, 1, 4096, 65536, 0.15, false},
    {"miner-dense", makeMinerDense, 3, 16384, 262144, 0.15, false},
    {"serve-gated", makeServeGated, 3, 16384, 262144, 0.6, true},
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            fatal("missing value for %s", k.c_str());
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else
            fatal("unknown argument %s", k.c_str());
    }
    if (a.seconds <= 0)
        fatal("--seconds must be positive");
    return a;
}

/** Named metrics in insertion order, printed as the result object. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, value, unit});
    }

    void
    append(const Metrics &other)
    {
        items_.insert(items_.end(), other.items_.begin(), other.items_.end());
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (size_t i = 0; i < items_.size(); ++i)
            s += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           i ? ", " : "", items_[i].name.c_str(),
                           items_[i].value, items_[i].unit.c_str());
        return s + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/** Point the directory artifact cache of later compiles at @p dir. */
void
useCgenDir(const fs::path &dir)
{
    fs::create_directories(dir);
    setenv("PARENDI_CGEN_DIR", dir.c_str(), 1);
}

/** A fresh, empty directory. */
fs::path
freshDir(const fs::path &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

core::EngineOptions
cgenOptions(uint32_t replicas = 1)
{
    core::EngineOptions eo;
    eo.kind = core::EngineKind::Cgen;
    eo.replicas = replicas;
    return eo;
}

core::EngineOptions
parOptions(uint32_t threads)
{
    core::EngineOptions eo;
    eo.kind = core::EngineKind::Par;
    eo.threads = threads;
    eo.cgen = true;
    return eo;
}

bool
isNative(const core::SimEngine &e)
{
    if (auto *c = dynamic_cast<const rtl::CgenInterpreter *>(&e))
        return c->native();
    if (auto *p = dynamic_cast<const rtl::ParallelInterpreter *>(&e))
        return p->native();
    return false;
}

/** One cold set-up: PNL text in to first completed cycle. */
std::unique_ptr<core::SimEngine>
coldSetup(const std::string &pnl, const core::EngineOptions &eo,
          const fs::path &dir, double *seconds)
{
    useCgenDir(freshDir(dir));
    auto t0 = Clock::now();
    auto engine = core::makeEngine(rtl::optimize(frontend::parsePnl(pnl)),
                                   eo);
    engine->step(1);
    *seconds = secondsSince(t0);
    return engine;
}

/** One engine of the steady-state phase: its slice start state and
 *  the seconds of each timed slice. */
struct Sliced
{
    core::SimEngine *engine = nullptr;
    std::string what;
    bool lanes = false;             ///< check every gang lane
    core::ArchState start;
    std::vector<double> seconds;
};

bool
checkSliced(const Sliced &s, const Reference &ref, Ledger &ledger)
{
    return s.lanes ? checkLanes(ledger, *s.engine, ref, s.what)
                   : checkScalar(ledger, *s.engine, ref, s.what);
}

/** Step @p engine to the warm-up cycle, check it there and keep that
 *  state as the start of every timed slice. */
Sliced
startSlices(core::SimEngine &engine, const std::string &what, bool lanes,
            const Reference &ref, Ledger &ledger)
{
    Sliced s;
    s.engine = &engine;
    s.what = what;
    s.lanes = lanes;
    engine.step(kWarmCycles - engine.cycles());
    checkSliced(s, ref, ledger);
    engine.exportArch(s.start);
    return s;
}

/**
 * Time slices of w.sliceCycles from each engine's start state, one slice
 * per engine per round, until @p budget seconds have passed (and at
 * least @p minRounds rounds ran). Interleaving spreads each engine's
 * samples over the whole window. Every slice is checked against the
 * reference.
 */
void
timeRounds(std::vector<Sliced> &phases, const Workload &w,
           const Reference &ref, double budget, size_t minRounds,
           Ledger &ledger)
{
    auto t0 = Clock::now();
    for (size_t r = 0; r < minRounds || secondsSince(t0) < budget; ++r)
        for (Sliced &s : phases) {
            s.engine->importArch(s.start);
            auto ts = Clock::now();
            s.engine->step(w.sliceCycles);
            s.seconds.push_back(secondsSince(ts));
            checkSliced(s, ref, ledger);
        }
}

/**
 * The fastest of many timed samples: the time a step takes when the
 * shared host is not slowing this thread. Other tenants halve this
 * thread's speed for stretches from under a second to minutes, and the
 * share of a run they take varies from run to run. Any quantile of the
 * samples jumps between the fast and the slow speed when that share
 * crosses it; the fastest sample stays with the fast speed as long as
 * a few samples see it (see README.md).
 */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/** Cycles (lane-cycles for a gang) per second of slices taking
 *  @p seconds. */
double
rate(const Workload &w, double seconds, uint32_t lanes = 1)
{
    return double(w.sliceCycles) * lanes / seconds;
}

uint64_t
counter(const obs::ProfileReport &rep, const char *name)
{
    for (const auto &[n, v] : rep.counters)
        if (n == name)
            return v;
    return 0;
}

/** Peak resident set of this process, MiB. */
double
peakRssMib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** Whether /proc/cpuinfo reports a hypervisor. */
bool
virtualized()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("flags", 0) == 0)
            return line.find(" hypervisor") != std::string::npos;
    return false;
}

/** The compiler command cgen runs ($PARENDI_CXX, then $CXX, then c++,
 *  with the flags rtl/cgen.cc appends for scalar kernels). */
std::string
cgenCommand()
{
    const char *cxx = std::getenv("PARENDI_CXX");
    if (!cxx || !*cxx)
        cxx = std::getenv("CXX");
    if (!cxx || !*cxx)
        cxx = "c++";
    return std::string(cxx) + " -O2 -fPIC -shared -std=c++17";
}

/** Save/restore round trips of v2 checkpoints on @p engine, each
 *  restore checked against the reference. The traced run also times
 *  the bare exportArch/importArch. Returns the last blob. */
std::string
checkpointReps(core::SimEngine &engine, const Reference &ref, bool traced,
               Ledger &ledger, std::vector<double> &saveMs,
               std::vector<double> &restoreMs, std::vector<double> &exportMs,
               std::vector<double> &importMs)
{
    std::string blob;
    for (size_t i = 0; i < kCkptReps; ++i) {
        std::ostringstream out;
        auto t0 = Clock::now();
        core::saveCheckpoint(engine, out);
        saveMs.push_back(secondsSince(t0) * 1e3);
        blob = out.str();
        std::istringstream in(blob);
        t0 = Clock::now();
        core::restoreCheckpoint(engine, in);
        restoreMs.push_back(secondsSince(t0) * 1e3);
        checkScalar(ledger, engine, ref, "restored checkpoint");
        if (traced) {
            core::ArchState st;
            t0 = Clock::now();
            engine.exportArch(st);
            exportMs.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            engine.importArch(st);
            importMs.push_back(secondsSince(t0) * 1e3);
        }
    }
    return blob;
}

// -- Serve phase -----------------------------------------------------

struct Step
{
    uint64_t cycles = 0;
    double ms = 0;      ///< round trip
    double end = 0;     ///< completion, seconds on the run clock
};

/** What one client index saw over all serve bursts. */
struct ClientLog
{
    std::vector<double> createMs, peekMs, ckptMs, restoreMs;
    std::vector<Step> steps;
    uint64_t cycles = 0;
};

/**
 * The in-process serve host: a session manager whose pool is nproc/2
 * wide behind a socket server on an ephemeral port. Clients create
 * par+cgen sessions of the workload's design; the host resolves the
 * design name to the workload's PNL text.
 */
class ServeHost
{
  public:
    ServeHost(const std::string &design, const std::string &pnl,
              uint32_t poolThreads, const fs::path &storeDir)
        : design_(design), pnl_(pnl),
          manager_(managerOptions(poolThreads, storeDir)),
          server_(manager_, 0)
    {
        server_.start();
    }

    ServeHost(const ServeHost &) = delete;
    ServeHost &operator=(const ServeHost &) = delete;
    ~ServeHost() { server_.stop(); }

    uint16_t port() const { return server_.port(); }
    const std::string &design() const { return design_; }

    /** Create and destroy one session: the store's one compile.
     *  Returns the create round trip in ms. */
    double
    coldCreate(Ledger &ledger, Tracer *tracer)
    {
        Scope sp(tracer, "serve.create_cold");
        serve::Client c;
        ledger.check(c.connect(port()), "serve connect");
        bool native = false;
        auto t0 = Clock::now();
        uint64_t id = c.createSession(design_, "par", 0, true, 0, 1, &native);
        double ms = secondsSince(t0) * 1e3;
        ledger.check(id != 0 && native, "serve cold create");
        ledger.check(c.destroySession(id), "serve destroy");
        return ms;
    }

    /** The host's artifact_hits and artifact_misses counters. */
    std::pair<uint64_t, uint64_t>
    artifactCounts(Ledger &ledger)
    {
        serve::Client c;
        std::vector<std::pair<std::string, uint64_t>> stats;
        std::pair<uint64_t, uint64_t> out{0, 0};
        if (ledger.check(c.connect(port()) && c.stats(&stats),
                         "serve stats"))
            for (const auto &[n, v] : stats) {
                if (n == serve::kArtifactHits)
                    out.first = v;
                else if (n == serve::kArtifactMisses)
                    out.second = v;
            }
        return out;
    }

  private:
    serve::ManagerOptions
    managerOptions(uint32_t poolThreads, const fs::path &storeDir)
    {
        serve::ManagerOptions mopt;
        mopt.poolThreads = poolThreads;
        mopt.store.dir = storeDir.string();
        mopt.resolveDesign = [this](const std::string &spec) {
            if (spec != design_)
                fatal("unknown design '%s'", spec.c_str());
            return rtl::optimize(frontend::parsePnl(pnl_));
        };
        return mopt;
    }

    const std::string design_;
    const std::string pnl_;
    serve::SessionManager manager_;
    serve::Server server_;
};

/**
 * One closed-loop client for one burst: create a par+cgen session, then
 * until @p deadline loop with no think time over groups of kCkptEvery
 * step requests of kStepCycles each. Every step is followed by a peek
 * of a seeded output port, compared with the reference. In each group
 * one checkpoint and one restore (a rollback to the latest checkpoint)
 * fall after seeded steps. A step that would pass the reference's peek
 * horizon is preceded by a restore of the session's first checkpoint.
 * Then destroy the session. The cadence is assumed, not taken from
 * measured traffic; the run reports the share of each request type.
 */
void
runClient(const ServeHost &host, uint32_t idx, uint64_t seed,
          Clock::time_point epoch, Clock::time_point deadline,
          const Reference &ref, Ledger &ledger, Tracer *tracer,
          ClientLog &log)
{
    std::mt19937_64 rng(seed);
    const uint32_t session = idx + 1;
    serve::Client c;
    if (!ledger.check(c.connect(host.port()), "serve connect"))
        return;
    auto ms = [](Clock::time_point t0) { return secondsSince(t0) * 1e3; };

    uint64_t id = 0;
    bool native = false;
    {
        Scope sp(tracer, "serve.create", session);
        auto t0 = Clock::now();
        id = c.createSession(host.design(), "par", 0, true, 0, 1, &native);
        log.createMs.push_back(ms(t0));
    }
    if (!ledger.check(id != 0 && native,
                      "serve create: " + c.lastError()))
        return;

    uint64_t cur = 0;
    // The first checkpoint and the latest one: (cycle, blob).
    std::pair<uint64_t, std::string> first, latest;
    auto checkpoint = [&](std::pair<uint64_t, std::string> &into) {
        Scope sp(tracer, "serve.checkpoint", session);
        std::string blob;
        auto t0 = Clock::now();
        bool ok = c.checkpoint(id, &blob);
        log.ckptMs.push_back(ms(t0));
        if (ledger.check(ok, "serve checkpoint: " + c.lastError()))
            into = {cur, std::move(blob)};
        return ok;
    };
    auto restore = [&](const std::pair<uint64_t, std::string> &from) {
        Scope sp(tracer, "serve.restore", session);
        auto t0 = Clock::now();
        bool ok = c.restore(id, from.second);
        log.restoreMs.push_back(ms(t0));
        if (ledger.check(ok, "serve restore: " + c.lastError()))
            cur = from.first;
        return ok;
    };
    if (!checkpoint(first))
        return;
    latest = first;
    const std::vector<std::string> &outs = ref.outputNames();
    bool live = true;
    while (live && Clock::now() < deadline) {
        const uint32_t ckptAt = rng() % kCkptEvery;
        const uint32_t restoreAt = rng() % kCkptEvery;
        for (uint32_t i = 0; i < kCkptEvery && Clock::now() < deadline;
             ++i) {
            if (cur + kStepCycles > ref.peekHorizon() && !restore(first)) {
                live = false;
                break;
            }
            {
                Scope sp(tracer, "serve.step", session);
                uint64_t after = 0;
                auto t0 = Clock::now();
                bool ok = c.step(id, kStepCycles, &after);
                auto t1 = Clock::now();
                log.steps.push_back(
                    {kStepCycles,
                     std::chrono::duration<double, std::milli>(t1 - t0)
                         .count(),
                     std::chrono::duration<double>(t1 - epoch).count()});
                if (ledger.check(ok && after == cur + kStepCycles,
                                 "serve step: " + c.lastError())) {
                    cur += kStepCycles;
                    log.cycles += kStepCycles;
                }
            }
            if (!outs.empty()) {
                size_t p = rng() % outs.size();
                Scope sp(tracer, "serve.peek", session);
                rtl::BitVec v;
                auto t0 = Clock::now();
                bool ok = c.peek(id, outs[p], &v);
                log.peekMs.push_back(ms(t0));
                ledger.check(ok && v == ref.output(p, cur),
                             "serve peek " + outs[p] + " at cycle " +
                                 std::to_string(cur));
            }
            if (i == ckptAt)
                checkpoint(latest);
            if (i == restoreAt)
                restore(latest);
        }
    }
    ledger.check(c.destroySession(id), "serve destroy: " + c.lastError());
}

/** Seconds of one serve sub-window (see serveRate). */
constexpr double kServeWindowSec = 0.25;

/** What the clients saw in one serve burst. */
struct ServeBurst
{
    std::vector<ClientLog> logs;    ///< one per client
    double t0 = 0, t1 = 0;          ///< [start, end) on the run clock
};

/** Run every client for one burst of @p seconds. */
ServeBurst
serveBurst(const ServeHost &host, uint32_t clients, uint64_t seed,
           uint32_t burst, Clock::time_point epoch, double seconds,
           const Reference &ref, Ledger &ledger, Tracer *tracer)
{
    ServeBurst b;
    b.logs.resize(clients);
    std::vector<ClientLog> &logs = b.logs;
    auto t0 = Clock::now();
    auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (uint32_t i = 0; i < logs.size(); ++i)
        threads.emplace_back(runClient, std::cref(host), i,
                             seed * 1000003u + burst * 101u + i, epoch,
                             deadline, std::cref(ref), std::ref(ledger),
                             tracer, std::ref(logs[i]));
    for (auto &t : threads)
        t.join();
    auto sec = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - epoch).count();
    };
    b.t0 = sec(t0);
    b.t1 = sec(Clock::now());
    return b;
}

/**
 * Aggregate served cycles per second: the cycles of the steps that
 * complete in each kServeWindowSec sub-window of every burst, median
 * over the sub-windows. Session creation is inside the first
 * sub-window of each burst.
 */
double
serveRate(const std::vector<ServeBurst> &bursts)
{
    std::vector<double> rates;
    for (const ServeBurst &b : bursts) {
        size_t n = static_cast<size_t>((b.t1 - b.t0) / kServeWindowSec);
        std::vector<double> cycles(n, 0.0);
        for (const ClientLog &l : b.logs)
            for (const Step &s : l.steps) {
                double k = (s.end - b.t0) / kServeWindowSec;
                if (k >= 0 && k < double(n))
                    cycles[static_cast<size_t>(k)] += double(s.cycles);
            }
        for (double c : cycles)
            rates.push_back(c / kServeWindowSec);
    }
    return median(rates);
}

/** Every value @p field gives for a client log, over all bursts. */
template <typename F>
std::vector<double>
collect(const std::vector<ServeBurst> &bursts, F field)
{
    std::vector<double> out;
    for (const ServeBurst &b : bursts)
        for (const ClientLog &l : b.logs)
            for (double v : field(l))
                out.push_back(v);
    return out;
}

// -- Traced set-up pipelines -------------------------------------------

/**
 * The cgen set-up pipeline again, one layer call at a time with a span
 * around each: parse, optimize, lower, emit, cold compile, and a warm
 * compile (cache hit + dlopen) after it. Returns the seconds from PNL
 * text to the loaded kernel.
 */
double
traceCgenSetup(const std::string &pnl, const fs::path &dir, Tracer *tracer,
               Ledger &ledger, Metrics &layer)
{
    auto t0 = Clock::now();
    Scope root(tracer, "setup.cgen");
    rtl::Netlist parsed;
    {
        Scope sp(tracer, "frontend.parse");
        parsed = frontend::parsePnl(pnl);
    }
    rtl::OptStats ostats;
    rtl::Netlist nl;
    {
        Scope sp(tracer, "rtl.opt");
        nl = rtl::optimize(parsed, &ostats);
    }
    layer.add("rtl.opt.nodes_out", double(ostats.nodesAfter), "count");
    std::unique_ptr<rtl::Interpreter> interp;
    {
        Scope sp(tracer, "rtl.lower");
        interp = std::make_unique<rtl::Interpreter>(std::move(nl));
    }
    std::vector<const rtl::EvalProgram *> progs{&interp->program()};
    std::string src;
    {
        Scope sp(tracer, "rtl.cgen.emit");
        src = rtl::cgenEmitSource(progs);
    }
    layer.add("rtl.cgen.src_bytes", double(src.size()), "bytes");
    rtl::CgenOptions co;
    co.buildDir = freshDir(dir).string();
    double cold = 0, warm = 0;
    {
        Scope sp(tracer, "rtl.cgen.compile_cold");
        auto tc = Clock::now();
        ledger.check(rtl::CgenModule::compile(progs, co) != nullptr,
                     "cgen compile");
        cold = secondsSince(tc);
    }
    double total = secondsSince(t0);
    {
        Scope sp(tracer, "rtl.cgen.compile_warm");
        auto tw = Clock::now();
        ledger.check(rtl::CgenModule::compile(progs, co) != nullptr,
                     "cgen warm compile");
        warm = secondsSince(tw);
    }
    layer.add("rtl.cgen.cxx_s", cold - warm, "s");
    layer.add("rtl.cgen.load_ms", warm * 1e3, "ms");
    return total;
}

/** The par set-up pipeline with spans: fibers, engine construction
 *  (fibers + LPT + shard lowering), cold and warm compile of the one
 *  shard TU. */
void
traceParSetup(const std::string &pnl, uint32_t threads,
              const fs::path &dir, Tracer *tracer, Ledger &ledger,
              Metrics &layer)
{
    rtl::Netlist nl = rtl::optimize(frontend::parsePnl(pnl));
    {
        Scope sp(tracer, "fiber");
        fiber::FiberSet fibers(nl);
        layer.add("fiber.count", double(fibers.size()), "count");
        layer.add("fiber.shared_nodes", double(fibers.numShared()),
                  "count");
    }
    Scope root(tracer, "setup.par");
    std::unique_ptr<rtl::ParallelInterpreter> par;
    {
        Scope sp(tracer, "x86.par.construct");
        par = std::make_unique<rtl::ParallelInterpreter>(std::move(nl),
                                                         threads);
    }
    rtl::CgenOptions co;
    co.buildDir = freshDir(dir).string();
    double cold = 0, warm = 0;
    {
        Scope sp(tracer, "rtl.cgen.par_compile_cold");
        auto tc = Clock::now();
        par->enableNativeKernels(co);
        cold = secondsSince(tc);
    }
    {
        Scope sp(tracer, "rtl.cgen.par_compile_warm");
        auto tw = Clock::now();
        ledger.check(par->enableNativeKernels(co) == par->numShards(),
                     "par warm compile");
        warm = secondsSince(tw);
    }
    layer.add("rtl.cgen.par_cxx_s", cold - warm, "s");
    uint64_t bytes = 0;
    for (const auto &e : fs::directory_iterator(co.buildDir))
        if (e.path().extension() == ".cc")
            bytes += fs::file_size(e.path());
    layer.add("rtl.cgen.par_src_bytes", double(bytes), "bytes");
}

/** Per-layer metrics from the profilers of the cgen engine (into
 *  @p layer) and the par engine (into @p parLayer), and the modeled
 *  r_cycle splits printed beside the measured one. */
void
profiledLayers(const core::SimEngine &cgen, const core::SimEngine &par,
               const std::string &pnl, uint32_t threads, Metrics &layer,
               Metrics &parLayer)
{
    obs::ProfileReport rep = obs::buildReport(*cgen.profiler());
    double simulated =
        std::max<double>(1, counter(rep, obs::kCyclesSimulated));
    layer.add("rtl.eval.ns_per_cycle",
              rep.evalSec * 1e9 / std::max<double>(1, rep.cyclesSampled),
              "ns");
    layer.add("rtl.eval.instrs_per_cycle",
              counter(rep, obs::kInstrsRetired) / simulated, "instrs");
    double groups = counter(rep, obs::kEvalGroupsTotal);
    layer.add("rtl.eval.active_group_frac",
              groups ? 1 - counter(rep, obs::kEvalGroupsSkipped) / groups
                     : 1,
              "frac");

    rep = obs::buildReport(*par.profiler());
    double n = std::max<double>(1, rep.cyclesSampled);
    auto us = [&](double sec) { return sec * 1e6 / n; };
    parLayer.add("x86.par.t_comp_us", us(rep.tCompSec), "us");
    parLayer.add("x86.par.t_comm_us", us(rep.tCommSec), "us");
    parLayer.add("x86.par.t_sync_us", us(rep.tSyncSec), "us");
    parLayer.add("x86.par.commit_us", us(rep.commitSec), "us");
    parLayer.add("x86.par.latch_us", us(rep.latchSec), "us");
    parLayer.add("x86.par.exchange_us", us(rep.exchangeSec), "us");
    parLayer.add("x86.par.eval_us", us(rep.evalSec), "us");
    parLayer.add("x86.par.publish_us", us(rep.publishSec), "us");
    parLayer.add("x86.par.exchange_words_per_cycle",
              double(counter(rep, obs::kExchangeWordsMoved)) /
                  std::max<double>(1, counter(rep, obs::kCyclesSimulated)),
              "words");
    double mx = 0, sum = 0;
    for (double v : rep.shardEvalNs) {
        mx = std::max(mx, v);
        sum += v;
    }
    parLayer.add("x86.par.eval_imbalance",
              sum > 0 ? mx * rep.shardEvalNs.size() / sum : 1, "ratio");
    double waitMax = 0;
    for (size_t i = 0; i < rep.workerWorkSec.size(); ++i) {
        double tot = rep.workerWorkSec[i] + rep.workerBarrierSec[i];
        if (tot > 0)
            waitMax = std::max(waitMax, rep.workerBarrierSec[i] / tot);
    }
    parLayer.add("util.bsp_pool.wait_share_max", waitMax, "frac");
    parLayer.add("x86.par.sampled_khz", rep.rateKHz(), "kHz");

    // Model beside measurement: the x86 Verilator model at the same
    // thread count, and the IPU model of the one-chip compile.
    fiber::FiberSet fibers(par.netlist());
    x86::X86Perf perf = x86::modelVerilator(
        x86::X86Arch::ix3(), x86::profileDesign(fibers), threads);
    obs::ModeledSplit m;
    m.source = "x86 model (ix3)";
    m.unit = "model ns";
    m.comp = perf.tCompNs;
    m.comm = perf.tCommNs;
    m.sync = perf.tSyncNs;
    m.rateKHz = perf.rateKHz();
    parLayer.add("x86.model.khz", perf.rateKHz(), "kHz");
    std::printf("%s", obs::formatModeledVsMeasured(m, rep).c_str());
    auto sim = core::compile(frontend::parsePnl(pnl));
    std::printf("%s",
                obs::formatModeledVsMeasured(core::modeledSplit(*sim), rep)
                    .c_str());
}

std::string
joined(const std::vector<double> &v)
{
    std::string s;
    for (double x : v)
        s += strprintf("%s%.6g", s.empty() ? "" : ", ", x);
    return s;
}

// -- The run ---------------------------------------------------------

int
run(const Args &a)
{
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads)
        if (a.workload == w.name)
            wp = &w;
    if (!wp)
        fatal("unknown workload '%s'", a.workload.c_str());
    const Workload &w = *wp;

    const uint32_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const uint32_t parThreads = std::max(1u, nproc / 2);
    const uint32_t clients = std::max(1u, nproc - 1);
    const fs::path work(kWorkDir);
    const fs::path runDir = freshDir(work / "run");
    const auto epoch = Clock::now();

    const std::string pnl = frontend::writePnl(w.make());
    const uint64_t c0 = kWarmCycles, c1 = c0 + w.sliceCycles;
    Reference ref(pnl, {c0, c1, c1 + kTailCycles}, kStepCycles,
                  c0 + w.serveCycles);

    Ledger ledger;
    Tracer tracerObj;
    Tracer *tracer = a.trace ? &tracerObj : nullptr;
    // Par figures go to parLayer, which is reported only when the par
    // engine runs the workers it was asked for.
    Metrics e2e, layer, parLayer;
    bool parOk = false;

    // The run is a sequence of bursts. Each burst does cold set-ups of
    // cgen (the first burst also one of par), then times rounds of
    // steady-state slices on the newest engines, then a serve burst.
    // Spreading the timed samples over the whole run, between the
    // set-ups, keeps a slow stretch of the shared host from deciding a
    // metric. The traced run is one burst with one set-up of each,
    // whose steady half runs with the profilers on.
    const uint32_t bursts = a.trace ? 1 : kBursts;
    const uint32_t setups = a.trace ? 1 : w.setupsPerBurst;
    const double steadySec = a.seconds * (1 - w.serveShare) / bursts;
    const double serveSec = a.seconds * w.serveShare / bursts;
    // Set-up and slice seconds.
    std::vector<double> cgenSetup, parSetup, cgenSec, parSec, gangSec;
    std::unique_ptr<core::SimEngine> cgen, par, gang;
    Sliced parStart, gangStart;
    std::unique_ptr<ServeHost> host;
    std::vector<ServeBurst> serve;
    double coldCreateMs = 0;
    std::vector<double> saveMs, restoreMs, exportMs, importMs;
    std::string blob;
    for (uint32_t b = 0; b < bursts; ++b) {
        double s = 0;
        for (uint32_t i = 0; i < setups; ++i) {
            cgen = coldSetup(pnl, cgenOptions(),
                             runDir / strprintf("setup-cgen-%u-%u", b, i),
                             &s);
            cgenSetup.push_back(s);
            ledger.check(isNative(*cgen), "cgen native kernels");
        }

        if (b == 0) {
            // The par and gang kernels of the untraced run come from a
            // cache kept across runs: their cold set-up is not an
            // end-to-end metric (see README.md) and a par $CXX takes up
            // to 11 s. The traced run times one cold par set-up.
            const fs::path kcache = work / "kcache";
            if (tracer) {
                par = coldSetup(pnl, parOptions(parThreads),
                                runDir / "setup-par", &s);
                parSetup.push_back(s);
            }
            useCgenDir(kcache);
            if (!tracer)
                par = core::makeEngine(
                    rtl::optimize(frontend::parsePnl(pnl)),
                    parOptions(parThreads));
            ledger.check(isNative(*par), "par native kernels");

            auto &pi = dynamic_cast<rtl::ParallelInterpreter &>(*par);
            const uint32_t workers = pi.numWorkers();
            const size_t shards = pi.numShards();
            // The engine may pick fewer shards than threads; it must not
            // run fewer workers than requested or than its shards (the
            // hardware-concurrency clamp of the BENCH_PR5-PR10 rows).
            parOk = workers == parThreads && workers >= shards;
            std::printf(
                "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %u, \"par_workers_requested\": %u, "
                "\"par_workers_effective\": %u, "
                "\"par_shards_requested\": %u, "
                "\"par_shards_effective\": %zu, \"par_ok\": %s, "
                "\"llc_bytes\": %ld, \"cgen_cxx\": \"%s\", "
                "\"virtualized\": %s}}\n",
                w.name, static_cast<unsigned long long>(a.seed), nproc,
                parThreads, workers, parThreads, shards,
                parOk ? "true" : "false", sysconf(_SC_LEVEL3_CACHE_SIZE),
                cgenCommand().c_str(), virtualized() ? "true" : "false");
            if (!parOk)
                std::fprintf(stderr,
                             "perfbench: par runs %u workers for %zu shards, "
                             "%u requested; its figures are left out\n",
                             workers, shards, parThreads);
            if (tracer) {
                layer.add("x86.par.shards", double(shards), "count");
                layer.add("x86.par.workers", double(workers), "count");
                double traced = traceCgenSetup(pnl, runDir / "trace-cgen",
                                               tracer, ledger, layer);
                layer.add("trace.overhead.setup_frac",
                          traced / cgenSetup[0] - 1, "frac");
                traceParSetup(pnl, parThreads, runDir / "trace-par", tracer,
                              ledger, parLayer);
            }
            gang = core::makeEngine(rtl::optimize(frontend::parsePnl(pnl)),
                                    cgenOptions(kGangLanes));
            ledger.check(isNative(*gang), "gang native kernels");
            gangStart = startSlices(*gang, "gang", true, ref, ledger);
            parStart = startSlices(*par, "par", false, ref, ledger);
            // The untraced run opens the store on the kernel cache, so
            // it does not pay the par $CXX again; the traced run starts
            // it empty to time the cold create.
            host = std::make_unique<ServeHost>(
                w.name, pnl, parThreads,
                tracer ? freshDir(runDir / "serve-store") : kcache);
            coldCreateMs = host->coldCreate(ledger, tracer);
        }

        std::vector<Sliced> steady = {
            startSlices(*cgen, "cgen", false, ref, ledger), parStart,
            gangStart};
        const size_t minRounds = (kMinSlices + bursts - 1) / bursts;
        timeRounds(steady, w, ref, tracer ? steadySec / 2 : steadySec,
                   minRounds, ledger);
        auto append = [](std::vector<double> &to,
                         const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(cgenSec, steady[0].seconds);
        append(parSec, steady[1].seconds);
        append(gangSec, steady[2].seconds);
        if (tracer) {
            cgen->enableProfiling();
            par->enableProfiling();
            std::vector<Sliced> profiled = steady;
            for (Sliced &sl : profiled) {
                sl.what += " profiled";
                sl.seconds.clear();
            }
            timeRounds(profiled, w, ref, steadySec / 2, minRounds, ledger);
            layer.add("trace.overhead.cgen_frac",
                      fastest(profiled[0].seconds) / fastest(cgenSec) - 1,
                      "frac");
            parLayer.add("trace.overhead.par_frac",
                         fastest(profiled[1].seconds) / fastest(parSec) - 1,
                         "frac");
            profiledLayers(*cgen, *par, pnl, parThreads, layer, parLayer);
        }
        // Checkpoints on the cgen engine, at cycle c1.
        blob = checkpointReps(*cgen, ref, tracer != nullptr, ledger, saveMs,
                              restoreMs, exportMs, importMs);
        serve.push_back(serveBurst(*host, clients, a.seed, b, epoch,
                                   serveSec, ref, ledger, tracer));
    }
    const auto [artifactHits, artifactMisses] =
        host->artifactCounts(ledger);
    host.reset();
    const double cgenCps = rate(w, fastest(cgenSec));
    const double parCps = rate(w, fastest(parSec));
    const double gangLaneCps = rate(w, fastest(gangSec), kGangLanes);

    // The IPU model (simulated time; deterministic).
    std::unique_ptr<core::Simulation> sim;
    {
        Scope sp(tracer, "core.compile");
        sim = core::compile(frontend::parsePnl(pnl));
    }

    // The last restored checkpoint must continue like the reference.
    cgen->step(kTailCycles);
    checkScalar(ledger, *cgen, ref, "continuation after restore");

    auto stepsOf = [](const ClientLog &l) {
        std::vector<double> v;
        for (const Step &s : l.steps)
            v.push_back(s.ms);
        return v;
    };
    const std::vector<double> stepMs = collect(serve, stepsOf);
    std::vector<uint64_t> clientCycles(clients, 0);
    for (const ServeBurst &b : serve)
        for (uint32_t i = 0; i < clients; ++i)
            clientCycles[i] += b.logs[i].cycles;
    const uint64_t cmin =
        *std::min_element(clientCycles.begin(), clientCycles.end());
    const uint64_t cmax =
        *std::max_element(clientCycles.begin(), clientCycles.end());
    if (stepMs.size() < 1000)
        warn("only %zu serve steps; p99 has fewer than 10 samples beyond "
             "it", stepMs.size());
    auto ckptOf = [](const ClientLog &l) { return l.ckptMs; };
    auto restoreOf = [](const ClientLog &l) { return l.restoreMs; };

    if (tracer) {
        const core::CompileReport &r = sim->report();
        layer.add("partition.dup_ratio", r.duplicationRatio, "ratio");
        layer.add("partition.cut_bytes",
                  double(r.intCutBytes + r.extCutBytes), "bytes");
        layer.add("partition.tile_imbalance",
                  core::computeLoadStats(*sim).imbalance, "ratio");
        const ipu::CycleCosts &c = sim->cycleCosts();
        layer.add("ipu.t_comp_cycles", c.tComp, "cycles");
        layer.add("ipu.t_comm_cycles", c.tComm(), "cycles");
        layer.add("ipu.t_sync_cycles", c.tSync, "cycles");
        layer.add("rtl.eval.gang_ns_per_lane_cycle", 1e9 / gangLaneCps,
                  "ns");

        std::ostringstream raw;
        cgen->saveState(raw);
        layer.add("ckpt.export_ms", median(exportMs), "ms");
        layer.add("ckpt.import_ms", median(importMs), "ms");
        layer.add("ckpt.ratio", double(blob.size()) / raw.str().size(),
                  "ratio");

        std::map<std::string, double> self = tracer->meanSelfSeconds();
        layer.add("frontend.parse_s", self["frontend.parse"], "s");
        layer.add("rtl.opt.s", self["rtl.opt"], "s");
        layer.add("rtl.lower.s", self["rtl.lower"], "s");
        layer.add("rtl.cgen.emit_s", self["rtl.cgen.emit"], "s");
        parLayer.add("fiber.s", self["fiber"], "s");
        parLayer.add("x86.par.construct_s", self["x86.par.construct"], "s");
        parLayer.add("x86.par.setup_s", parSetup[0], "s");
        layer.add("core.compile_s", self["core.compile"], "s");

        layer.add("serve.create_cold_ms", coldCreateMs, "ms");
        layer.add("serve.create_warm_ms",
                  median(collect(serve, [](const ClientLog &l) {
                      return l.createMs;
                  })),
                  "ms");
        layer.add("serve.peek_ms",
                  median(collect(serve, [](const ClientLog &l) {
                      return l.peekMs;
                  })),
                  "ms");
        layer.add("serve.checkpoint_ms", median(collect(serve, ckptOf)),
                  "ms");
        layer.add("serve.restore_ms", median(collect(serve, restoreOf)),
                  "ms");
        std::vector<double> overhead;
        for (const ServeBurst &b : serve)
            for (const ClientLog &l : b.logs)
                for (const Step &s : l.steps)
                    overhead.push_back(s.ms -
                                       1e3 * double(s.cycles) / parCps);
        parLayer.add("serve.step_overhead_ms", median(overhead), "ms");
        layer.add("serve.step_p99_ms", percentile(stepMs, 0.99), "ms");
        layer.add("serve.artifact_hits", double(artifactHits), "count");
        layer.add("serve.artifact_misses", double(artifactMisses),
                  "count");
        layer.add("serve.fairness", cmin ? double(cmax) / double(cmin) : 0,
                  "ratio");
        layer.add("trace.spans", double(tracer->size()), "count");
        fs::path tracePath =
            work / strprintf("trace-%s-%llu.json", w.name,
                             static_cast<unsigned long long>(a.seed));
        std::ofstream out(tracePath);
        tracer->writeChromeTrace(out);
        std::printf("wrote %zu spans to %s\n", tracer->size(),
                    tracePath.c_str());
    } else {
        e2e.add("setup_s", median(cgenSetup), "s");
        e2e.add("cgen_cps", cgenCps, "cycles/s");
        e2e.add("gang_lane_cps", gangLaneCps, "lane-cycles/s");
        e2e.add("ipu_model_khz", sim->rateKHz(), "kHz");
        e2e.add("ckpt_save_ms",
                fastest(w.ckptOverWire ? collect(serve, ckptOf) : saveMs),
                "ms");
        e2e.add("ckpt_restore_ms",
                fastest(w.ckptOverWire ? collect(serve, restoreOf)
                                       : restoreMs),
                "ms");
        e2e.add("ckpt_bytes", double(blob.size()), "bytes");
        e2e.add("peak_rss_mib", peakRssMib(), "MiB");
    }

    const uint64_t attempted = ledger.attempted(), failed = ledger.failed();
    // Request counts of the serve mix, over every client and burst.
    size_t nSteps = 0, nPeeks = 0, nCkpts = 0, nRestores = 0;
    for (const ServeBurst &b : serve)
        for (const ClientLog &l : b.logs) {
            nSteps += l.steps.size();
            nPeeks += l.peekMs.size();
            nCkpts += l.ckptMs.size();
            nRestores += l.restoreMs.size();
        }
    const double requests =
        std::max<double>(1, nSteps + nPeeks + nCkpts + nRestores);
    // par_cps, serve_cps and the step latencies are measured but not
    // bounded metrics: their run-to-run spread on the shared host passes
    // the largest bound (see README.md). Par figures are left out when
    // the par engine did not run the requested workers.
    const std::string parFigures =
        parOk ? strprintf("\"par_cps\": %.6g, ", parCps) : "";
    std::printf("{\"summary\": {\"failed_frac\": %.6g, \"serve_steps\": "
                "%zu, \"serve_requests\": %.0f, \"serve_mix\": "
                "{\"step\": %.4f, \"peek\": %.4f, \"checkpoint\": %.4f, "
                "\"restore\": %.4f}, \"cgen_setup_s\": [%s], %s"
                "\"slice_cps_p10_p50\": {\"cgen\": [%.6g, %.6g], "
                "\"gang\": [%.6g, %.6g]}, "
                "\"serve_cps\": %.6g, \"step_p50_ms\": %.4f, "
                "\"step_p99_ms\": %.4f}}\n",
                attempted ? double(failed) / double(attempted) : 1.0,
                nSteps, requests, nSteps / requests, nPeeks / requests,
                nCkpts / requests, nRestores / requests,
                joined(cgenSetup).c_str(), parFigures.c_str(),
                rate(w, percentile(cgenSec, 0.1)), rate(w, median(cgenSec)),
                rate(w, percentile(gangSec, 0.1), kGangLanes),
                rate(w, median(gangSec), kGangLanes), serveRate(serve),
                median(stepMs), percentile(stepMs, 0.99));
    if (parOk)
        layer.append(parLayer);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ledger.correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                (tracer ? layer : e2e).json().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    try {
        return run(parseArgs(argc, argv));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
