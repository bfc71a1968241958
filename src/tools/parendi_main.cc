/**
 * @file
 * The `parendi` command-line driver: compile a Verilog (.v) or PNL
 * (.pnl) design — or generate a built-in benchmark design — and run it
 * on one of the functional engines.
 *
 *   parendi [options] <design.v|design.pnl>
 *   parendi [options] --design NAME
 *     --design NAME     run a built-in benchmark design instead of a
 *                       file: pico, rocket, bitcoin, mc, vta, srN,
 *                       lrN, prngN
 *     --cycles N        simulate N cycles (default 1000)
 *     --engine E        interp | ipu | par | cgen (default ipu)
 *     --threads N       host worker threads for ipu/par engines
 *     --cgen            JIT-compile shard programs to native kernels
 *                       (par engine; cgen engine implies it)
 *     --batch N         par/ipu engines: cycles per pool dispatch
 *                       (default 0 = one batch per step call)
 *     --replicas N      gang simulation: step N independent replicas
 *                       of the design in lock-step (SoA lanes; interp,
 *                       cgen and par engines). Scalar pokes drive all
 *                       lanes, scalar peeks read lane 0.
 *     --activity 0|1    activity-guarded evaluation where it pays
 *                       (default 1): a short probe of the design
 *                       decides whether to skip combinational groups
 *                       whose inputs are unchanged since the previous
 *                       cycle. Bit-identical to always-eval; 0 forces
 *                       always-eval. interp, cgen and par engines.
 *     --cost-profile FILE  measured per-fiber cost profile: consumed
 *                       before the run (if FILE exists, the par
 *                       engine's LPT partition packs on the measured
 *                       costs) and emitted after it (the run's
 *                       per-shard eval ticks attributed back to
 *                       fibers). Implies --profile.
 *     --rebalance R     telemetry-directed repartitioning (par
 *                       engine, with --batch): when the measured
 *                       per-shard eval skew max/mean exceeds R
 *                       between batches, re-run LPT on measured costs
 *                       and migrate state. Implies --profile. 0 = off.
 *     --tiles N         tiles per chip (default 1472, ipu engine)
 *     --chips N         IPU chips, 1-4 (default 1, ipu engine)
 *     --strategy B|H    single-chip partitioning (default B)
 *     --multi pre|post|none   multi-chip strategy (default pre)
 *     --no-opt          disable the netlist optimizer
 *     --no-diff         disable differential array exchange
 *     --vcd FILE        trace registers/outputs to a VCD file
 *                       (on whichever engine is selected)
 *     --wave FILE       trace the same signals to a compressed wave
 *                       stream (src/ckpt/wave.hh); expand with
 *                       `parendi wave2vcd FILE OUT.vcd`. Mutually
 *                       exclusive with --vcd
 *     --save FILE       write a checkpoint after the run (v2 compact
 *                       snapshot; see DESIGN.md "Checkpoint & replay")
 *     --save-every N    with --save: snapshot every N cycles into one
 *                       delta-coded chain (record 0 is the pre-run
 *                       state)
 *     --restore FILE    restore a (v2) checkpoint before the run
 *     --restore-at K    with --restore: restore snapshot record K of a
 *                       v2 chain instead of the last
 *     --journal FILE    record the run's stimulus (steps, snapshot
 *                       markers) as a deterministic replay journal
 *     --replay FILE     replay a journal instead of running --cycles;
 *                       with --restore, resumes from the restored
 *                       snapshot's marker
 *     --checksum        print the FNV digest of the final
 *                       architectural state (bit-identical across
 *                       engines, thread counts, and save/restore)
 *     --report          print the compile/performance report only
 *                       (ipu engine)
 *     --peek NAME       print output port NAME after the run
 *                       (repeatable)
 *     --profile         measure the r_cycle decomposition at runtime
 *                       (obs::SuperstepProfiler) and print the
 *                       measured t_comp/t_comm/t_sync split, the
 *                       per-shard straggler histogram, and the
 *                       modeled-vs-measured table after the run
 *     --profile-every N timestamp every Nth cycle (default 16;
 *                       1 = every cycle)
 *     --profile-trace FILE  export the sampled supersteps as a Chrome
 *                       trace-event JSON (chrome://tracing, Perfetto)
 *
 * Server mode (no design argument; see DESIGN.md "Serving layer"):
 *   parendi --serve PORT [--threads N] [--max-sessions N] [--quantum N]
 *     --serve PORT      host a multi-session simulation service on
 *                       127.0.0.1:PORT (0 = pick an ephemeral port;
 *                       the chosen port is printed). Clients create
 *                       sessions by design spec — a builtin name or a
 *                       .v/.pnl path — and drive them over the binary
 *                       protocol (serve::Client). --threads sizes the
 *                       ONE BspPool all sessions share; --quantum is
 *                       the fair-share DRR grant in cycles. The
 *                       artifact store honors $PARENDI_ARTIFACT_DIR
 *                       and $PARENDI_ARTIFACT_BYTES.
 *
 * Subcommands:
 *   parendi wave2vcd IN OUT   expand a compressed wave stream
 *                       (--wave) to a VCD byte-identical to what
 *                       --vcd would have produced on the same run
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/journal.hh"
#include "ckpt/snapshot.hh"
#include "ckpt/wave.hh"
#include "core/compiler.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "core/stats.hh"
#include "designs/designs.hh"
#include "fiber/fiber.hh"
#include "frontend/pnl.hh"
#include "frontend/verilog.hh"
#include "obs/costprofile.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "rtl/vcd.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "util/logging.hh"
#include "x86/model.hh"

using namespace parendi;

namespace {

struct Args
{
    std::string file;
    std::string design;
    uint64_t cycles = 1000;
    std::string engine = "ipu";
    uint32_t threads = 0;
    uint32_t tiles = 1472;
    uint32_t chips = 1;
    bool hyper = false;
    std::string multi = "pre";
    bool optimize = true;
    bool diffExchange = true;
    std::string vcdPath;
    std::string wavePath;
    std::string savePath;
    uint64_t saveEvery = 0;
    std::string restorePath;
    int64_t restoreAt = -1;
    std::string journalPath;
    std::string replayPath;
    bool checksum = false;
    bool reportOnly = false;
    bool cgen = false;
    uint64_t batch = 0;
    uint32_t replicas = 1;
    bool activity = true;
    std::string costProfile;
    double rebalance = 0.0;
    bool profile = false;
    uint64_t profileEvery = 16;
    std::string profileTrace;
    std::vector<std::string> peeks;
    bool serve = false;
    uint16_t servePort = 0;
    uint32_t maxSessions = 64;
    uint64_t quantum = 1024;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: parendi [--cycles N] "
                 "[--engine interp|ipu|par|cgen] [--threads N]\n"
                 "               [--cgen] [--tiles N] [--chips N] "
                 "[--strategy B|H]\n"
                 "               [--multi pre|post|none] [--no-opt] "
                 "[--no-diff]\n"
                 "               [--vcd FILE] [--wave FILE] [--report] "
                 "[--peek NAME]...\n"
                 "               [--batch N] "
                 "[--replicas N] [--activity 0|1]\n"
                 "               [--cost-profile FILE] [--rebalance R]\n"
                 "               [--save FILE] [--save-every N] "
                 "[--restore FILE] [--restore-at K]\n"
                 "               [--journal FILE] [--replay FILE] "
                 "[--checksum]\n"
                 "               [--profile] [--profile-every N] "
                 "[--profile-trace FILE]\n"
                 "               <design.v|design.pnl> | --design NAME\n"
                 "       parendi wave2vcd IN OUT\n"
                 "       parendi --serve PORT [--threads N] "
                 "[--max-sessions N] [--quantum N]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--cycles")
            a.cycles = std::stoull(value());
        else if (arg == "--engine")
            a.engine = value();
        else if (arg == "--threads")
            a.threads = static_cast<uint32_t>(std::stoul(value()));
        else if (arg == "--tiles")
            a.tiles = static_cast<uint32_t>(std::stoul(value()));
        else if (arg == "--chips")
            a.chips = static_cast<uint32_t>(std::stoul(value()));
        else if (arg == "--strategy")
            a.hyper = value() == "H";
        else if (arg == "--multi")
            a.multi = value();
        else if (arg == "--no-opt")
            a.optimize = false;
        else if (arg == "--no-diff")
            a.diffExchange = false;
        else if (arg == "--vcd")
            a.vcdPath = value();
        else if (arg == "--wave")
            a.wavePath = value();
        else if (arg == "--save")
            a.savePath = value();
        else if (arg == "--save-every")
            a.saveEvery = std::stoull(value());
        else if (arg == "--restore")
            a.restorePath = value();
        else if (arg == "--restore-at")
            a.restoreAt = std::stoll(value());
        else if (arg == "--journal")
            a.journalPath = value();
        else if (arg == "--replay")
            a.replayPath = value();
        else if (arg == "--checksum")
            a.checksum = true;
        else if (arg == "--report")
            a.reportOnly = true;
        else if (arg == "--cgen")
            a.cgen = true;
        else if (arg == "--batch")
            a.batch = std::stoull(value());
        else if (arg == "--replicas")
            a.replicas = static_cast<uint32_t>(std::stoul(value()));
        else if (arg == "--design")
            a.design = value();
        else if (arg == "--activity")
            a.activity = std::stoul(value()) != 0;
        else if (arg == "--cost-profile") {
            a.costProfile = value();
            a.profile = true;   // emitting needs measured eval ticks
        } else if (arg == "--rebalance") {
            a.rebalance = std::stod(value());
            a.profile = true;   // the skew check reads the profiler
        } else if (arg == "--profile")
            a.profile = true;
        else if (arg == "--profile-every") {
            a.profileEvery = std::stoull(value());
            a.profile = true;
        } else if (arg == "--profile-trace") {
            a.profileTrace = value();
            a.profile = true;
        } else if (arg == "--peek")
            a.peeks.push_back(value());
        else if (arg == "--serve") {
            a.serve = true;
            a.servePort = static_cast<uint16_t>(std::stoul(value()));
        } else if (arg == "--max-sessions")
            a.maxSessions = static_cast<uint32_t>(std::stoul(value()));
        else if (arg == "--quantum")
            a.quantum = std::stoull(value());
        else if (arg.rfind("--", 0) == 0)
            usage();
        else if (a.file.empty())
            a.file = arg;
        else
            usage();
    }
    if (a.serve) {
        if (!a.file.empty() || !a.design.empty())
            usage();
    } else if (a.file.empty() == a.design.empty())
        usage();
    if (a.profileEvery == 0)
        a.profileEvery = 1;
    if (!a.vcdPath.empty() && !a.wavePath.empty())
        fatal("--vcd and --wave are mutually exclusive (wave2vcd "
              "expands a wave stream to the identical VCD)");
    if (a.saveEvery > 0 && a.savePath.empty())
        fatal("--save-every requires --save FILE");
    if (a.restoreAt >= 0 && a.restorePath.empty())
        fatal("--restore-at requires --restore FILE");
    if (!a.replayPath.empty() &&
        !(a.journalPath.empty() && a.vcdPath.empty() &&
          a.wavePath.empty() && a.saveEvery == 0))
        fatal("--replay drives the engine from the journal; it cannot "
              "be combined with --journal, --vcd, --wave, or "
              "--save-every");
    return a;
}

/** Build a built-in benchmark design by name (the bench harness
 *  spelling: pico, rocket, bitcoin, mc, vta, srN, lrN, prngN). */
rtl::Netlist
makeNamedDesign(const std::string &name)
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
    if (name.rfind("gated", 0) == 0) {
        GatedConfig gc;
        gc.units = static_cast<uint32_t>(std::stoul(name.substr(5)));
        return makeGated(gc);
    }
    fatal("unknown design %s (expected pico|rocket|bitcoin|mc|vta|"
          "srN|lrN|prngN|gated[N])", name.c_str());
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
            0;
}

/** `parendi --serve PORT`: host sessions until a client sends
 *  Shutdown (or the process is killed). */
int
runServe(const Args &args)
{
    serve::ManagerOptions mopt;
    mopt.maxSessions = args.maxSessions;
    mopt.poolThreads = args.threads;
    mopt.quantumCycles = args.quantum ? args.quantum : 1024;
    // A design spec is a builtin name or a netlist file path — the
    // same resolution the CLI's positional argument gets, optimizer
    // included.
    mopt.resolveDesign = [](const std::string &spec) {
        rtl::Netlist nl;
        if (endsWith(spec, ".pnl"))
            nl = frontend::parsePnlFile(spec);
        else if (endsWith(spec, ".v"))
            nl = frontend::parseVerilogFile(spec);
        else
            nl = makeNamedDesign(spec);
        return rtl::optimize(std::move(nl));
    };
    serve::SessionManager manager(std::move(mopt));
    serve::Server server(manager, args.servePort);
    std::printf("parendi: serving on 127.0.0.1:%u (pool %u threads, "
                "quantum %llu cycles, max %u sessions)\n",
                static_cast<unsigned>(server.port()),
                manager.pool() ? manager.pool()->threads() : 1,
                static_cast<unsigned long long>(mopt.quantumCycles),
                args.maxSessions);
    std::fflush(stdout);    // scripts parse the port line
    server.serveForever();
    std::printf("parendi: server shut down (%zu sessions left)\n",
                manager.numSessions());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc >= 2 && std::strcmp(argv[1], "wave2vcd") == 0) {
            if (argc != 4)
                usage();
            std::ifstream in(argv[2], std::ios::binary);
            if (!in)
                fatal("cannot read %s", argv[2]);
            std::ofstream out(argv[3]);
            if (!out)
                fatal("cannot write %s", argv[3]);
            uint64_t n = ckpt::waveToVcd(in, out);
            std::printf("wave2vcd: %llu samples -> %s\n",
                        static_cast<unsigned long long>(n), argv[3]);
            return 0;
        }
        Args args = parseArgs(argc, argv);
        if (args.serve)
            return runServe(args);
        rtl::Netlist nl;
        if (!args.design.empty()) {
            nl = makeNamedDesign(args.design);
            std::printf("generated %s: %s\n", args.design.c_str(),
                        rtl::describe(nl).c_str());
        } else {
            nl = endsWith(args.file, ".pnl")
                ? frontend::parsePnlFile(args.file)
                : frontend::parseVerilogFile(args.file);
            std::printf("parsed %s: %s\n", args.file.c_str(),
                        rtl::describe(nl).c_str());
        }

        core::EngineKind kind = core::parseEngineKind(args.engine);

        // Every engine is driven through the SimEngine interface;
        // the ipu engine keeps the full compile path so the report
        // and machine-shape flags apply.
        std::unique_ptr<core::Simulation> sim;
        std::unique_ptr<core::SimEngine> owned;
        core::SimEngine *engine = nullptr;
        if (kind == core::EngineKind::Ipu) {
            if (args.cgen)
                warn("--cgen is not supported by the ipu engine; "
                     "ignoring");
            if (args.replicas > 1)
                warn("--replicas is not supported by the ipu engine; "
                     "running a single replica");
            core::CompilerOptions opt;
            opt.chips = args.chips;
            opt.tilesPerChip = args.tiles;
            opt.optimize = args.optimize;
            opt.machine.differentialExchange = args.diffExchange;
            opt.machine.hostThreads = args.threads;
            opt.machine.batch = args.batch;
            if (args.hyper)
                opt.single = partition::SingleChipStrategy::Hypergraph;
            if (args.multi == "post")
                opt.multi = partition::MultiChipStrategy::Post;
            else if (args.multi == "none")
                opt.multi = partition::MultiChipStrategy::None;
            else if (args.multi != "pre")
                usage();

            sim = core::compile(std::move(nl), opt);
            engine = &sim->machine();
            if (args.profile) {
                obs::ProfileOptions popt;
                popt.sampleEvery = args.profileEvery;
                engine->enableProfiling(popt);
            }

            const core::CompileReport &r = sim->report();
            std::printf("compiled in %.3fs: %zu fibers -> %zu "
                        "processes on %u chip(s); optimizer removed "
                        "%zu of %zu nodes\n",
                        r.compileSeconds, r.fibers, r.processes,
                        r.chips,
                        r.optStats.nodesBefore - r.optStats.nodesAfter,
                        r.optStats.nodesBefore);
            const ipu::CycleCosts &c = sim->cycleCosts();
            std::printf("model: %.2f kHz (t_comp=%.0f t_comm=%.0f "
                        "t_sync=%.0f IPU cycles/RTL cycle); max tile "
                        "memory %.1f KiB\n",
                        sim->rateKHz(), c.tComp, c.tComm(), c.tSync,
                        static_cast<double>(r.maxTileMemBytes) /
                            1024.0);
            if (args.reportOnly) {
                std::printf("%s",
                            core::describeSimulation(*sim).c_str());
                return 0;
            }
        } else {
            if (args.reportOnly)
                fatal("--report requires --engine ipu");
            core::EngineOptions eopt;
            eopt.kind = kind;
            eopt.threads = args.threads;
            eopt.cgen = args.cgen;
            eopt.batch = args.batch;
            eopt.replicas = args.replicas;
            eopt.profile = args.profile;
            eopt.profileOpt.sampleEvery = args.profileEvery;
            eopt.activity = args.activity;
            eopt.rebalance = args.rebalance;
            // --cost-profile is consumed when the file already exists
            // (a previous run wrote it) and emitted after this run
            // either way — the two runs close the telemetry loop.
            if (!args.costProfile.empty() &&
                std::ifstream(args.costProfile).good())
                eopt.costProfileIn = args.costProfile;
            if (args.optimize)
                nl = rtl::optimize(std::move(nl));
            owned = core::makeEngine(std::move(nl), eopt);
            engine = owned.get();
        }

        // Restore before the run (the run continues from the
        // snapshot). --restore-at and --replay walk the v2 snapshot
        // chain directly — replay needs to know which snapshot marker
        // to resume from; the plain path goes through the versioned
        // envelope check.
        int64_t restoredSeq = -1;
        if (!args.restorePath.empty()) {
            std::ifstream in(args.restorePath, std::ios::binary);
            if (!in)
                fatal("cannot read %s", args.restorePath.c_str());
            if (args.restoreAt >= 0 || !args.replayPath.empty()) {
                uint64_t applied = ckpt::restoreSnapshotChain(
                    in, *engine, args.restoreAt);
                restoredSeq = static_cast<int64_t>(applied) - 1;
            } else {
                core::restoreCheckpoint(*engine, in);
            }
            std::printf("restored %s at cycle %llu\n",
                        args.restorePath.c_str(),
                        static_cast<unsigned long long>(
                            engine->cycles()));
        }

        if (!args.replayPath.empty()) {
            // The journal drives the engine; --cycles is ignored.
            std::ifstream in(args.replayPath, std::ios::binary);
            if (!in)
                fatal("cannot read %s", args.replayPath.c_str());
            uint64_t applied =
                ckpt::replayJournal(in, *engine, restoredSeq);
            std::printf("replayed %llu journal records to cycle %llu "
                        "(engine %s)\n",
                        static_cast<unsigned long long>(applied),
                        static_cast<unsigned long long>(
                            engine->cycles()),
                        engine->engineName());
        } else {
            std::ofstream journalOut;
            std::unique_ptr<ckpt::JournalWriter> journal;
            if (!args.journalPath.empty()) {
                journalOut.open(args.journalPath, std::ios::binary);
                if (!journalOut)
                    fatal("cannot write %s", args.journalPath.c_str());
                journal = std::make_unique<ckpt::JournalWriter>(
                    journalOut, engine->netlist());
            }

            // --vcd and --wave trace the same signals through one
            // tracer; only the sink differs.
            const std::string &tracePath =
                args.vcdPath.empty() ? args.wavePath : args.vcdPath;
            std::ofstream traceOut;
            std::unique_ptr<rtl::TraceSink> sink;
            std::unique_ptr<rtl::EngineTracer> tracer;
            if (!tracePath.empty()) {
                traceOut.open(tracePath, std::ios::binary);
                if (!traceOut)
                    fatal("cannot write %s", tracePath.c_str());
                if (!args.vcdPath.empty())
                    sink = std::make_unique<rtl::VcdWriter>(traceOut);
                else
                    sink = std::make_unique<ckpt::WaveWriter>(traceOut);
                tracer =
                    std::make_unique<rtl::EngineTracer>(*engine, *sink);
            }
            auto stepSome = [&](uint64_t n) {
                if (tracer)
                    tracer->step(n);
                else
                    engine->step(n);
                if (journal)
                    journal->recordStep(n);
            };

            if (args.saveEvery > 0) {
                // Periodic snapshots: one delta-coded chain, record 0
                // taken before the first step so --restore-at 0
                // --replay reruns the whole journal.
                std::ofstream snapOut(args.savePath, std::ios::binary);
                if (!snapOut)
                    fatal("cannot write %s", args.savePath.c_str());
                ckpt::SnapshotWriter writer(snapOut,
                                            engine->netlist());
                writer.write(*engine);
                if (journal)
                    journal->recordSnapshot(0, engine->cycles());
                uint64_t done = 0;
                while (done < args.cycles) {
                    uint64_t chunk = std::min<uint64_t>(
                        args.saveEvery, args.cycles - done);
                    stepSome(chunk);
                    writer.write(*engine);
                    if (journal)
                        journal->recordSnapshot(writer.records() - 1,
                                                engine->cycles());
                    done += chunk;
                }
                std::printf("saved %u snapshots to %s\n",
                            writer.records(), args.savePath.c_str());
            } else {
                stepSome(args.cycles);
                if (!args.savePath.empty()) {
                    std::ofstream out(args.savePath, std::ios::binary);
                    if (!out)
                        fatal("cannot write %s",
                              args.savePath.c_str());
                    core::saveCheckpoint(*engine, out);
                    std::printf("saved checkpoint to %s\n",
                                args.savePath.c_str());
                }
            }

            if (tracer)
                std::printf("traced %llu cycles to %s (engine %s%s)\n",
                            static_cast<unsigned long long>(
                                args.cycles),
                            tracePath.c_str(), engine->engineName(),
                            args.vcdPath.empty() ? ", compressed" : "");
            else
                std::printf("simulated %llu cycles (engine %s)\n",
                            static_cast<unsigned long long>(
                                args.cycles),
                            engine->engineName());
            if (journal)
                std::printf("journaled %llu records to %s\n",
                            static_cast<unsigned long long>(
                                journal->records()),
                            args.journalPath.c_str());
        }

        if (args.checksum)
            std::printf("checksum = %016llx (cycle %llu)\n",
                        static_cast<unsigned long long>(
                            ckpt::archStateFnv(*engine)),
                        static_cast<unsigned long long>(
                            engine->cycles()));
        for (const std::string &p : args.peeks)
            std::printf("%s = 0x%s\n", p.c_str(),
                        engine->peek(p).toHex().c_str());

        if (const obs::SuperstepProfiler *prof = engine->profiler()) {
            obs::ProfileReport rep = obs::buildReport(*prof);
            std::printf("%s", obs::formatReport(rep).c_str());

            // Modeled counterpart: the IPU cost model for the ipu
            // engine, the x86 Verilator model (at the same thread
            // count) for the host engines.
            if (sim) {
                std::printf("%s",
                            obs::formatModeledVsMeasured(
                                core::modeledSplit(*sim), rep)
                                .c_str());
            } else {
                fiber::FiberSet fs(engine->netlist());
                x86::DesignProfile dp = x86::profileDesign(fs);
                x86::X86Arch arch = x86::X86Arch::ix3();
                uint32_t mthreads = std::min<uint32_t>(
                    std::max<uint32_t>(1, args.threads),
                    arch.totalCores());
                x86::X86Perf perf =
                    x86::modelVerilator(arch, dp, mthreads);
                obs::ModeledSplit m;
                m.source = "x86 model (ix3)";
                m.unit = "model ns";
                m.comp = perf.tCompNs;
                m.comm = perf.tCommNs;
                m.sync = perf.tSyncNs;
                m.rateKHz = perf.rateKHz();
                std::printf("%s",
                            obs::formatModeledVsMeasured(m, rep)
                                .c_str());
            }

            if (!args.profileTrace.empty()) {
                std::ofstream trace(args.profileTrace);
                if (!trace)
                    fatal("cannot write %s", args.profileTrace.c_str());
                obs::writeChromeTrace(*prof, trace);
                std::printf("wrote Chrome trace to %s (open in "
                            "chrome://tracing or Perfetto)\n",
                            args.profileTrace.c_str());
            }
        } else if (args.profile) {
            warn("--profile had no effect (engine %s)",
                 engine->engineName());
        }

        // Close the telemetry loop: attribute this run's measured eval
        // ticks back to fibers and persist them, so the next run's LPT
        // packs on measured instead of modeled costs.
        if (!args.costProfile.empty()) {
            obs::CostProfile measured;
            if (engine->collectCostProfile(measured) &&
                measured.save(args.costProfile))
                std::printf("wrote cost profile (%zu fibers) to %s\n",
                            measured.size(), args.costProfile.c_str());
            else
                warn("--cost-profile: engine %s produced no measured "
                     "fiber costs", engine->engineName());
        }
        return 0;
    } catch (const FatalError &) {
        return 1;
    }
}
