/**
 * @file
 * Closed-loop multi-client throughput of the serving layer (the
 * simulation-as-a-service path, DESIGN.md "Serving layer"): a
 * TPC-C-style driver with M clients, each holding one session on an
 * in-process `parendi --serve` host and looping
 * step(batch) -> think -> step(batch) until a fixed per-session cycle
 * budget is spent. Reports
 *
 *  - aggregate cycles/sec across all sessions on the ONE shared
 *    BspPool, vs a single-session baseline on the same host (the
 *    acceptance ratio: multi-session aggregate must hold >= 0.5x the
 *    single-session rate — scheduling overhead, not slowdown);
 *  - session creates/sec (the artifact store makes creates after the
 *    first warm starts: one compile, M-1 hits);
 *  - p50/p99 step round-trip latency across all clients;
 *  - fairness: max/min per-session completed cycles sampled the
 *    moment the first client finishes — under equal budgets the DRR
 *    scheduler must keep this ratio <= 2.
 *
 * Flags: --clients M (default 8), --design NAME (default prng16),
 * --cycles N per session, --batch N cycles per step request,
 * --think-ms T, --port P (drive an external host instead of the
 * in-process one; fairness sampling is then skipped), --no-cgen,
 * --replicas R (every session is a gang of R replica lanes; the
 * report then adds aggregate lane-cycles/sec = cycles/sec x R,
 * cross-checked against the host's serve_lane_cycles_executed
 * counter), --json FILE (bench::writePerfJson rows: engine
 * "serve-c1" is the baseline, "serve-cM" the M-client aggregate).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"

using namespace parendi;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
    return v[i];
}

struct ClientResult
{
    uint64_t sessionId = 0;
    double seconds = 0;             ///< create-to-budget wall time
    std::vector<double> stepMs;     ///< per-step round-trip latency
    bool ok = false;
};

/** One closed-loop client: create a session, spend the cycle budget
 *  in step(batch) requests with a fixed think time between them. */
void
runClient(uint16_t port, const std::string &design, bool cgen,
          uint32_t replicas, uint64_t budget, uint64_t batch,
          uint64_t thinkMs, ClientResult &out)
{
    serve::Client client;
    if (!client.connect(port)) {
        warn("bench client: %s", client.lastError().c_str());
        return;
    }
    Clock::time_point t0 = Clock::now();
    uint64_t id =
        client.createSession(design, "par", 0, cgen, 0, replicas);
    if (!id) {
        warn("bench client: %s", client.lastError().c_str());
        return;
    }
    out.sessionId = id;
    uint64_t done = 0;
    while (done < budget) {
        uint64_t n = std::min(batch, budget - done);
        Clock::time_point s0 = Clock::now();
        if (!client.step(id, n)) {
            warn("bench client: %s", client.lastError().c_str());
            return;
        }
        out.stepMs.push_back(secondsSince(s0) * 1e3);
        done += n;
        if (thinkMs)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(thinkMs));
    }
    out.seconds = secondsSince(t0);
    client.destroySession(id);
    out.ok = true;
}

uint64_t
statValue(serve::Client &client, const std::string &name)
{
    std::vector<std::pair<std::string, uint64_t>> stats;
    if (!client.stats(&stats))
        return 0;
    for (const auto &[n, v] : stats)
        if (n == name)
            return v;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = bench::extractJsonFlag(argc, argv);
    bool noCgen = bench::extractBoolFlag(argc, argv, "--no-cgen");
    uint32_t clients = 8;
    std::string design = "prng16";
    uint64_t cycles = bench::fastMode() ? 40000 : 400000;
    uint64_t batch = 2048;
    uint64_t thinkMs = 0;
    uint32_t replicas = 1;
    uint16_t externalPort = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : std::string();
        };
        if (arg == "--clients")
            clients = static_cast<uint32_t>(std::stoul(value()));
        else if (arg == "--design")
            design = value();
        else if (arg == "--cycles")
            cycles = std::stoull(value());
        else if (arg == "--batch")
            batch = std::stoull(value());
        else if (arg == "--think-ms")
            thinkMs = std::stoull(value());
        else if (arg == "--replicas")
            replicas = static_cast<uint32_t>(std::stoul(value()));
        else if (arg == "--port")
            externalPort = static_cast<uint16_t>(std::stoul(value()));
        else
            fatal("unknown flag %s", arg.c_str());
    }
    const bool cgen = !noCgen;

    // The host: in-process on an ephemeral port unless --port points
    // at an external `parendi --serve`.
    std::unique_ptr<serve::SessionManager> manager;
    std::unique_ptr<serve::Server> server;
    uint16_t port = externalPort;
    if (!externalPort) {
        serve::ManagerOptions mopt;
        mopt.maxSessions = clients + 8;
        mopt.resolveDesign = [](const std::string &spec) {
            return bench::makeOptimized(spec);
        };
        manager = std::make_unique<serve::SessionManager>(
            std::move(mopt));
        server = std::make_unique<serve::Server>(*manager, 0);
        server->start();
        port = server->port();
    }

    // Phase 1 — single-session baseline on the same host (warm run:
    // a throwaway session first so the artifact compile is not billed
    // to the measured session).
    if (cgen) {
        ClientResult warm;
        runClient(port, design, cgen, replicas,
                  std::min<uint64_t>(cycles, 1024), batch, 0, warm);
    }
    ClientResult base;
    runClient(port, design, cgen, replicas, cycles, batch, thinkMs,
              base);
    if (!base.ok)
        fatal("baseline client failed");
    double baseCps = static_cast<double>(cycles) / base.seconds;

    // Phase 2 — M concurrent closed-loop clients. A sampler thread
    // watches per-session progress (in-process host only) and keeps
    // the last snapshot taken while every session was still running:
    // that is where starvation would show.
    std::vector<ClientResult> results(clients);
    std::vector<std::thread> threads;
    std::atomic<bool> anyDone{false};
    double fairness = 0;
    Clock::time_point t0 = Clock::now();
    for (uint32_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            runClient(port, design, cgen, replicas, cycles, batch,
                      thinkMs, results[c]);
            anyDone.store(true);
        });
    std::thread sampler([&] {
        if (!manager)
            return;
        while (!anyDone.load()) {
            uint64_t lo = ~0ull, hi = 0;
            uint32_t seen = 0;
            for (const ClientResult &r : results) {
                if (!r.sessionId)
                    continue;
                uint64_t done =
                    manager->completedCycles(r.sessionId);
                if (!done)
                    continue;
                lo = std::min(lo, done);
                hi = std::max(hi, done);
                ++seen;
            }
            if (seen == clients && lo)
                fairness = static_cast<double>(hi) /
                    static_cast<double>(lo);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    });
    for (auto &t : threads)
        t.join();
    sampler.join();
    double wall = secondsSince(t0);
    uint32_t okClients = 0;
    for (const ClientResult &r : results)
        okClients += r.ok;
    if (okClients != clients)
        fatal("%u of %u bench clients failed", clients - okClients,
              clients);
    double aggregateCps =
        static_cast<double>(cycles) * clients / wall;
    double createsPerSec = 0;
    {
        // Creates/sec: the artifact store makes session creation
        // after the first a warm start, so time M fresh creates.
        serve::Client c;
        if (c.connect(port)) {
            std::vector<uint64_t> ids;
            Clock::time_point c0 = Clock::now();
            for (uint32_t i = 0; i < clients; ++i)
                if (uint64_t id =
                        c.createSession(design, "par", 0, cgen))
                    ids.push_back(id);
            createsPerSec =
                static_cast<double>(ids.size()) / secondsSince(c0);
            for (uint64_t id : ids)
                c.destroySession(id);
        }
    }

    std::vector<double> allMs;
    for (ClientResult &r : results)
        allMs.insert(allMs.end(), r.stepMs.begin(), r.stepMs.end());
    double p50 = percentile(allMs, 0.50);
    double p99 = percentile(allMs, 0.99);

    Table t({"metric", "value"});
    t.row().cell("design").cell(design);
    t.row().cell("clients").cell(static_cast<uint64_t>(clients));
    t.row().cell("cycles/session").cell(cycles);
    t.row().cell("step batch").cell(batch);
    t.row().cell("think ms").cell(thinkMs);
    t.row().cell("base cycles/sec (1 session)").cell(baseCps, 0);
    t.row().cell("aggregate cycles/sec").cell(aggregateCps, 0);
    t.row().cell("aggregate / base").cell(aggregateCps / baseCps, 3);
    if (replicas > 1) {
        // Gang sessions: R design instances advance per scheduled
        // cycle, so lane throughput is the honest aggregate metric.
        t.row()
            .cell("replica lanes / session")
            .cell(static_cast<uint64_t>(replicas));
        t.row()
            .cell("aggregate lane-cycles/sec")
            .cell(aggregateCps * replicas, 0);
    }
    t.row().cell("session creates/sec").cell(createsPerSec, 1);
    t.row().cell("step p50 ms").cell(p50, 3);
    t.row().cell("step p99 ms").cell(p99, 3);
    t.row()
        .cell("fairness max/min cycles")
        .cell(fairness > 0 ? fairness : 1.0, 3);
    {
        serve::Client c;
        if (c.connect(port)) {
            t.row()
                .cell("artifact hits")
                .cell(statValue(c, serve::kArtifactHits));
            t.row()
                .cell("artifact misses")
                .cell(statValue(c, serve::kArtifactMisses));
            t.row()
                .cell("artifact warm starts")
                .cell(statValue(c, serve::kArtifactWarmStarts));
            if (replicas > 1)
                t.row()
                    .cell("host lane-cycles executed")
                    .cell(statValue(c, "serve_lane_cycles_executed"));
        }
    }
    t.print("Serve throughput (closed-loop, shared BspPool)");

    if (aggregateCps < 0.5 * baseCps)
        warn("aggregate %.0f cycles/sec is below 0.5x the "
             "single-session rate %.0f",
             aggregateCps, baseCps);
    if (fairness > 2.0)
        warn("fairness ratio %.2f exceeds 2.0 — a session is being "
             "starved", fairness);

    if (!jsonPath.empty()) {
        std::vector<bench::PerfRecord> records;
        uint32_t poolThreads =
            manager && manager->pool() ? manager->pool()->threads() : 0;
        bench::PerfRecord one;
        one.design = design;
        one.engine = "serve-c1";
        one.threads = poolThreads;
        one.cyclesPerSec = baseCps;
        one.replicas = replicas;
        records.push_back(one);
        bench::PerfRecord many;
        many.design = design;
        many.engine = "serve-c" + std::to_string(clients);
        many.threads = poolThreads;
        many.cyclesPerSec = aggregateCps;
        many.replicas = replicas;
        records.push_back(many);
        bench::writePerfJson(jsonPath, records);
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    if (server)
        server->stop();
    return 0;
}
