/**
 * @file
 * End-to-end tests of the serving layer: a real Server on an
 * ephemeral loopback port driven through serve::Client. Covers the
 * whole protocol surface, error paths, checkpoint/restore over the
 * wire, and the acceptance-critical multi-session differential: K
 * concurrent sessions stepped in interleaved batches must be
 * bit-identical to K sequential single-engine runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "designs/designs.hh"
#include "frontend/pnl.hh"
#include "rtl/interp.hh"
#include "rtl/opt.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "util/logging.hh"

using namespace parendi;

namespace {

const char *kCounterPnl = R"(
pnl 1
design counter
reg cnt 32 0
%en = input en 1
%c  = regread cnt
%one = const 32 1
%sum = add %c %one
%nxt = mux %en %sum %c
regnext cnt %nxt
output value %c
)";

/** The design zoo of the test host. */
rtl::Netlist
resolveTestDesign(const std::string &spec)
{
    rtl::Netlist nl;
    if (spec == "counter")
        nl = frontend::parsePnl(kCounterPnl);
    else if (spec == "pico")
        nl = designs::makePico(designs::defaultCoreConfig());
    else if (spec == "bitcoin")
        nl = designs::makeBitcoin({1, 16});
    else if (spec == "sr2")
        nl = designs::makeSr(2);
    else if (spec == "sr4")
        nl = designs::makeSr(4);
    else
        fatal("unknown test design %s", spec.c_str());
    return rtl::optimize(std::move(nl));
}

/** A manager + server on an ephemeral port, plus one connected
 *  client, torn down in order. */
struct ServeFixture
{
    explicit ServeFixture(uint64_t quantum = 256,
                          uint32_t poolThreads = 2)
    {
        serve::ManagerOptions mopt;
        mopt.poolThreads = poolThreads;
        mopt.quantumCycles = quantum;
        mopt.resolveDesign = resolveTestDesign;
        manager = std::make_unique<serve::SessionManager>(
            std::move(mopt));
        server = std::make_unique<serve::Server>(*manager, 0);
        server->start();
        EXPECT_TRUE(client.connect(server->port()));
    }

    ~ServeFixture()
    {
        client.disconnect();
        server->stop();
    }

    std::unique_ptr<serve::SessionManager> manager;
    std::unique_ptr<serve::Server> server;
    serve::Client client;
};

} // namespace

TEST(Serve, CreateStepPeekDestroy)
{
    ServeFixture fx;
    uint64_t id = fx.client.createSession("counter", "interp");
    ASSERT_NE(id, 0u) << fx.client.lastError();

    ASSERT_TRUE(fx.client.poke(id, "en", rtl::BitVec(1, uint64_t{1})));
    uint64_t cycles = 0;
    ASSERT_TRUE(fx.client.step(id, 10, &cycles));
    EXPECT_EQ(cycles, 10u);

    rtl::BitVec value;
    ASSERT_TRUE(fx.client.peek(id, "value", &value));
    EXPECT_EQ(value.toUint64(), 10u);
    rtl::BitVec reg;
    ASSERT_TRUE(fx.client.peekRegister(id, "cnt", &reg));
    EXPECT_EQ(reg.toUint64(), 10u);

    // Gating the enable freezes the counter — pokes take effect.
    ASSERT_TRUE(fx.client.poke(id, "en", rtl::BitVec(1, uint64_t{0})));
    ASSERT_TRUE(fx.client.step(id, 7, &cycles));
    EXPECT_EQ(cycles, 17u);
    ASSERT_TRUE(fx.client.peek(id, "value", &value));
    EXPECT_EQ(value.toUint64(), 10u);

    EXPECT_TRUE(fx.client.destroySession(id));
    EXPECT_EQ(fx.manager->numSessions(), 0u);
    EXPECT_FALSE(fx.client.step(id, 1));
}

TEST(Serve, ErrorsAreReportedNotFatal)
{
    ServeFixture fx;
    EXPECT_EQ(fx.client.createSession("nonsense-design"), 0u);
    EXPECT_NE(fx.client.lastError().find("nonsense-design"),
              std::string::npos);

    EXPECT_EQ(fx.client.createSession("counter", "warp-drive"), 0u);
    EXPECT_NE(fx.client.lastError().find("warp-drive"),
              std::string::npos);

    EXPECT_FALSE(fx.client.step(999, 1));
    EXPECT_FALSE(fx.client.poke(999, "en", rtl::BitVec(1, uint64_t{1})));

    // The connection survives every error.
    EXPECT_NE(fx.client.createSession("counter", "interp"), 0u);
}

TEST(Serve, CheckpointRestoreOverTheWire)
{
    ServeFixture fx;
    uint64_t id = fx.client.createSession("sr4", "par", 2);
    ASSERT_NE(id, 0u) << fx.client.lastError();

    ASSERT_TRUE(fx.client.step(id, 150));
    std::string blob;
    ASSERT_TRUE(fx.client.checkpoint(id, &blob));
    ASSERT_FALSE(blob.empty());

    uint64_t cycles = 0;
    ASSERT_TRUE(fx.client.step(id, 80, &cycles));
    EXPECT_EQ(cycles, 230u);
    rtl::BitVec later;
    ASSERT_TRUE(fx.client.peek(id, "tx_total", &later));

    // Rewind and replay: bit-identical continuation.
    ASSERT_TRUE(fx.client.restore(id, blob));
    ASSERT_TRUE(fx.client.step(id, 80, &cycles));
    EXPECT_EQ(cycles, 230u);
    rtl::BitVec replay;
    ASSERT_TRUE(fx.client.peek(id, "tx_total", &replay));
    EXPECT_EQ(replay, later);

    // A blob from a different design is rejected with a clear error,
    // and the session keeps running.
    uint64_t other = fx.client.createSession("counter", "interp");
    ASSERT_NE(other, 0u);
    EXPECT_FALSE(fx.client.restore(other, blob));
    EXPECT_NE(fx.client.lastError().find("different design"),
              std::string::npos);
    EXPECT_TRUE(fx.client.step(other, 5));

    // So is a headerless raw engine blob of the right design: the
    // server never hands unenveloped bytes to an engine decoder.
    rtl::Interpreter local(resolveTestDesign("counter"));
    std::stringstream raw;
    local.save(raw);
    EXPECT_FALSE(fx.client.restore(other, raw.str()));
    EXPECT_NE(fx.client.lastError().find("no PRNDCKPT envelope"),
              std::string::npos)
        << fx.client.lastError();
    EXPECT_TRUE(fx.client.step(other, 5, &cycles));
    EXPECT_EQ(cycles, 10u);
}

TEST(Serve, MultiSessionDifferential)
{
    // K concurrent sessions (a pico core and a bitcoin miner among
    // them), each driven by its own client thread in interleaved
    // odd-sized batches through the shared-pool DRR scheduler, must
    // land bit-identical to a sequential single-engine run.
    const struct
    {
        const char *design;
        const char *engine;
        uint64_t total;
        uint64_t batch;
    } plan[] = {
        {"pico", "par", 600, 37},
        {"bitcoin", "par", 400, 53},
        {"pico", "interp", 600, 101},
        {"sr4", "par", 900, 64},
    };
    const size_t K = sizeof(plan) / sizeof(plan[0]);

    ServeFixture fx(/*quantum=*/128);
    std::vector<uint64_t> ids(K);
    for (size_t i = 0; i < K; ++i) {
        ids[i] = fx.client.createSession(plan[i].design,
                                         plan[i].engine, 2);
        ASSERT_NE(ids[i], 0u) << fx.client.lastError();
    }

    std::vector<std::thread> drivers;
    // One byte per client thread: vector<bool> packs flags into
    // shared words, so threads setting their own flag would race.
    std::vector<char> ok(K, 0);
    for (size_t i = 0; i < K; ++i) {
        drivers.emplace_back([&, i] {
            serve::Client c;
            if (!c.connect(fx.server->port()))
                return;
            uint64_t done = 0;
            while (done < plan[i].total) {
                uint64_t n =
                    std::min(plan[i].batch, plan[i].total - done);
                if (!c.step(ids[i], n))
                    return;
                done += n;
            }
            ok[i] = 1;
        });
    }
    for (auto &t : drivers)
        t.join();
    for (size_t i = 0; i < K; ++i)
        ASSERT_TRUE(ok[i]) << "driver " << i << " failed";

    // Compare every register of every session against a sequential
    // reference interpreter run of the same design and cycle count.
    for (size_t i = 0; i < K; ++i) {
        rtl::Netlist nl = resolveTestDesign(plan[i].design);
        rtl::Interpreter ref(nl);
        ref.step(plan[i].total);
        const rtl::Netlist &rn = ref.netlist();
        for (rtl::RegId r = 0; r < rn.numRegisters(); ++r) {
            rtl::BitVec got;
            ASSERT_TRUE(fx.client.peekRegister(
                ids[i], rn.reg(r).name, &got));
            ASSERT_EQ(got, ref.peekRegister(rn.reg(r).name))
                << plan[i].design << " register " << rn.reg(r).name;
        }
    }
}

TEST(Serve, SmallSessionIsNotStarvedByBulkSession)
{
    ServeFixture fx(/*quantum=*/256);
    // The bulk design is deliberately expensive per cycle (an sr ring)
    // so its 100k-cycle request occupies the scheduler for a while;
    // the small session is a one-register counter.
    uint64_t bulk = fx.client.createSession("sr2", "interp");
    uint64_t small = fx.client.createSession("counter", "interp");
    ASSERT_NE(bulk, 0u);
    ASSERT_NE(small, 0u);

    const uint64_t bulkTotal = 100000;
    std::thread bulkDriver([&] {
        serve::Client c;
        ASSERT_TRUE(c.connect(fx.server->port()));
        ASSERT_TRUE(c.step(bulk, bulkTotal));
    });
    // Wait until the bulk request is actually running.
    while (fx.manager->completedCycles(bulk) == 0)
        std::this_thread::yield();

    // 20 small interactive steps complete while the bulk session is
    // still grinding — DRR interleaves them instead of queueing them
    // behind the million-cycle request.
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(fx.client.step(small, 10));
    EXPECT_EQ(fx.manager->completedCycles(small), 200u);
    EXPECT_LT(fx.manager->completedCycles(bulk), bulkTotal);

    bulkDriver.join();
    EXPECT_EQ(fx.manager->completedCycles(bulk), bulkTotal);
}

TEST(Serve, StatsAndArtifactWarmStart)
{
    ServeFixture fx;
    // Two par+cgen sessions of the same design: the second must be
    // served from the artifact store (hit or warm start — never a
    // second compile of the same key).
    bool native1 = false, native2 = false;
    uint64_t a = fx.client.createSession("counter", "par", 2, true, 0,
                                         1, &native1);
    ASSERT_NE(a, 0u) << fx.client.lastError();
    uint64_t b = fx.client.createSession("counter", "par", 2, true, 0,
                                         1, &native2);
    ASSERT_NE(b, 0u) << fx.client.lastError();

    std::vector<std::pair<std::string, uint64_t>> stats;
    ASSERT_TRUE(fx.client.stats(&stats));
    auto value = [&](const std::string &name) -> uint64_t {
        for (const auto &[n, v] : stats)
            if (n == name)
                return v;
        return 0;
    };
    EXPECT_EQ(value("sessions_created"), 2u);
    // Whether the activity probe kept guards is reported per host.
    EXPECT_TRUE(std::any_of(stats.begin(), stats.end(), [](auto &kv) {
        return kv.first == "sessions_guarded";
    }));
    EXPECT_LE(value("sessions_guarded"), 2u);
    if (native1) {
        // Toolchain available: the second session warm-started.
        EXPECT_TRUE(native2);
        EXPECT_GE(value(serve::kArtifactHits) +
                      value(serve::kArtifactWarmStarts),
                  1u);
        EXPECT_LE(value(serve::kArtifactMisses), 1u);
    }

    // Both sessions still simulate correctly (native or fallback).
    ASSERT_TRUE(fx.client.poke(a, "en", rtl::BitVec(1, uint64_t{1})));
    ASSERT_TRUE(fx.client.step(a, 5));
    rtl::BitVec v;
    ASSERT_TRUE(fx.client.peek(a, "value", &v));
    EXPECT_EQ(v.toUint64(), 5u);
}

TEST(Serve, GangSessionBillsLaneCycles)
{
    ServeFixture fx;
    // A gang session (replicas=4) runs four design instances per
    // scheduled cycle: the host bills serve_lane_cycles_executed at
    // 4x serve_cycles_executed — the aggregate-lane-throughput metric.
    uint64_t id = fx.client.createSession("counter", "interp", 0,
                                          false, 0, 4);
    ASSERT_NE(id, 0u) << fx.client.lastError();

    // Scalar pokes broadcast to every lane; scalar peeks read lane 0.
    ASSERT_TRUE(fx.client.poke(id, "en", rtl::BitVec(1, uint64_t{1})));
    uint64_t cycles = 0;
    ASSERT_TRUE(fx.client.step(id, 25, &cycles));
    EXPECT_EQ(cycles, 25u);
    rtl::BitVec value;
    ASSERT_TRUE(fx.client.peek(id, "value", &value));
    EXPECT_EQ(value.toUint64(), 25u);

    std::vector<std::pair<std::string, uint64_t>> stats;
    ASSERT_TRUE(fx.client.stats(&stats));
    auto value_of = [&](const std::string &name) -> uint64_t {
        for (const auto &[n, v] : stats)
            if (n == name)
                return v;
        return 0;
    };
    EXPECT_EQ(value_of("serve_cycles_executed"), 25u);
    EXPECT_EQ(value_of("serve_lane_cycles_executed"), 100u);

    // Checkpoints round-trip every lane through the wire.
    std::string blob;
    ASSERT_TRUE(fx.client.checkpoint(id, &blob));
    ASSERT_TRUE(fx.client.step(id, 5));
    ASSERT_TRUE(fx.client.restore(id, blob));
    ASSERT_TRUE(fx.client.peek(id, "value", &value));
    EXPECT_EQ(value.toUint64(), 25u);
    EXPECT_TRUE(fx.client.destroySession(id));
}

TEST(Serve, ShutdownReleasesServeForever)
{
    serve::ManagerOptions mopt;
    mopt.poolThreads = 2;
    mopt.resolveDesign = resolveTestDesign;
    serve::SessionManager manager(std::move(mopt));
    serve::Server server(manager, 0);
    std::thread host([&] { server.serveForever(); });

    serve::Client client;
    ASSERT_TRUE(client.connect(server.port()));
    EXPECT_TRUE(client.shutdownServer());
    host.join();
    EXPECT_TRUE(server.shutdownRequested());
}

TEST(Serve, StartStopRepeatedly)
{
    // stop() shuts the listener down, joins the accept thread and only
    // then closes the descriptor, so accept() never runs on a closed
    // (or reused) fd number. Exercised with and without an idle
    // connected client.
    serve::ManagerOptions mopt;
    mopt.poolThreads = 2;
    mopt.resolveDesign = resolveTestDesign;
    serve::SessionManager manager(std::move(mopt));
    for (bool withClient : {false, true}) {
        for (int round = 0; round < 50; ++round) {
            serve::Server server(manager, 0);
            server.start();
            serve::Client client;
            if (withClient) {
                ASSERT_TRUE(client.connect(server.port()))
                    << "round " << round;
            }
            server.stop();
            EXPECT_FALSE(server.shutdownRequested());
        }
    }
}
