/**
 * @file
 * Checkpoint/restore tests: save mid-simulation, continue, restore,
 * and re-run — the continuation must be bit-identical; headerless,
 * mismatched and future-version checkpoints must be rejected.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/compiler.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using rtl::Interpreter;
using rtl::Netlist;

TEST(Checkpoint, InterpreterRoundTrip)
{
    Interpreter sim(designs::makeBitcoin({1, 16}));
    sim.step(77);
    std::stringstream snap;
    core::saveCheckpoint(sim, snap);
    uint64_t cyc = sim.cycles();

    sim.step(53); // diverge
    rtl::BitVec later = sim.peekRegister("e0_a");

    std::stringstream snap2(snap.str());
    core::restoreCheckpoint(sim, snap2);
    EXPECT_EQ(sim.cycles(), cyc);
    sim.step(53); // replay
    EXPECT_EQ(sim.peekRegister("e0_a"), later);
}

TEST(Checkpoint, RestoreIntoFreshInterpreter)
{
    Interpreter a(designs::makeSr(2));
    a.step(120);
    std::stringstream snap;
    core::saveCheckpoint(a, snap);

    Interpreter b(designs::makeSr(2));
    core::restoreCheckpoint(b, snap);
    EXPECT_EQ(b.cycles(), 120u);
    a.step(40);
    b.step(40);
    EXPECT_EQ(a.peek("tx_total"), b.peek("tx_total"));
    EXPECT_EQ(a.peek("rx_total"), b.peek("rx_total"));
}

TEST(Checkpoint, MachineRoundTrip)
{
    core::CompilerOptions opt;
    opt.chips = 2;
    opt.tilesPerChip = 24;
    auto sim = core::compile(designs::makeSr(2), opt);
    sim->step(60);
    std::stringstream snap;
    core::saveCheckpoint(sim->machine(), snap);
    sim->step(25);
    rtl::BitVec later = sim->machine().peek("rx_total");

    core::restoreCheckpoint(sim->machine(), snap);
    EXPECT_EQ(sim->machine().cycles(), 60u);
    sim->step(25);
    EXPECT_EQ(sim->machine().peek("rx_total"), later);
}

TEST(Checkpoint, MachineAgreesWithInterpreterAfterRestore)
{
    Netlist nl = randomNetlist(99);
    Interpreter ref(nl);
    core::CompilerOptions opt;
    opt.tilesPerChip = 12;
    auto sim = core::compile(std::move(nl), opt);
    sim->step(30);
    ref.step(30);
    std::stringstream snap;
    core::saveCheckpoint(sim->machine(), snap);
    core::restoreCheckpoint(sim->machine(), snap);
    sim->step(30);
    ref.step(30);
    const Netlist &n2 = ref.netlist();
    for (rtl::RegId r = 0; r < n2.numRegisters(); ++r)
        ASSERT_EQ(sim->machine().peekRegister(n2.reg(r).name),
                  ref.peekRegister(n2.reg(r).name));
}

// ---- Versioned checkpoint envelope (core/session.hh) ----

TEST(CheckpointEnvelope, HeaderedRoundTrip)
{
    Interpreter sim(designs::makeSr(2));
    sim.step(90);
    std::stringstream snap;
    core::saveCheckpoint(sim, snap);

    // The envelope leads with the magic, version and design hash.
    std::string blob = snap.str();
    ASSERT_GE(blob.size(), 20u);
    uint64_t magic;
    std::memcpy(&magic, blob.data(), sizeof(magic));
    EXPECT_EQ(magic, core::kCheckpointMagic);
    uint32_t version;
    std::memcpy(&version, blob.data() + 8, sizeof(version));
    EXPECT_EQ(version, core::kCheckpointVersion);
    uint64_t hash;
    std::memcpy(&hash, blob.data() + 12, sizeof(hash));
    EXPECT_EQ(hash, rtl::netlistHash(sim.netlist()));

    sim.step(33);
    rtl::BitVec later = sim.peek("tx_total");
    std::stringstream snap2(blob);
    core::restoreCheckpoint(sim, snap2);
    EXPECT_EQ(sim.cycles(), 90u);
    sim.step(33);
    EXPECT_EQ(sim.peek("tx_total"), later);
}

TEST(CheckpointEnvelope, RejectsHeaderlessV0Blob)
{
    // A raw engine blob (the retired pre-envelope format) is rejected
    // with an error naming what was found; the target is untouched.
    Interpreter a(designs::makeSr(2));
    a.step(55);
    std::stringstream raw;
    a.save(raw);

    Interpreter b(designs::makeSr(2));
    b.step(3);
    try {
        core::restoreCheckpoint(b, raw);
        FAIL() << "headerless blob must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("no PRNDCKPT envelope"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(b.cycles(), 3u);
}

TEST(CheckpointEnvelope, RejectsWrongDesignWithClearError)
{
    Interpreter a(designs::makeSr(2));
    std::stringstream snap;
    core::saveCheckpoint(a, snap);

    Interpreter b(designs::makeSr(4));
    std::stringstream snap2(snap.str());
    try {
        core::restoreCheckpoint(b, snap2);
        FAIL() << "mismatched design must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("different design"),
                  std::string::npos);
    }
}

TEST(CheckpointEnvelope, RejectsUnknownVersion)
{
    Interpreter a(designs::makeSr(2));
    std::stringstream snap;
    core::saveCheckpoint(a, snap);
    std::string blob = snap.str();
    uint32_t future = core::kCheckpointVersion + 7;
    std::memcpy(blob.data() + 8, &future, sizeof(future));

    std::stringstream snap2(blob);
    try {
        core::restoreCheckpoint(a, snap2);
        FAIL() << "future version must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(CheckpointEnvelope, SessionHandleFacade)
{
    core::SessionHandle session(
        std::make_unique<Interpreter>(designs::makeSr(2)), "sr2");
    EXPECT_EQ(session.designName(), "sr2");
    EXPECT_EQ(session.designHash(),
              rtl::netlistHash(session.engine().netlist()));

    session.step(42);
    EXPECT_EQ(session.cycles(), 42u);
    std::stringstream snap;
    session.checkpoint(snap);
    session.step(13);
    rtl::BitVec later = session.engine().peek("rx_total");
    core::restoreCheckpoint(session.engine(), snap);
    EXPECT_EQ(session.cycles(), 42u);
    session.step(13);
    EXPECT_EQ(session.engine().peek("rx_total"), later);
}
