/**
 * @file
 * Tests for the snapshot/replay subsystem (src/ckpt): the bitstream
 * coder, the v2 compressed snapshot format, delta chains, the
 * deterministic input journal, cross-engine portability, corruption
 * rejection, and v0/v1/v2 cross-version compatibility.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/bitstream.hh"
#include "ckpt/journal.hh"
#include "ckpt/snapshot.hh"
#include "core/engine.hh"
#include "core/session.hh"
#include "designs/designs.hh"
#include "random_netlist.hh"
#include "rtl/cgen.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "x86/parallel.hh"

using namespace parendi;
using parendi::testing::randomNetlist;
using parendi::testing::RandomNetlistConfig;
using rtl::BitVec;
using rtl::Interpreter;
using rtl::Netlist;

// ---- Bitstream ----------------------------------------------------------

TEST(Bitstream, UegRoundTrip)
{
    std::vector<uint64_t> vals = {0,      1,          2,
                                  7,      8,          255,
                                  256,    1u << 20,   (1ull << 32) - 1,
                                  12345,  0xdeadbeef, 42};
    ckpt::BitWriter w;
    for (uint64_t v : vals)
        w.writeUEG(v);
    w.alignByte();
    ckpt::BitReader r(w.bytes().data(), w.bytes().size());
    for (uint64_t v : vals)
        EXPECT_EQ(r.readUEG(), v);
    EXPECT_FALSE(r.overran());
}

TEST(Bitstream, MixedBitsRoundTrip)
{
    ckpt::BitWriter w;
    w.writeBits(0x5ull, 3);
    w.writeBit(true);
    w.writeBits(0xdeadbeefcafef00dull, 64);
    w.writeUEG(777);
    w.writeBits(0x1ffull, 9);
    w.alignByte();
    ckpt::BitReader r(w.bytes().data(), w.bytes().size());
    EXPECT_EQ(r.readBits(3), 0x5u);
    EXPECT_TRUE(r.readBit());
    EXPECT_EQ(r.readBits(64), 0xdeadbeefcafef00dull);
    EXPECT_EQ(r.readUEG(), 777u);
    EXPECT_EQ(r.readBits(9), 0x1ffu);
    EXPECT_FALSE(r.overran());
}

TEST(Bitstream, CodeWordsRoundTripSparseAndDense)
{
    Rng rng(0xc0ffee);
    for (int trial = 0; trial < 50; ++trial) {
        size_t n = 1 + rng.below(200);
        std::vector<uint64_t> words(n, 0);
        // Mostly zero (the XOR-delta shape), a few dense words.
        for (size_t i = 0; i < n; ++i) {
            switch (rng.below(8)) {
              case 0: words[i] = rng.next(); break;       // dense
              case 1: words[i] = rng.below(1000); break;  // small
              default: break;                             // zero
            }
        }
        ckpt::BitWriter w;
        ckpt::codeWords(w, words.data(), n);
        w.alignByte();
        std::vector<uint64_t> back(n, 0xffffffffffffffffull);
        ckpt::BitReader r(w.bytes().data(), w.bytes().size());
        ckpt::decodeWords(r, back.data(), n);
        ASSERT_FALSE(r.overran()) << "trial " << trial;
        ASSERT_EQ(back, words) << "trial " << trial;
    }
}

TEST(Bitstream, ReaderDetectsTruncation)
{
    ckpt::BitWriter w;
    for (int i = 0; i < 100; ++i)
        w.writeBits(0xffffffffffffffffull, 64);
    w.alignByte();
    // Half the bytes are gone: reading all 100 words must trip the
    // sticky overran flag, never crash.
    ckpt::BitReader r(w.bytes().data(), w.bytes().size() / 2);
    for (int i = 0; i < 100; ++i)
        r.readBits(64);
    EXPECT_TRUE(r.overran());
}

// ---- Snapshot format ----------------------------------------------------

namespace {

/** All register values of @p e, concatenated (a cheap state digest
 *  for equality checks between two engines of the same design). */
std::string
regsDigest(const core::SimEngine &e)
{
    std::string out;
    const Netlist &nl = e.netlist();
    for (rtl::RegId r = 0; r < nl.numRegisters(); ++r)
        out += e.peekRegister(nl.reg(r).name).toHex() + ";";
    return out;
}

} // namespace

TEST(Snapshot, PackUnpackRoundTrip)
{
    Interpreter sim(designs::makeSr(2));
    sim.step(64);
    core::ArchState st;
    ASSERT_TRUE(sim.exportArch(st));

    ckpt::PackedImage img = ckpt::packArchState(st);
    core::ArchState back;
    ckpt::shapeArchState(sim.netlist(), 1, back);
    ckpt::unpackArchState(img, back);
    back.cycles = st.cycles;

    ASSERT_EQ(back.regs.size(), st.regs.size());
    for (size_t i = 0; i < st.regs.size(); ++i)
        EXPECT_EQ(back.regs[i], st.regs[i]) << "reg " << i;
    ASSERT_EQ(back.mems.size(), st.mems.size());
    for (size_t i = 0; i < st.mems.size(); ++i)
        EXPECT_EQ(back.mems[i], st.mems[i]) << "mem " << i;
    ASSERT_EQ(back.inputs.size(), st.inputs.size());
    for (size_t i = 0; i < st.inputs.size(); ++i)
        EXPECT_EQ(back.inputs[i], st.inputs[i]) << "input " << i;
}

TEST(Snapshot, V2RoundTripIsBitIdentical)
{
    Interpreter sim(designs::makeBitcoin({2, 16}));
    sim.step(100);
    uint64_t fnv = ckpt::archStateFnv(sim);

    std::stringstream snap;
    core::saveCheckpoint(sim, snap);
    sim.step(50); // diverge
    EXPECT_NE(ckpt::archStateFnv(sim), fnv);

    core::restoreCheckpoint(sim, snap);
    EXPECT_EQ(sim.cycles(), 100u);
    EXPECT_EQ(ckpt::archStateFnv(sim), fnv);
}

TEST(Snapshot, DeltaChainRestoresAnyRecord)
{
    Netlist nl = randomNetlist(7);
    Interpreter sim(nl);
    Interpreter ref(nl);

    std::stringstream snap;
    ckpt::SnapshotWriter writer(snap, sim.netlist());
    std::vector<uint64_t> fnvs;
    writer.write(sim); // record 0: cycle 0
    fnvs.push_back(ckpt::archStateFnv(sim));
    for (int k = 0; k < 6; ++k) {
        sim.step(25);
        writer.write(sim);
        fnvs.push_back(ckpt::archStateFnv(sim));
    }
    ASSERT_EQ(writer.records(), 7u);

    // Restore every record of the chain into a fresh engine and check
    // the digest; continue from record 3 and it must match the
    // uninterrupted reference.
    for (size_t k = 0; k < fnvs.size(); ++k) {
        Interpreter fresh(nl);
        std::stringstream in(snap.str());
        EXPECT_EQ(ckpt::restoreSnapshotChain(
                      in, fresh, static_cast<int64_t>(k)),
                  k + 1);
        EXPECT_EQ(fresh.cycles(), k * 25);
        EXPECT_EQ(ckpt::archStateFnv(fresh), fnvs[k]) << "record " << k;
    }

    Interpreter resumed(nl);
    std::stringstream in(snap.str());
    ckpt::restoreSnapshotChain(in, resumed, 3);
    resumed.step(200 - 75);
    ref.step(200);
    EXPECT_EQ(regsDigest(resumed), regsDigest(ref));
    EXPECT_EQ(ckpt::archStateFnv(resumed), ckpt::archStateFnv(ref));
}

TEST(Snapshot, PortableAcrossEngines)
{
    Netlist nl = randomNetlist(21);

    // Save from par@8...
    rtl::ParallelInterpreter par(nl, 8);
    par.step(120);
    std::stringstream snap;
    core::saveCheckpoint(par, snap);
    uint64_t fnv = ckpt::archStateFnv(par);

    // ...restore into interp, cgen, and par@3 — all bit-identical,
    // before and after further stepping.
    std::vector<std::unique_ptr<core::SimEngine>> targets;
    targets.push_back(std::make_unique<Interpreter>(nl));
    targets.push_back(std::make_unique<rtl::CgenInterpreter>(nl));
    targets.push_back(
        std::make_unique<rtl::ParallelInterpreter>(nl, 3));
    par.step(40);
    for (auto &t : targets) {
        std::stringstream in(snap.str());
        core::restoreCheckpoint(*t, in);
        EXPECT_EQ(t->cycles(), 120u) << t->engineName();
        EXPECT_EQ(ckpt::archStateFnv(*t), fnv) << t->engineName();
        t->step(40);
        EXPECT_EQ(ckpt::archStateFnv(*t), ckpt::archStateFnv(par))
            << t->engineName();
    }
}

TEST(Snapshot, GangLanesRoundTrip)
{
    RandomNetlistConfig cfg;
    cfg.inputs = 2;
    Netlist nl = randomNetlist(33, cfg);

    Interpreter gang(nl, rtl::LowerOptions{}, 4);
    for (uint32_t l = 0; l < 4; ++l)
        gang.pokeLane(nl.input(0).name,
                      BitVec(nl.input(0).width, 0xa0 + l), l);
    gang.step(60);
    std::stringstream snap;
    core::saveCheckpoint(gang, snap);
    uint64_t fnv = ckpt::archStateFnv(gang);

    // A 4-lane par gang imports the 4-lane snapshot.
    rtl::ParConfig pcfg;
    pcfg.replicas = 4;
    rtl::ParallelInterpreter par(nl, 4, rtl::LowerOptions{}, pcfg);
    std::stringstream in(snap.str());
    core::restoreCheckpoint(par, in);
    EXPECT_EQ(ckpt::archStateFnv(par), fnv);
    gang.step(30);
    par.step(30);
    EXPECT_EQ(ckpt::archStateFnv(par), ckpt::archStateFnv(gang));

    // A scalar engine must reject the 4-lane snapshot.
    Interpreter scalar(nl);
    std::stringstream in2(snap.str());
    EXPECT_THROW(core::restoreCheckpoint(scalar, in2), FatalError);
}

TEST(Snapshot, CompressedSmallerThanRawBlob)
{
    // Acceptance: a v2 snapshot is at most half the raw engine blob
    // (SimEngine::saveState) on pico.
    Interpreter sim(designs::makePico(designs::defaultCoreConfig()));
    sim.step(500);
    std::stringstream raw, v2;
    ASSERT_TRUE(sim.saveState(raw));
    core::saveCheckpoint(sim, v2);
    EXPECT_LE(v2.str().size() * 2, raw.str().size())
        << "v2 " << v2.str().size() << "B vs raw " << raw.str().size()
        << "B";
}

TEST(Snapshot, RejectsCorruptTruncatedAndReordered)
{
    Interpreter sim(designs::makeSr(2));
    std::stringstream snap;
    ckpt::SnapshotWriter writer(snap, sim.netlist());
    writer.write(sim);
    sim.step(30);
    writer.write(sim);
    std::string blob = snap.str();

    // Flip one payload byte near the end.
    {
        std::string bad = blob;
        bad[bad.size() - 3] ^= 0x40;
        Interpreter fresh(designs::makeSr(2));
        std::stringstream in(bad);
        EXPECT_THROW(ckpt::restoreSnapshotChain(in, fresh), FatalError);
    }
    // Truncate mid-record.
    {
        Interpreter fresh(designs::makeSr(2));
        std::stringstream in(blob.substr(0, blob.size() - 7));
        EXPECT_THROW(ckpt::restoreSnapshotChain(in, fresh), FatalError);
    }
    // Ask for a record past the end of the chain.
    {
        Interpreter fresh(designs::makeSr(2));
        std::stringstream in(blob);
        EXPECT_THROW(ckpt::restoreSnapshotChain(in, fresh, 5),
                     FatalError);
    }
    // A delta record without its keyframe (drop record 0): the chain
    // must be rejected, not resolved against a zero base.
    {
        // Record 0 spans from the end of the 20-byte envelope to the
        // start of record 1; find record 1 by replaying the writer.
        std::stringstream firstOnly;
        Interpreter again(designs::makeSr(2));
        ckpt::SnapshotWriter w2(firstOnly, again.netlist());
        w2.write(again);
        size_t rec1At = firstOnly.str().size();
        std::string headless = blob.substr(0, 20) + blob.substr(rec1At);
        Interpreter fresh(designs::makeSr(2));
        std::stringstream in(headless);
        EXPECT_THROW(ckpt::restoreSnapshotChain(in, fresh), FatalError);
    }
}

// ---- Cross-version compatibility ---------------------------------------

TEST(CrossVersion, OnlyV2Restores)
{
    Netlist nl = designs::makeSr(2);
    Interpreter src(nl);
    src.step(80);
    std::string digest = regsDigest(src);

    // v0: the headerless raw blob. v1: the envelope around it.
    std::stringstream v0, v1, v2;
    src.save(v0);
    uint64_t magic = core::kCheckpointMagic;
    uint32_t one = 1;
    uint64_t hash = rtl::netlistHash(nl);
    v1.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
    v1.write(reinterpret_cast<const char *>(&one), sizeof(one));
    v1.write(reinterpret_cast<const char *>(&hash), sizeof(hash));
    src.save(v1);
    core::saveCheckpoint(src, v2);

    // v2 is the writer's only format.
    {
        std::string blob = v2.str();
        uint32_t ver = 0;
        ASSERT_GE(blob.size(), 12u);
        memcpy(&ver, blob.data() + 8, sizeof(ver));
        EXPECT_EQ(ver, 2u);
    }

    // The retired formats fail naming what they are.
    for (auto [snap, what] :
         {std::pair{&v0, "no PRNDCKPT envelope"},
          std::pair{&v1, "version 1"}}) {
        Interpreter dst(nl);
        try {
            core::restoreCheckpoint(dst, *snap);
            FAIL() << what << ": must be rejected";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(dst.cycles(), 0u);
    }

    Interpreter dst(nl);
    core::restoreCheckpoint(dst, v2);
    EXPECT_EQ(dst.cycles(), 80u);
    EXPECT_EQ(regsDigest(dst), digest);
    dst.step(25);
}

// ---- Journal & deterministic replay -------------------------------------

namespace {

/** Drive a deterministic but non-trivial stimulus through a session:
 *  pokes, uneven steps, a mid-run reset, and periodic checkpoints into
 *  @p snaps. Every engine must end bit-identical after this. */
void
driveScript(core::SessionHandle &s, const Netlist &nl,
            std::ostream *snaps)
{
    std::unique_ptr<ckpt::SnapshotWriter> writer;
    if (snaps)
        writer = std::make_unique<ckpt::SnapshotWriter>(*snaps, nl);
    auto snapshot = [&]() {
        if (!writer)
            return;
        writer->write(s.engine());
        if (s.journal())
            s.journal()->recordSnapshot(writer->records() - 1,
                                        s.cycles());
    };
    uint32_t lanes = s.engine().replicas();
    snapshot(); // snapshot 0 at cycle 0
    s.step(17);
    if (nl.numInputs() > 0) {
        s.poke(nl.input(0).name, BitVec(nl.input(0).width, 0x5a5a));
        for (uint32_t l = 0; l < lanes; ++l)
            s.pokeLane(nl.input(0).name,
                       BitVec(nl.input(0).width, 0x100 + l), l);
    }
    s.step(40);
    snapshot(); // snapshot 1
    s.reset();
    s.step(23);
    if (nl.numInputs() > 1)
        s.poke(nl.input(1).name, BitVec(nl.input(1).width, 7));
    s.step(60);
    snapshot(); // snapshot 2 (after the reset)
    s.step(11);
}

} // namespace

TEST(Journal, ReplayIsBitIdenticalOnEveryEngine)
{
    RandomNetlistConfig cfg;
    cfg.inputs = 2;
    Netlist nl = randomNetlist(55, cfg);
    const uint32_t lanes = 8;

    auto makeGang = [&](const char *kind)
        -> std::unique_ptr<core::SimEngine> {
        if (std::string(kind) == "interp")
            return std::make_unique<Interpreter>(
                nl, rtl::LowerOptions{}, lanes);
        if (std::string(kind) == "cgen") {
            rtl::CgenOptions copt;
            copt.lanes = lanes;
            return std::make_unique<rtl::CgenInterpreter>(
                nl, rtl::LowerOptions{}, copt);
        }
        rtl::ParConfig pcfg;
        pcfg.replicas = lanes;
        return std::make_unique<rtl::ParallelInterpreter>(
            nl, 8, rtl::LowerOptions{}, pcfg);
    };

    // Record the run on the reference interpreter gang.
    std::stringstream journal, snaps;
    core::SessionHandle rec(makeGang("interp"), "fuzz55");
    ckpt::JournalWriter jw(journal, nl);
    rec.attachJournal(&jw);
    driveScript(rec, nl, &snaps);
    uint64_t finalFnv = ckpt::archStateFnv(rec.engine());

    // Replay from scratch on every engine kind: par@8 exercises the
    // 8-thread BSP path, cgen the generated kernels, all at gang R=8.
    for (const char *kind : {"interp", "cgen", "par"}) {
        auto engine = makeGang(kind);
        std::stringstream in(journal.str());
        ckpt::replayJournal(in, *engine);
        EXPECT_EQ(ckpt::archStateFnv(*engine), finalFnv)
            << kind << " replay-from-scratch";
    }

    // Restore snapshot k, replay the tail: identical final state —
    // including k=1, which resumes from *before* the reset, and k=2
    // after it.
    for (int64_t k = 0; k < 3; ++k) {
        for (const char *kind : {"interp", "par"}) {
            auto engine = makeGang(kind);
            std::stringstream sin(snaps.str());
            ckpt::restoreSnapshotChain(sin, *engine, k);
            std::stringstream jin(journal.str());
            ckpt::replayJournal(jin, *engine, k);
            EXPECT_EQ(ckpt::archStateFnv(*engine), finalFnv)
                << kind << " resume from snapshot " << k;
        }
    }
}

TEST(Journal, GoldenReplayChecksum)
{
    // The pico stimulus below must hash to the same value on every
    // platform and forever — the journal format, the packing order,
    // and the engines are all deterministic by construction. If this
    // value changes, a format or semantics change leaked in.
    Netlist nl = designs::makePico(designs::defaultCoreConfig());
    core::SessionHandle s(std::make_unique<Interpreter>(nl), "pico");
    std::stringstream journal;
    ckpt::JournalWriter jw(journal, nl);
    s.attachJournal(&jw);
    s.step(97);
    s.reset();
    s.step(201);

    uint64_t fnv = ckpt::archStateFnv(s.engine());
    Interpreter replayed(nl);
    std::stringstream in(journal.str());
    ckpt::replayJournal(in, replayed);
    EXPECT_EQ(ckpt::archStateFnv(replayed), fnv);
    // Golden digest (see above): update only with a format bump.
    EXPECT_EQ(fnv, 0xb09cf765b4858192ull);
}

TEST(Journal, RejectsWrongDesignAndCorruptStreams)
{
    Netlist nl = designs::makeSr(2);
    std::stringstream journal;
    ckpt::JournalWriter jw(journal, nl);
    jw.recordStep(10);

    // Wrong design.
    {
        Interpreter other(designs::makeSr(4));
        std::stringstream in(journal.str());
        EXPECT_THROW(ckpt::replayJournal(in, other), FatalError);
    }
    // Truncated mid-record.
    {
        std::string blob = journal.str();
        Interpreter eng(nl);
        std::stringstream in(blob.substr(0, blob.size() - 3));
        EXPECT_THROW(ckpt::replayJournal(in, eng), FatalError);
    }
    // Resume from a snapshot marker that is not in the journal.
    {
        Interpreter eng(nl);
        std::stringstream in(journal.str());
        EXPECT_THROW(ckpt::replayJournal(in, eng, 4), FatalError);
    }
}

// ---- Fuzz: interrupted == uninterrupted ---------------------------------

namespace {

struct FuzzCase
{
    uint64_t seed;
    const char *kind;
    uint32_t threads;
    uint32_t lanes;
};

class CkptFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

} // namespace

TEST_P(CkptFuzz, SaveRestoreRunMatchesUninterrupted)
{
    const FuzzCase &fc = GetParam();
    RandomNetlistConfig cfg;
    cfg.inputs = 1;
    Netlist nl = randomNetlist(fc.seed, cfg);

    auto make = [&]() -> std::unique_ptr<core::SimEngine> {
        if (std::string(fc.kind) == "interp")
            return std::make_unique<Interpreter>(
                nl, rtl::LowerOptions{}, fc.lanes);
        if (std::string(fc.kind) == "cgen") {
            rtl::CgenOptions copt;
            copt.lanes = fc.lanes;
            return std::make_unique<rtl::CgenInterpreter>(
                nl, rtl::LowerOptions{}, copt);
        }
        rtl::ParConfig pcfg;
        pcfg.replicas = fc.lanes;
        return std::make_unique<rtl::ParallelInterpreter>(
            nl, fc.threads, rtl::LowerOptions{}, pcfg);
    };

    Rng rng(fc.seed ^ 0xabcdef);
    uint64_t before = 1 + rng.below(120);
    uint64_t after = 1 + rng.below(120);

    // Uninterrupted reference.
    auto ref = make();
    ref->step(before + after);

    // Interrupted: run, save, restore into a *fresh* engine, run on.
    auto a = make();
    a->step(before);
    std::stringstream snap;
    core::saveCheckpoint(*a, snap);
    auto b = make();
    core::restoreCheckpoint(*b, snap);
    b->step(after);

    EXPECT_EQ(ckpt::archStateFnv(*b), ckpt::archStateFnv(*ref))
        << fc.kind << " t" << fc.threads << " R" << fc.lanes
        << " seed " << fc.seed;
}

INSTANTIATE_TEST_SUITE_P(
    EnginesThreadsReplicas, CkptFuzz,
    ::testing::Values(FuzzCase{101, "interp", 0, 1},
                      FuzzCase{102, "interp", 0, 4},
                      FuzzCase{103, "cgen", 0, 1},
                      FuzzCase{104, "cgen", 0, 8},
                      FuzzCase{105, "par", 2, 1},
                      FuzzCase{106, "par", 8, 1},
                      FuzzCase{107, "par", 4, 4},
                      FuzzCase{108, "par", 8, 8}));
