/**
 * @file
 * Unit tests for the utility layer: DenseBitset algebra, the RNG,
 * the table printer, logging/error behaviour, and the BspPool
 * barrier-wait observer hooks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "util/bitset.hh"
#include "util/bsp_pool.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace parendi;

TEST(DenseBitset, SetResetTest)
{
    DenseBitset b(130);
    EXPECT_TRUE(b.empty());
    b.set(0);
    b.set(64);
    b.set(129);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(129));
    EXPECT_FALSE(b.test(1));
    EXPECT_EQ(b.count(), 3u);
    b.reset(64);
    EXPECT_FALSE(b.test(64));
    EXPECT_EQ(b.count(), 2u);
}

TEST(DenseBitset, UnionIntersection)
{
    DenseBitset a(200), b(200);
    for (size_t i = 0; i < 200; i += 3)
        a.set(i);
    for (size_t i = 0; i < 200; i += 5)
        b.set(i);
    size_t expect_inter = 0, expect_union = 0;
    for (size_t i = 0; i < 200; ++i) {
        bool in_a = i % 3 == 0, in_b = i % 5 == 0;
        expect_inter += in_a && in_b;
        expect_union += in_a || in_b;
    }
    EXPECT_EQ(a.intersectCount(b), expect_inter);
    EXPECT_EQ(a.unionCount(b), expect_union);
    DenseBitset u = a;
    u |= b;
    EXPECT_EQ(u.count(), expect_union);
    DenseBitset i2 = a;
    i2 &= b;
    EXPECT_EQ(i2.count(), expect_inter);
}

TEST(DenseBitset, WeightedOperations)
{
    DenseBitset a(64), b(64);
    std::vector<uint64_t> w(64);
    for (size_t i = 0; i < 64; ++i)
        w[i] = i + 1;
    a.set(3);
    a.set(10);
    b.set(10);
    b.set(20);
    EXPECT_EQ(a.totalWeight(w), 4u + 11u);
    EXPECT_EQ(a.intersectWeight(b, w), 11u);
    // The submodular identity used by the partitioner:
    DenseBitset u = a;
    u |= b;
    EXPECT_EQ(u.totalWeight(w),
              a.totalWeight(w) + b.totalWeight(w) -
                  a.intersectWeight(b, w));
}

TEST(DenseBitset, ForEachIsOrdered)
{
    DenseBitset a(128);
    a.set(127);
    a.set(5);
    a.set(63);
    std::vector<size_t> seen;
    a.forEach([&](size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<size_t>{5, 63, 127}));
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(a.below(17), 17u);
        double u = a.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, Xorshift32KnownSequence)
{
    // First values of xorshift32 from seed 1 (Marsaglia).
    uint32_t x = 1;
    x = xorshift32(x);
    EXPECT_EQ(x, 270369u);
    x = xorshift32(x);
    EXPECT_EQ(x, 67634689u);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"name", "value"});
    t.row().cell("a").cell(uint64_t{1});
    t.row().cell("bee").cell(2.5, 1);
    EXPECT_EQ(t.rowCount(), 2u);
    std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("bee"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, HandlesRaggedRows)
{
    Table t({"a", "b", "c"});
    t.row().cell("only");
    EXPECT_NO_THROW(t.str());
}

TEST(Logging, FatalThrowsPanicless)
{
    EXPECT_THROW(fatal("test error %d", 42), FatalError);
    try {
        fatal("code %d", 7);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("code 7"),
                  std::string::npos);
    }
}

TEST(Logging, QuietSuppressesInform)
{
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    inform("this should not print");
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("%s-%03d", "x", 7), "x-007");
}

namespace {

struct CountingObserver : util::BspWaitObserver
{
    static constexpr uint32_t kMaxWorkers = 16;
    std::atomic<uint64_t> begins[kMaxWorkers] = {};
    std::atomic<uint64_t> ends[kMaxWorkers] = {};

    void
    epochWaitBegin(uint32_t worker) override
    {
        begins[worker].fetch_add(1, std::memory_order_relaxed);
    }

    void
    epochWaitEnd(uint32_t worker) override
    {
        ends[worker].fetch_add(1, std::memory_order_relaxed);
    }
};

} // namespace

TEST(BspPool, WaitObserverFiresOncePerEpochPerWorker)
{
    constexpr uint32_t kWorkers = 4;
    CountingObserver obs;
    {
        util::BspPool pool(kWorkers);
        pool.setWaitObserver(&obs);
        // Warm-up epoch: workers may have started waiting for it
        // before the observer was installed, so whether it is counted
        // for workers 1..N-1 is indeterminate. Every later wait begins
        // with the observer in place.
        pool.run([](uint32_t) {});
        uint64_t base[kWorkers];
        for (uint32_t w = 0; w < kWorkers; ++w)
            base[w] = obs.ends[w].load();

        constexpr uint64_t kRuns = 10;
        for (uint64_t i = 0; i < kRuns; ++i)
            pool.run([](uint32_t) {});

        // Worker 0 (the caller) completes its arrival wait inside each
        // run(); workers 1..N-1 complete their release wait for epoch
        // k during run k. Either way: exactly one pair per epoch.
        for (uint32_t w = 0; w < kWorkers; ++w)
            EXPECT_EQ(obs.ends[w].load() - base[w], kRuns)
                << "worker " << w;
    }
    // Destruction releases one final stop epoch: one extra pair for
    // each spawned worker, none for the caller. Begin/End must balance
    // once the pool is gone.
    for (uint32_t w = 0; w < kWorkers; ++w)
        EXPECT_EQ(obs.begins[w].load(), obs.ends[w].load())
            << "worker " << w;
}

TEST(BspPool, WaitObserverFastPathStillPairs)
{
    // threads <= 1: run() degenerates to a plain call with no barrier,
    // so no hooks fire — but the call must still work with an
    // observer installed.
    CountingObserver obs;
    util::BspPool pool(1);
    pool.setWaitObserver(&obs);
    int calls = 0;
    pool.run([&](uint32_t w) {
        EXPECT_EQ(w, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(obs.begins[0].load(), 0u);
    EXPECT_EQ(obs.ends[0].load(), 0u);
}
