/**
 * @file
 * serve::ArtifactStore unit tests: hit/miss/warm-start accounting,
 * LRU eviction order under a byte budget, single-flight compilation
 * under concurrent misses, and recovery from failed builds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>

#include "obs/counters.hh"
#include "serve/artifact.hh"

using namespace parendi;
using serve::ArtifactStore;

namespace fs = std::filesystem;

namespace {

/** A fresh store directory per test, removed on destruction. */
struct TempDir
{
    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("parendi-artifact-test-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(counter++)))
                   .string();
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    static inline int counter = 0;
    std::string path;
};

/** A builder that writes @p bytes of filler and counts invocations. */
auto
filler(size_t bytes, std::atomic<int> *builds = nullptr)
{
    return [bytes, builds](const std::string &objectPath) {
        if (builds)
            builds->fetch_add(1);
        std::ofstream f(objectPath, std::ios::binary);
        std::string blob(bytes, 'x');
        f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
        return f.good();
    };
}

uint64_t
counterValue(obs::Counters &counters, const char *name)
{
    return counters.get(name).value();
}

} // namespace

TEST(ArtifactStore, MissThenHit)
{
    TempDir dir;
    obs::Counters counters;
    ArtifactStore::Options opt;
    opt.dir = dir.path;
    ArtifactStore store(opt, counters);

    std::atomic<int> builds{0};
    std::string p1 = store.acquire(42, filler(100, &builds));
    ASSERT_FALSE(p1.empty());
    EXPECT_TRUE(fs::exists(p1));
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(counterValue(counters, serve::kArtifactMisses), 1u);
    EXPECT_EQ(counterValue(counters, serve::kArtifactHits), 0u);

    // Second acquire of the same key: no build, one hit.
    std::string p2 = store.acquire(42, filler(100, &builds));
    EXPECT_EQ(p2, p1);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(counterValue(counters, serve::kArtifactHits), 1u);
    EXPECT_EQ(store.bytesResident(), 100u);
}

TEST(ArtifactStore, WarmStartFromDisk)
{
    TempDir dir;
    ArtifactStore::Options opt;
    opt.dir = dir.path;
    {
        obs::Counters counters;
        ArtifactStore first(opt, counters);
        ASSERT_FALSE(first.acquire(7, filler(64)).empty());
    }

    // A new store over the same directory adopts the on-disk object
    // without invoking the builder — the cross-process warm start.
    obs::Counters counters;
    ArtifactStore second(opt, counters);
    std::atomic<int> builds{0};
    std::string p = second.acquire(7, filler(64, &builds));
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(builds.load(), 0);
    EXPECT_EQ(counterValue(counters, serve::kArtifactWarmStarts), 1u);
    EXPECT_EQ(counterValue(counters, serve::kArtifactMisses), 0u);
}

TEST(ArtifactStore, EvictsLeastRecentlyUsed)
{
    TempDir dir;
    obs::Counters counters;
    ArtifactStore::Options opt;
    opt.dir = dir.path;
    opt.byteBudget = 3000;
    ArtifactStore store(opt, counters);

    std::string p1 = store.acquire(1, filler(1000));
    std::string p2 = store.acquire(2, filler(1000));
    std::string p3 = store.acquire(3, filler(1000));
    EXPECT_EQ(store.entries(), 3u);
    EXPECT_EQ(store.bytesResident(), 3000u);

    // Touch key 1 so key 2 becomes the LRU entry, then push the store
    // over budget: exactly key 2 must be evicted (and deleted).
    store.acquire(1, filler(1000));
    std::string p4 = store.acquire(4, filler(1000));
    EXPECT_EQ(counterValue(counters, serve::kArtifactEvictions), 1u);
    EXPECT_TRUE(store.contains(1));
    EXPECT_FALSE(store.contains(2));
    EXPECT_TRUE(store.contains(3));
    EXPECT_TRUE(store.contains(4));
    EXPECT_FALSE(fs::exists(p2));
    EXPECT_TRUE(fs::exists(p1));
    EXPECT_EQ(store.bytesResident(), 3000u);
}

TEST(ArtifactStore, EvictionRemovesDebugSource)
{
    TempDir dir;
    obs::Counters counters;
    ArtifactStore::Options opt;
    opt.dir = dir.path;
    opt.byteBudget = 3000;  // one entry: a 1000 B object + 2000 B source
    ArtifactStore store(opt, counters);

    // Like CgenModule::compile: the object, and the whole TU beside it.
    auto build = [](const std::string &objectPath) {
        std::ofstream(objectPath, std::ios::binary)
            << std::string(1000, 'o');
        std::ofstream(rtl::cgenDebugSourcePath(objectPath))
            << std::string(2000, 's');
        return true;
    };
    store.acquire(1, build);
    std::string p2 = store.acquire(2, build);
    EXPECT_FALSE(store.contains(1));
    EXPECT_TRUE(store.contains(2));

    std::set<std::string> left;
    for (const auto &e : fs::directory_iterator(dir.path))
        left.insert(e.path().string());
    std::string src2 = rtl::cgenDebugSourcePath(p2);
    EXPECT_EQ(left, (std::set<std::string>{p2, src2}));
    EXPECT_EQ(store.bytesResident(),
              fs::file_size(p2) + fs::file_size(src2));
}

TEST(ArtifactStore, NeverEvictsTheEntryJustAcquired)
{
    TempDir dir;
    obs::Counters counters;
    ArtifactStore::Options opt;
    opt.dir = dir.path;
    opt.byteBudget = 100;    // smaller than any artifact
    ArtifactStore store(opt, counters);

    // An over-budget artifact stays resident (there is nothing else
    // to evict and the store never evicts what it just returned).
    std::string p = store.acquire(9, filler(500));
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(fs::exists(p));
    EXPECT_TRUE(store.contains(9));

    // The next key evicts it.
    store.acquire(10, filler(500));
    EXPECT_FALSE(store.contains(9));
    EXPECT_TRUE(store.contains(10));
}

TEST(ArtifactStore, SingleFlightCompilation)
{
    TempDir dir;
    obs::Counters counters;
    ArtifactStore::Options opt;
    opt.dir = dir.path;
    ArtifactStore store(opt, counters);

    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;
    std::atomic<int> builds{0};

    // A builder that blocks until the test releases it, so the second
    // acquire provably overlaps the first one's compile.
    auto slowBuild = [&](const std::string &objectPath) {
        builds.fetch_add(1);
        {
            std::unique_lock<std::mutex> lk(m);
            entered = true;
            cv.notify_all();
            cv.wait(lk, [&] { return release; });
        }
        std::ofstream f(objectPath, std::ios::binary);
        f << "native code";
        return f.good();
    };

    std::string pathA, pathB;
    std::thread a([&] { pathA = store.acquire(5, slowBuild); });
    {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return entered; });
    }
    std::thread b([&] { pathB = store.acquire(5, slowBuild); });
    // Give b time to reach the in-flight wait, then let a finish.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
        std::lock_guard<std::mutex> lk(m);
        release = true;
    }
    cv.notify_all();
    a.join();
    b.join();

    EXPECT_EQ(builds.load(), 1);    // one compile for two requesters
    EXPECT_EQ(pathA, pathB);
    EXPECT_FALSE(pathA.empty());
    EXPECT_EQ(counterValue(counters, serve::kArtifactMisses), 1u);
    EXPECT_EQ(counterValue(counters, serve::kArtifactHits), 1u);
}

TEST(ArtifactStore, FailedBuildIsRetriable)
{
    TempDir dir;
    obs::Counters counters;
    ArtifactStore::Options opt;
    opt.dir = dir.path;
    ArtifactStore store(opt, counters);

    EXPECT_TRUE(
        store.acquire(3, [](const std::string &) { return false; })
            .empty());
    EXPECT_EQ(store.entries(), 0u);

    // The failure is not cached: the next acquire builds again.
    std::atomic<int> builds{0};
    std::string p = store.acquire(3, filler(32, &builds));
    EXPECT_FALSE(p.empty());
    EXPECT_EQ(builds.load(), 1);
}
