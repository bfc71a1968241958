/**
 * @file
 * serve::ArtifactStore — the content-addressed store of compiled cgen
 * objects shared by every session of the simulation host. It
 * implements rtl::ArtifactCache, so engine construction resolves its
 * native kernels through the store instead of the per-process
 * directory cache (rtl/cgen.cc), and layers on top of the same
 * key → "parendi_<hex>.so" file layout:
 *
 *  - sharing: sessions of the same design (same netlistHash, same
 *    compiler command) hit the same entry — the second session of a
 *    design warm-starts without invoking the compiler;
 *  - single-flight: concurrent misses on one key run ONE compile;
 *    the other requesters block until it publishes (or fails);
 *  - LRU eviction by byte budget: the store tracks resident sizes
 *    (each object plus the "parendi_<hex>.cc" debug source kept
 *    beside it) and evicts least-recently-acquired entries (deleting
 *    both files) once the budget is exceeded. Linux keeps
 *    dlopen()ed objects mapped after unlink, so evicting an artifact
 *    a live session still executes is safe — it just forces a
 *    recompile for the next session;
 *  - telemetry: hit / miss / warm-start / eviction counts are
 *    obs::Counters the Stats protocol op reports.
 */

#ifndef PARENDI_SERVE_ARTIFACT_HH
#define PARENDI_SERVE_ARTIFACT_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/counters.hh"
#include "rtl/cgen.hh"

namespace parendi::serve {

// Counter names the store registers (see DESIGN.md "Serving layer").
inline constexpr const char *kArtifactHits = "artifact_hits";
inline constexpr const char *kArtifactMisses = "artifact_misses";
inline constexpr const char *kArtifactWarmStarts = "artifact_warm_starts";
inline constexpr const char *kArtifactEvictions = "artifact_evictions";
inline constexpr const char *kArtifactCompileWaits =
    "artifact_compile_waits";

class ArtifactStore final : public rtl::ArtifactCache
{
  public:
    struct Options
    {
        /** Store directory. Empty selects $PARENDI_ARTIFACT_DIR, then
         *  $PARENDI_CGEN_DIR, then "<tmpdir>/parendi-cgen" — the same
         *  default as the directory cache, so a store warm-starts from
         *  artifacts earlier CLI runs compiled. */
        std::string dir;

        /** Resident-byte budget (objects plus their debug sources);
         *  0 selects $PARENDI_ARTIFACT_BYTES, and unlimited when that
         *  is unset too. */
        uint64_t byteBudget = 0;
    };

    /** @p counters must outlive the store (the SessionManager owns
     *  both). Creates the store directory. */
    ArtifactStore(const Options &opt, obs::Counters &counters);

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /** rtl::ArtifactCache: resolve @p key, compiling at most once per
     *  key however many sessions ask concurrently. */
    std::string
    acquire(uint64_t key,
            const std::function<bool(const std::string &objectPath)>
                &build) override;

    const std::string &dir() const { return dir_; }
    uint64_t byteBudget() const { return budget_; }

    // Introspection (tests).
    uint64_t bytesResident() const;
    size_t entries() const;
    bool contains(uint64_t key) const;

  private:
    /** Evict LRU completed entries (never @p keep) until the resident
     *  bytes fit the budget. Caller holds mutex_. */
    void evictOver(uint64_t keep);

    struct Entry
    {
        std::string path;
        uint64_t bytes = 0;
        uint64_t lastUse = 0;   ///< acquire clock, for LRU order
        bool inFlight = false;  ///< a compile is running for this key
    };

    std::string dir_;
    uint64_t budget_ = 0;   ///< 0 = unlimited

    mutable std::mutex mutex_;
    std::condition_variable cv_;    ///< signalled when a flight lands
    std::unordered_map<uint64_t, Entry> entries_;
    uint64_t useClock_ = 0;
    uint64_t bytes_ = 0;    ///< resident (non-in-flight) total

    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &warmStarts_;
    obs::Counter &evictions_;
    obs::Counter &compileWaits_;
};

} // namespace parendi::serve

#endif // PARENDI_SERVE_ARTIFACT_HH
