#include "serve/artifact.hh"

#include <cstdlib>
#include <filesystem>

#include "util/logging.hh"

namespace fs = std::filesystem;

namespace parendi::serve {

namespace {

std::string
resolveDir(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    if (const char *dir = std::getenv("PARENDI_ARTIFACT_DIR"))
        return dir;
    if (const char *dir = std::getenv("PARENDI_CGEN_DIR"))
        return dir;
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec)
        tmp = ".";
    return (tmp / "parendi-cgen").string();
}

uint64_t
resolveBudget(uint64_t configured)
{
    if (configured)
        return configured;
    if (const char *bytes = std::getenv("PARENDI_ARTIFACT_BYTES"))
        return std::strtoull(bytes, nullptr, 0);
    return 0;
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    uint64_t sz = fs::file_size(path, ec);
    return ec ? 0 : sz;
}

} // namespace

ArtifactStore::ArtifactStore(const Options &opt, obs::Counters &counters)
    : dir_(resolveDir(opt.dir)), budget_(resolveBudget(opt.byteBudget)),
      hits_(counters.get(kArtifactHits)),
      misses_(counters.get(kArtifactMisses)),
      warmStarts_(counters.get(kArtifactWarmStarts)),
      evictions_(counters.get(kArtifactEvictions)),
      compileWaits_(counters.get(kArtifactCompileWaits))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        warn("artifact store: cannot create %s: %s", dir_.c_str(),
             ec.message().c_str());
}

std::string
ArtifactStore::acquire(
    uint64_t key,
    const std::function<bool(const std::string &objectPath)> &build)
{
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        auto it = entries_.find(key);
        if (it == entries_.end())
            break;
        if (it->second.inFlight) {
            // Someone else is compiling this key right now; wait for
            // their flight to land and re-resolve (it may have failed
            // and erased the entry, in which case we take over).
            compileWaits_.add();
            cv_.wait(lk);
            continue;
        }
        it->second.lastUse = ++useClock_;
        hits_.add();
        return it->second.path;
    }

    std::string path = dir_ + "/" + rtl::cgenObjectName(key);
    if (uint64_t sz = fileBytes(path)) {
        // On disk but unknown to this store: compiled by an earlier
        // process (or an evicted entry another store re-made). Adopt
        // it — that is the warm start the store exists for.
        warmStarts_.add();
        Entry &e = entries_[key];
        e.path = path;
        e.bytes = sz + fileBytes(rtl::cgenDebugSourcePath(path));
        e.lastUse = ++useClock_;
        bytes_ += e.bytes;
        evictOver(key);
        return path;
    }

    // Miss: this caller compiles; the in-flight marker holds back
    // every other requester of the same key.
    misses_.add();
    Entry &placeholder = entries_[key];
    placeholder.path = path;
    placeholder.inFlight = true;
    lk.unlock();

    bool ok = build(path);

    lk.lock();
    if (!ok) {
        entries_.erase(key);
        cv_.notify_all();
        return std::string();
    }
    Entry &e = entries_[key];
    e.inFlight = false;
    e.bytes = fileBytes(path) + fileBytes(rtl::cgenDebugSourcePath(path));
    e.lastUse = ++useClock_;
    bytes_ += e.bytes;
    evictOver(key);
    cv_.notify_all();
    return path;
}

void
ArtifactStore::evictOver(uint64_t keep)
{
    if (!budget_)
        return;
    while (bytes_ > budget_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->first == keep || it->second.inFlight)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries_.end())
            return;     // nothing evictable (all in flight or `keep`)
        std::error_code ec;
        fs::remove(victim->second.path, ec);
        fs::remove(rtl::cgenDebugSourcePath(victim->second.path), ec);
        bytes_ -= victim->second.bytes;
        entries_.erase(victim);
        evictions_.add();
    }
}

uint64_t
ArtifactStore::bytesResident() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return bytes_;
}

size_t
ArtifactStore::entries() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return entries_.size();
}

bool
ArtifactStore::contains(uint64_t key) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return entries_.count(key) != 0;
}

} // namespace parendi::serve
