/**
 * @file
 * SessionHandle: the host-facing facade of one simulation session — a
 * SimEngine plus its design identity (name and content hash) and a
 * versioned checkpoint envelope. The serving layer (src/serve) wraps
 * every session in one of these; embedders that want checkpoint
 * headers without a server use the free functions directly.
 *
 * Checkpoint format: every stream carries the envelope
 *
 *    [8B magic "PRNDCKPT"] [u32 version] [u64 design hash]
 *
 * so a blob restored into the wrong design — or a blob from another
 * format version — fails with a clear error instead of a word-count
 * fatal() deep inside EvalState. The one version written and read is
 * v2: the envelope followed by a bit-packed, delta-coded snapshot
 * chain of the canonical architectural state (src/ckpt/snapshot.hh),
 * engine-portable (save from par@8, restore into interp). Streams of
 * the retired formats — headerless v0 engine blobs and v1 envelopes
 * around a raw SimEngine::saveState blob — are rejected with an error
 * that names what was found.
 */

#ifndef PARENDI_CORE_SESSION_HH
#define PARENDI_CORE_SESSION_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>

#include "core/engine.hh"

namespace parendi::ckpt {
class JournalWriter;
}

namespace parendi::core {

/** First 8 bytes of a checkpoint ("PRNDCKPT", little-endian u64). */
inline constexpr uint64_t kCheckpointMagic = 0x54504b43444e5250ull;

/** The envelope version written and accepted. */
inline constexpr uint32_t kCheckpointVersion = 2;

/** Write @p engine's state as a v2 checkpoint. */
void saveCheckpoint(const SimEngine &engine, std::ostream &out);

/**
 * Restore @p engine from a v2 checkpoint stream: verify the envelope
 * (magic, version, design hash against netlistHash(engine.netlist()))
 * and import the last snapshot of the chain. fatal() with a
 * descriptive message on a missing envelope, any other version or a
 * design mismatch — callers that must not die (the server) catch
 * FatalError.
 */
void restoreCheckpoint(SimEngine &engine, std::istream &in);

/**
 * One simulation session: an engine, the design name it was created
 * from, and the design's content hash (computed once at construction).
 * Movable, not copyable; the engine is owned.
 */
class SessionHandle
{
  public:
    /** @p engine must be non-null; @p designName is the creation spec
     *  (a builtin design name, a file path — whatever the host used),
     *  kept for listings and error messages. */
    SessionHandle(std::unique_ptr<SimEngine> engine,
                  std::string designName);

    SessionHandle(SessionHandle &&) = default;
    SessionHandle &operator=(SessionHandle &&) = default;

    SimEngine &engine() { return *engine_; }
    const SimEngine &engine() const { return *engine_; }

    const std::string &designName() const { return designName_; }
    /** rtl::netlistHash of the engine's design. */
    uint64_t designHash() const { return designHash_; }

    // Convenience forwards. Routing stimulus through these (rather
    // than engine() directly) records it in the attached journal, so
    // the session's runs are replayable (ckpt::replayJournal).
    void step(size_t n = 1);
    void poke(const std::string &input, const rtl::BitVec &value);
    void pokeLane(const std::string &input, const rtl::BitVec &value,
                  uint32_t lane);
    void reset();
    uint64_t cycles() const { return engine_->cycles(); }

    /**
     * Attach (or detach, with nullptr) a deterministic input journal:
     * every step/poke/reset routed through this handle is recorded,
     * and checkpoint() marks its snapshot point. The writer is not
     * owned and must outlive the attachment.
     */
    void attachJournal(ckpt::JournalWriter *journal)
    {
        journal_ = journal;
    }
    ckpt::JournalWriter *journal() const { return journal_; }

    /** Headered checkpoint of this session (see saveCheckpoint).
     *  With a journal attached, also records the snapshot marker
     *  replayJournal() resumes from. Restore with
     *  restoreCheckpoint(engine(), in). */
    void checkpoint(std::ostream &out);

  private:
    std::unique_ptr<SimEngine> engine_;
    std::string designName_;
    uint64_t designHash_ = 0;
    ckpt::JournalWriter *journal_ = nullptr;
    uint32_t checkpoints_ = 0;  ///< snapshot markers recorded so far
};

} // namespace parendi::core

#endif // PARENDI_CORE_SESSION_HH
