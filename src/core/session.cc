#include "core/session.hh"

#include <istream>
#include <ostream>

#include "ckpt/journal.hh"
#include "ckpt/snapshot.hh"
#include "util/logging.hh"

namespace parendi::core {

void
saveCheckpoint(const SimEngine &engine, std::ostream &out)
{
    ckpt::SnapshotWriter writer(out, engine.netlist());
    writer.write(engine);
}

void
restoreCheckpoint(SimEngine &engine, std::istream &in)
{
    std::streampos start = in.tellg();
    uint64_t magic = 0;
    uint32_t version = 0;
    uint64_t hash = 0;
    in.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    if (!in || magic != kCheckpointMagic)
        fatal("checkpoint has no PRNDCKPT envelope (a headerless v0 "
              "engine blob?); only version %u checkpoints restore",
              kCheckpointVersion);
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    in.read(reinterpret_cast<char *>(&hash), sizeof(hash));
    if (!in)
        fatal("checkpoint header truncated");
    if (version != kCheckpointVersion)
        fatal("checkpoint format version %u not supported; only "
              "version %u checkpoints restore", version,
              kCheckpointVersion);
    uint64_t want = rtl::netlistHash(engine.netlist());
    if (hash != want)
        fatal("checkpoint is for a different design: blob design hash "
              "%016llx, this session's design hashes %016llx — "
              "restore it into a session created from the same design",
              static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(want));
    // The snapshot reader consumes the envelope itself; rewind to the
    // stream start and hand it the whole chain (restoring the last
    // record).
    in.clear();
    in.seekg(start);
    if (!in)
        fatal("checkpoint stream is not seekable; cannot restore a v2 "
              "snapshot chain");
    ckpt::restoreSnapshotChain(in, engine);
}

SessionHandle::SessionHandle(std::unique_ptr<SimEngine> engine,
                             std::string designName)
    : engine_(std::move(engine)), designName_(std::move(designName))
{
    if (!engine_)
        panic("SessionHandle requires an engine");
    designHash_ = rtl::netlistHash(engine_->netlist());
}

void
SessionHandle::step(size_t n)
{
    engine_->step(n);
    if (journal_)
        journal_->recordStep(n);
}

void
SessionHandle::poke(const std::string &input, const rtl::BitVec &value)
{
    engine_->poke(input, value);
    if (journal_)
        journal_->recordPoke(input, value);
}

void
SessionHandle::pokeLane(const std::string &input,
                        const rtl::BitVec &value, uint32_t lane)
{
    engine_->pokeLane(input, value, lane);
    if (journal_)
        journal_->recordPoke(input, value, lane);
}

void
SessionHandle::reset()
{
    engine_->reset();
    if (journal_)
        journal_->recordReset();
}

void
SessionHandle::checkpoint(std::ostream &out)
{
    saveCheckpoint(*engine_, out);
    if (journal_)
        journal_->recordSnapshot(checkpoints_, engine_->cycles());
    ++checkpoints_;
}

} // namespace parendi::core
