/**
 * @file
 * The deterministic input journal: a recorded log of everything the
 * host did to a session (pokes, steps, resets, snapshot points), so
 * that restoring any snapshot and replaying the tail of the journal
 * reproduces the original run bit-identically — on any engine and any
 * thread count, because the engines are bit-identical by construction
 * and the journal captures the full external stimulus.
 *
 * Stream layout:
 *
 *    [8B magic "PRNDJRNL"] [u32 version = 1] [u64 netlist hash]
 *    record*
 *
 * Each record is one byte of opcode plus an op-specific payload:
 *
 *    Poke     u32 lane (kAllLanes = broadcast), u32 nameLen, name,
 *             u32 width, wordsFor(width) raw u64 words
 *    Step     u64 n
 *    Reset    (no payload)
 *    Snapshot u32 seq, u64 cycle — marks "snapshot #seq of the
 *             sibling snapshot stream was taken here"
 *
 * Snapshot markers make replay-from-snapshot-k exact: replay skips
 * every record up to and including marker k (whose state the snapshot
 * already holds), cross-checks the marker's cycle count against the
 * restored engine, and applies everything after. Resets need no
 * special casing — the marker pins the resume point positionally, not
 * by cycle arithmetic.
 */

#ifndef PARENDI_CKPT_JOURNAL_HH
#define PARENDI_CKPT_JOURNAL_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/engine.hh"
#include "rtl/bitvec.hh"
#include "rtl/netlist.hh"

namespace parendi::ckpt {

/** The journal stream version this module reads and writes. */
inline constexpr uint32_t kJournalVersion = 1;

/** Append stimulus records to a stream (envelope written at
 *  construction). Hosts call record*() alongside the corresponding
 *  engine calls; see core::SessionHandle::attachJournal for the
 *  automatic wiring. */
class JournalWriter
{
  public:
    JournalWriter(std::ostream &out, const rtl::Netlist &nl);

    void recordPoke(const std::string &input, const rtl::BitVec &value,
                    uint32_t lane = core::kAllLanes);
    void recordStep(uint64_t n);
    void recordReset();

    /** Mark that snapshot @p seq was taken at @p cycle. */
    void recordSnapshot(uint32_t seq, uint64_t cycle);

    uint64_t records() const { return records_; }

  private:
    std::ostream &out_;
    uint64_t records_ = 0;
};

/**
 * Replay a journal against @p engine. With @p fromSnapshot < 0 the
 * engine must be freshly constructed (cycle 0): every record is
 * applied. Otherwise the engine must hold snapshot #fromSnapshot of
 * the sibling snapshot stream: records up to and including that
 * snapshot marker are skipped, the marker's cycle is cross-checked
 * against engine.cycles(), and the tail is applied. Returns the
 * number of stimulus records applied; fatal() on a design mismatch,
 * a missing snapshot marker, or a corrupt stream.
 */
uint64_t replayJournal(std::istream &in, core::SimEngine &engine,
                       int64_t fromSnapshot = -1);

} // namespace parendi::ckpt

#endif // PARENDI_CKPT_JOURNAL_HH
