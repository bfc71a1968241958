/**
 * @file
 * The v2 checkpoint format: versioned, compact, engine-portable
 * snapshots of architectural simulation state.
 *
 * A v2 stream carries the checkpoint envelope (core/session.hh) —
 *
 *    [8B magic "PRNDCKPT"] [u32 version = 2] [u64 netlist hash]
 *
 * — followed by one or more snapshot *records*. Each record is a
 * fixed header (type, sequence number, cycle count, shape, FNV-1a
 * integrity checksums, payload length) plus a bitstream payload:
 *
 *  - The architectural state (registers, memories, inputs, all lanes)
 *    is bit-packed into one flat image holding only architectural
 *    width bits — a 33-bit register costs 33 bits per lane, not the
 *    64-bit slot word (and none of the lane-major SoA padding or
 *    combinational slots of the raw SimEngine::saveState blob).
 *  - Record 0 is a keyframe: the packed image itself, word-coded.
 *    Every later record is an XOR delta against the previous record's
 *    image, which is near-all-zero between nearby snapshots and
 *    collapses under the zero-run/Exp-Golomb word coder
 *    (ckpt/bitstream.hh).
 *  - Every record carries the FNV of the image it decodes to and of
 *    the image it deltas against, so corrupted, truncated, or
 *    out-of-order chains are rejected with a clear error instead of
 *    restoring garbage.
 *
 * Restoring replays the delta chain from the keyframe to the chosen
 * record (default: the last) and imports the resulting ArchState into
 * the target engine (SimEngine::importArch). Any engine of the same
 * design and lane count can import any record — snapshots written by
 * par@8 restore into interp, cgen, or a gang, bit-identically.
 */

#ifndef PARENDI_CKPT_SNAPSHOT_HH
#define PARENDI_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/engine.hh"
#include "rtl/netlist.hh"

namespace parendi::ckpt {

/** The envelope version this module reads and writes. */
inline constexpr uint32_t kSnapshotVersion = 2;

/** A bit-packed architectural image: only width bits per value, in
 *  netlist order (regs, then mems, then inputs; lane-minor). */
struct PackedImage
{
    std::vector<uint64_t> words;
    uint64_t bits = 0;

    /** FNV-1a over the packed words (the record integrity digest). */
    uint64_t fnv() const;
};

/** Size @p st for @p nl (lanes replicas), zero-valued. */
void shapeArchState(const rtl::Netlist &nl, uint32_t lanes,
                    core::ArchState &st);

/** Bit-pack @p st (shape must be consistent; widths from the values). */
PackedImage packArchState(const core::ArchState &st);

/** Unpack @p img into a pre-shaped @p st (see shapeArchState);
 *  fatal() if the bit counts disagree. */
void unpackArchState(const PackedImage &img, core::ArchState &st);

/** The golden digest of an engine's architectural state: FNV-1a of
 *  the packed image plus the cycle count. fatal() when the engine
 *  has no architectural export. */
uint64_t archStateFnv(const core::SimEngine &engine);

/**
 * Append snapshot records of one session to a stream. Writes the v2
 * envelope at construction; each write() emits the next record of the
 * delta chain (the first is the keyframe).
 */
class SnapshotWriter
{
  public:
    SnapshotWriter(std::ostream &out, const rtl::Netlist &nl);

    /** Snapshot @p engine (exportArch). */
    void write(const core::SimEngine &engine);

    /** Append one record holding @p st. */
    void write(const core::ArchState &st);

    uint32_t records() const { return seq_; }

  private:
    std::ostream &out_;
    PackedImage base_;      ///< previous record's image (delta base)
    uint32_t seq_ = 0;
};

/**
 * Read a v2 snapshot chain. Verifies the envelope (magic, version,
 * design hash) at construction; next() decodes one record, applies
 * the delta chain, and yields the architectural state. fatal() on any
 * corruption (bad checksum, truncation, out-of-order delta).
 */
class SnapshotReader
{
  public:
    SnapshotReader(std::istream &in, const rtl::Netlist &nl);

    /** Decode the next record into @p st; false at clean end of
     *  stream. */
    bool next(core::ArchState &st);

    uint32_t recordsRead() const { return seq_; }

  private:
    std::istream &in_;
    const rtl::Netlist &nl_;
    PackedImage base_;
    uint32_t seq_ = 0;
};

/**
 * Restore @p engine from a v2 snapshot stream positioned at the
 * envelope: walk the chain up to record @p upTo (0-based; -1 = the
 * last record) and import that state. Returns the number of records
 * applied; fatal() on corruption, design mismatch or an empty chain.
 */
uint64_t restoreSnapshotChain(std::istream &in, core::SimEngine &engine,
                              int64_t upTo = -1);

} // namespace parendi::ckpt

#endif // PARENDI_CKPT_SNAPSHOT_HH
