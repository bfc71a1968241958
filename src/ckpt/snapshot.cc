#include "ckpt/snapshot.hh"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "ckpt/bitstream.hh"
#include "core/session.hh"
#include "util/logging.hh"

namespace parendi::ckpt {

namespace {

// Snapshot record types.
constexpr uint8_t kRecKeyframe = 1;
constexpr uint8_t kRecDelta = 2;

// The fixed per-record header, serialized field by field (no struct
// padding on the wire).
struct RecordHeader
{
    uint8_t type = 0;
    uint32_t seq = 0;
    uint64_t cycles = 0;
    uint32_t lanes = 0;
    uint32_t numRegs = 0;
    uint32_t numMems = 0;
    uint32_t numInputs = 0;
    uint64_t imageBits = 0;
    uint64_t baseFnv = 0;  ///< FNV of the delta base (0 for keyframes)
    uint64_t imageFnv = 0; ///< FNV of the decoded image
    uint32_t payloadBytes = 0;
};

template <typename T>
void
put(std::ostream &out, T v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof v);
}

template <typename T>
bool
get(std::istream &in, T &v)
{
    in.read(reinterpret_cast<char *>(&v), sizeof v);
    return in.good();
}

void
putHeader(std::ostream &out, const RecordHeader &h)
{
    put(out, h.type);
    put(out, h.seq);
    put(out, h.cycles);
    put(out, h.lanes);
    put(out, h.numRegs);
    put(out, h.numMems);
    put(out, h.numInputs);
    put(out, h.imageBits);
    put(out, h.baseFnv);
    put(out, h.imageFnv);
    put(out, h.payloadBytes);
}

/** Read one record header. Returns false on clean EOF (no bytes of a
 *  new record present); fatal() on a torn header. */
bool
getHeader(std::istream &in, RecordHeader &h)
{
    in.read(reinterpret_cast<char *>(&h.type), sizeof h.type);
    if (in.eof() && in.gcount() == 0)
        return false;
    bool ok = in.good();
    ok = ok && get(in, h.seq);
    ok = ok && get(in, h.cycles);
    ok = ok && get(in, h.lanes);
    ok = ok && get(in, h.numRegs);
    ok = ok && get(in, h.numMems);
    ok = ok && get(in, h.numInputs);
    ok = ok && get(in, h.imageBits);
    ok = ok && get(in, h.baseFnv);
    ok = ok && get(in, h.imageFnv);
    ok = ok && get(in, h.payloadBytes);
    if (!ok)
        fatal("checkpoint: truncated snapshot record header");
    return true;
}

/** Append the low @p width bits of @p v to the packed image. */
void
packValue(BitWriter &w, const rtl::BitVec &v, uint32_t width)
{
    for (uint32_t b = 0; b < width; b += 64) {
        unsigned n = std::min<uint32_t>(64, width - b);
        w.writeBits(v.word(b / 64), n);
    }
}

void
unpackValue(BitReader &r, rtl::BitVec &v, uint32_t width)
{
    uint64_t words[rtl::wordsFor(rtl::kMaxWidth)];
    size_t n = rtl::wordsFor(width);
    for (uint32_t b = 0; b < width; b += 64)
        words[b / 64] = r.readBits(std::min<uint32_t>(64, width - b));
    v.assign(width, words, n);
}

} // namespace

uint64_t
PackedImage::fnv() const
{
    uint64_t h = fnv1a(words.data(), words.size() * sizeof(uint64_t));
    return fnv1a(&bits, sizeof bits, h);
}

void
shapeArchState(const rtl::Netlist &nl, uint32_t lanes,
               core::ArchState &st)
{
    st.cycles = 0;
    st.lanes = lanes;
    st.regs.assign(nl.numRegisters(), {});
    for (uint32_t r = 0; r < nl.numRegisters(); ++r)
        st.regs[r].assign(lanes, rtl::BitVec(nl.reg(r).width));
    st.mems.assign(nl.numMemories(), {});
    for (uint32_t m = 0; m < nl.numMemories(); ++m)
        st.mems[m].assign(nl.mem(m).depth * lanes,
                          rtl::BitVec(nl.mem(m).width));
    st.inputs.assign(nl.numInputs(), {});
    for (uint32_t p = 0; p < nl.numInputs(); ++p)
        st.inputs[p].assign(lanes, rtl::BitVec(nl.input(p).width));
}

PackedImage
packArchState(const core::ArchState &st)
{
    BitWriter w;
    for (const auto &perLane : st.regs)
        for (const auto &v : perLane)
            packValue(w, v, v.width());
    for (const auto &entries : st.mems)
        for (const auto &v : entries)
            packValue(w, v, v.width());
    for (const auto &perLane : st.inputs)
        for (const auto &v : perLane)
            packValue(w, v, v.width());
    PackedImage img;
    img.bits = w.bitSize();
    w.alignByte();
    img.words.assign((w.bytes().size() + 7) / 8, 0);
    if (!w.bytes().empty())
        std::memcpy(img.words.data(), w.bytes().data(),
                    w.bytes().size());
    return img;
}

void
unpackArchState(const PackedImage &img, core::ArchState &st)
{
    BitReader r(reinterpret_cast<const uint8_t *>(img.words.data()),
                img.words.size() * sizeof(uint64_t));
    for (auto &perLane : st.regs)
        for (auto &v : perLane)
            unpackValue(r, v, v.width());
    for (auto &entries : st.mems)
        for (auto &v : entries)
            unpackValue(r, v, v.width());
    for (auto &perLane : st.inputs)
        for (auto &v : perLane)
            unpackValue(r, v, v.width());
    if (r.overran() || r.bitPos() != img.bits)
        fatal("checkpoint: snapshot image does not match the "
              "design shape (%llu bits decoded, %llu in image)",
              static_cast<unsigned long long>(r.bitPos()),
              static_cast<unsigned long long>(img.bits));
}

uint64_t
archStateFnv(const core::SimEngine &engine)
{
    core::ArchState st;
    engine.exportArch(st);
    PackedImage img = packArchState(st);
    uint64_t h = img.fnv();
    return fnv1a(&st.cycles, sizeof st.cycles, h);
}

SnapshotWriter::SnapshotWriter(std::ostream &out, const rtl::Netlist &nl)
    : out_(out)
{
    put(out_, core::kCheckpointMagic);
    put(out_, kSnapshotVersion);
    put(out_, rtl::netlistHash(nl));
}

void
SnapshotWriter::write(const core::SimEngine &engine)
{
    core::ArchState st;
    engine.exportArch(st);
    write(st);
}

void
SnapshotWriter::write(const core::ArchState &st)
{
    PackedImage img = packArchState(st);

    RecordHeader h;
    h.seq = seq_;
    h.cycles = st.cycles;
    h.lanes = st.lanes;
    h.numRegs = static_cast<uint32_t>(st.regs.size());
    h.numMems = static_cast<uint32_t>(st.mems.size());
    h.numInputs = static_cast<uint32_t>(st.inputs.size());
    h.imageBits = img.bits;
    h.imageFnv = img.fnv();

    BitWriter payload;
    if (seq_ == 0) {
        h.type = kRecKeyframe;
        codeWords(payload, img.words.data(), img.words.size());
    } else {
        if (img.words.size() != base_.words.size() ||
            img.bits != base_.bits)
            fatal("checkpoint: snapshot shape changed mid-chain");
        h.type = kRecDelta;
        h.baseFnv = base_.fnv();
        std::vector<uint64_t> xored(img.words.size());
        for (size_t i = 0; i < img.words.size(); ++i)
            xored[i] = img.words[i] ^ base_.words[i];
        codeWords(payload, xored.data(), xored.size());
    }
    payload.alignByte();
    h.payloadBytes = static_cast<uint32_t>(payload.bytes().size());

    putHeader(out_, h);
    out_.write(reinterpret_cast<const char *>(payload.bytes().data()),
               static_cast<std::streamsize>(payload.bytes().size()));

    base_ = std::move(img);
    ++seq_;
}

SnapshotReader::SnapshotReader(std::istream &in, const rtl::Netlist &nl)
    : in_(in), nl_(nl)
{
    uint64_t magic = 0;
    uint32_t version = 0;
    uint64_t hash = 0;
    if (!get(in_, magic) || magic != core::kCheckpointMagic)
        fatal("checkpoint: not a v2 snapshot stream (bad magic)");
    if (!get(in_, version) || version != kSnapshotVersion)
        fatal("checkpoint: unsupported snapshot version %u", version);
    if (!get(in_, hash))
        fatal("checkpoint: truncated snapshot envelope");
    if (hash != rtl::netlistHash(nl))
        fatal("checkpoint: snapshot was taken of a different "
                    "design (netlist hash mismatch)");
}

bool
SnapshotReader::next(core::ArchState &st)
{
    RecordHeader h;
    if (!getHeader(in_, h))
        return false;

    if (h.seq != seq_)
        fatal("checkpoint: snapshot chain out of order "
              "(record %u where %u expected)", h.seq, seq_);
    if (h.type != (seq_ == 0 ? kRecKeyframe : kRecDelta))
        fatal("checkpoint: unexpected snapshot record type %u",
              h.type);
    if (h.numRegs != nl_.numRegisters() ||
        h.numMems != nl_.numMemories() ||
        h.numInputs != nl_.numInputs())
        fatal("checkpoint: snapshot shape does not match the design");

    std::vector<uint8_t> payload(h.payloadBytes);
    in_.read(reinterpret_cast<char *>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
    if (!in_.good() && h.payloadBytes != 0)
        fatal("checkpoint: truncated snapshot payload (record %u)",
              h.seq);

    size_t numWords = (h.imageBits + 63) / 64;
    std::vector<uint64_t> words(numWords, 0);
    BitReader r(payload.data(), payload.size());
    decodeWords(r, words.data(), numWords);
    if (r.overran())
        fatal("checkpoint: corrupt snapshot payload (record %u)",
              h.seq);

    if (h.type == kRecDelta) {
        if (numWords != base_.words.size() || h.imageBits != base_.bits)
            fatal("checkpoint: snapshot shape changed mid-chain "
                  "(record %u)", h.seq);
        if (base_.fnv() != h.baseFnv)
            fatal("checkpoint: delta base checksum mismatch "
                  "(record %u)", h.seq);
        for (size_t i = 0; i < numWords; ++i)
            words[i] ^= base_.words[i];
    }

    PackedImage img;
    img.words = std::move(words);
    img.bits = h.imageBits;
    if (img.fnv() != h.imageFnv)
        fatal("checkpoint: snapshot image checksum mismatch "
              "(record %u)", h.seq);

    shapeArchState(nl_, h.lanes, st);
    st.cycles = h.cycles;
    unpackArchState(img, st);

    base_ = std::move(img);
    ++seq_;
    return true;
}

uint64_t
restoreSnapshotChain(std::istream &in, core::SimEngine &engine,
                     int64_t upTo)
{
    SnapshotReader reader(in, engine.netlist());
    core::ArchState st;
    uint64_t applied = 0;
    while (reader.next(st)) {
        ++applied;
        if (upTo >= 0 && applied == static_cast<uint64_t>(upTo) + 1)
            break;
    }
    if (applied == 0)
        fatal("checkpoint: snapshot stream holds no records");
    if (upTo >= 0 && applied != static_cast<uint64_t>(upTo) + 1)
        fatal("checkpoint: snapshot %lld requested but the chain "
              "holds only %llu records",
              static_cast<long long>(upTo),
              static_cast<unsigned long long>(applied));
    engine.importArch(st);
    return applied;
}

} // namespace parendi::ckpt
