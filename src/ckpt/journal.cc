#include "ckpt/journal.hh"

#include <istream>
#include <ostream>
#include <vector>

#include "util/logging.hh"

namespace parendi::ckpt {

namespace {

constexpr uint64_t kJournalMagic = 0x4c4e524a444e5250ull; // "PRNDJRNL"

constexpr uint8_t kOpPoke = 1;
constexpr uint8_t kOpStep = 2;
constexpr uint8_t kOpReset = 3;
constexpr uint8_t kOpSnapshot = 4;

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

} // namespace

JournalWriter::JournalWriter(std::ostream &out, const rtl::Netlist &nl)
    : out_(out)
{
    put(out_, kJournalMagic);
    put(out_, kJournalVersion);
    put(out_, rtl::netlistHash(nl));
}

void
JournalWriter::recordPoke(const std::string &input,
                          const rtl::BitVec &value, uint32_t lane)
{
    put(out_, kOpPoke);
    put(out_, lane);
    put(out_, static_cast<uint32_t>(input.size()));
    out_.write(input.data(),
               static_cast<std::streamsize>(input.size()));
    put(out_, value.width());
    for (uint32_t w = 0; w < value.numWords(); ++w)
        put(out_, value.word(w));
    ++records_;
}

void
JournalWriter::recordStep(uint64_t n)
{
    put(out_, kOpStep);
    put(out_, n);
    ++records_;
}

void
JournalWriter::recordReset()
{
    put(out_, kOpReset);
    ++records_;
}

void
JournalWriter::recordSnapshot(uint32_t seq, uint64_t cycle)
{
    put(out_, kOpSnapshot);
    put(out_, seq);
    put(out_, cycle);
    ++records_;
}

uint64_t
replayJournal(std::istream &in, core::SimEngine &engine,
              int64_t fromSnapshot)
{
    uint64_t magic = 0;
    uint32_t version = 0;
    uint64_t hash = 0;
    if (!get(in, magic) || magic != kJournalMagic)
        fatal("journal: not a parendi input journal (bad magic)");
    if (!get(in, version) || version != kJournalVersion)
        fatal("journal: unsupported journal version %u", version);
    if (!get(in, hash))
        fatal("journal: truncated journal envelope");
    if (hash != rtl::netlistHash(engine.netlist()))
        fatal("journal: journal was recorded on a different "
                    "design (netlist hash mismatch)");

    bool skipping = fromSnapshot >= 0;
    uint64_t applied = 0;
    for (;;) {
        uint8_t op = 0;
        in.read(reinterpret_cast<char *>(&op), 1);
        if (in.eof() && in.gcount() == 0)
            break;
        if (!in.good())
            fatal("journal: truncated journal record");
        switch (op) {
        case kOpPoke: {
            uint32_t lane = 0, nameLen = 0, width = 0;
            bool ok = get(in, lane) && get(in, nameLen);
            std::string name(nameLen, '\0');
            if (ok) {
                in.read(name.data(), nameLen);
                ok = in.good();
            }
            ok = ok && get(in, width);
            std::vector<uint64_t> words(rtl::wordsFor(width), 0);
            for (uint64_t &w : words)
                ok = ok && get(in, w);
            if (!ok)
                fatal("journal: truncated poke record");
            if (skipping)
                break;
            engine.pokeLane(name, rtl::BitVec(width, std::move(words)),
                            lane);
            ++applied;
            break;
        }
        case kOpStep: {
            uint64_t n = 0;
            if (!get(in, n))
                fatal("journal: truncated step record");
            if (skipping)
                break;
            engine.step(n);
            ++applied;
            break;
        }
        case kOpReset:
            if (skipping)
                break;
            engine.reset();
            ++applied;
            break;
        case kOpSnapshot: {
            uint32_t seq = 0;
            uint64_t cycle = 0;
            if (!get(in, seq) || !get(in, cycle))
                fatal("journal: truncated snapshot marker");
            if (skipping &&
                seq == static_cast<uint64_t>(fromSnapshot)) {
                if (cycle != engine.cycles())
                    fatal(
                        "journal: snapshot marker %u is at cycle %llu "
                        "but the restored engine is at cycle %llu",
                        seq,
                        static_cast<unsigned long long>(cycle),
                        static_cast<unsigned long long>(
                            engine.cycles()));
                skipping = false;
            }
            break;
        }
        default:
            fatal("journal: unknown journal opcode %u", op);
        }
    }
    if (skipping)
        fatal("journal: snapshot marker %lld not found in journal",
              static_cast<long long>(fromSnapshot));
    return applied;
}

} // namespace parendi::ckpt
