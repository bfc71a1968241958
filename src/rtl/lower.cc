/**
 * @file
 * The EvalProgram lowering stage: width-class specialization (generic
 * multi-word instructions whose result fits one 64-bit word are
 * rewritten into the W tier) and a peephole pass that fuses common
 * producer/consumer pairs into superinstructions:
 *
 *  - compare -> mux select        => CmpMuxW (4-operand select)
 *  - 1-bit not -> mux select      => mux with swapped arms
 *  - not -> and/or/xor operand    => AndNotW / OrNotW / XorNotW
 *  - op -> slice(lsb=0)           => the op recomputed at the slice
 *    width (legal for truncation-stable ops: add, sub, mul, bitwise,
 *    not, neg — the low bits never depend on the discarded high bits)
 *
 * Fusion only fires when the producer's destination slot has exactly
 * one consumer and is not externally observable (register slots,
 * memory write-port operands, port bindings). The slot layout is left
 * untouched, so a lowered program remains interchangeable with the
 * generic one for checkpointing and host cross-referencing.
 */

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "rtl/eval.hh"
#include "util/logging.hh"

namespace parendi::rtl {

namespace {

/** CmpMuxW opcode for a generic comparison feeding a mux select. */
EvalOp
cmpMuxFor(EvalOp cmp)
{
    switch (cmp) {
      case EvalOp::Eq: return EvalOp::EqMuxW;
      case EvalOp::Ne: return EvalOp::NeMuxW;
      case EvalOp::Ult: return EvalOp::UltMuxW;
      case EvalOp::Ule: return EvalOp::UleMuxW;
      case EvalOp::Slt: return EvalOp::SltMuxW;
      case EvalOp::Sle: return EvalOp::SleMuxW;
      default: return EvalOp::NumEvalOps;
    }
}

/** OpNotW opcode for a generic bitwise op with an inverted operand. */
EvalOp
opNotFor(EvalOp op)
{
    switch (op) {
      case EvalOp::And: return EvalOp::AndNotW;
      case EvalOp::Or: return EvalOp::OrNotW;
      case EvalOp::Xor: return EvalOp::XorNotW;
      default: return EvalOp::NumEvalOps;
    }
}

/** W-tier opcode for a truncation-stable op feeding a slice(lsb=0). */
EvalOp
truncWFor(EvalOp op)
{
    switch (op) {
      case EvalOp::Add: return EvalOp::AddW;
      case EvalOp::Sub: return EvalOp::SubW;
      case EvalOp::Mul: return EvalOp::MulW;
      case EvalOp::And: return EvalOp::AndW;
      case EvalOp::Or: return EvalOp::OrW;
      case EvalOp::Xor: return EvalOp::XorW;
      case EvalOp::Not: return EvalOp::NotW;
      case EvalOp::Neg: return EvalOp::NegW;
      default: return EvalOp::NumEvalOps;
    }
}

/** Specialized opcode for a generic instruction, or NumEvalOps if the
 *  instruction must stay on the multi-word path. */
EvalOp
specializedFor(const EvalProgram &prog, const EvalInstr &in)
{
    bool w64 = in.width <= 64;
    bool a64 = in.wa <= 64;
    bool b64 = in.wb <= 64;
    switch (in.op) {
      case EvalOp::Not: return w64 ? EvalOp::NotW : EvalOp::NumEvalOps;
      case EvalOp::Neg: return w64 ? EvalOp::NegW : EvalOp::NumEvalOps;
      case EvalOp::RedAnd:
        return a64 ? EvalOp::RedAndW : EvalOp::NumEvalOps;
      case EvalOp::RedOr:
        return a64 ? EvalOp::RedOrW : EvalOp::NumEvalOps;
      case EvalOp::RedXor:
        return a64 ? EvalOp::RedXorW : EvalOp::NumEvalOps;
      case EvalOp::And: return w64 ? EvalOp::AndW : EvalOp::NumEvalOps;
      case EvalOp::Or: return w64 ? EvalOp::OrW : EvalOp::NumEvalOps;
      case EvalOp::Xor: return w64 ? EvalOp::XorW : EvalOp::NumEvalOps;
      case EvalOp::Add: return w64 ? EvalOp::AddW : EvalOp::NumEvalOps;
      case EvalOp::Sub: return w64 ? EvalOp::SubW : EvalOp::NumEvalOps;
      case EvalOp::Mul: return w64 ? EvalOp::MulW : EvalOp::NumEvalOps;
      case EvalOp::Shl:
        return w64 && b64 ? EvalOp::ShlW : EvalOp::NumEvalOps;
      case EvalOp::Shr:
        return w64 && b64 ? EvalOp::ShrW : EvalOp::NumEvalOps;
      case EvalOp::Sra:
        return w64 && b64 ? EvalOp::SraW : EvalOp::NumEvalOps;
      case EvalOp::Eq:
        return a64 ? EvalOp::EqW : EvalOp::NumEvalOps;
      case EvalOp::Ne:
        return a64 ? EvalOp::NeW : EvalOp::NumEvalOps;
      case EvalOp::Ult:
        return a64 ? EvalOp::UltW : EvalOp::NumEvalOps;
      case EvalOp::Ule:
        return a64 ? EvalOp::UleW : EvalOp::NumEvalOps;
      case EvalOp::Slt:
        return a64 ? EvalOp::SltW : EvalOp::NumEvalOps;
      case EvalOp::Sle:
        return a64 ? EvalOp::SleW : EvalOp::NumEvalOps;
      case EvalOp::Mux: return w64 ? EvalOp::MuxW : EvalOp::NumEvalOps;
      case EvalOp::Concat:
        return w64 ? EvalOp::ConcatW : EvalOp::NumEvalOps;
      case EvalOp::Slice:
        return w64 ? EvalOp::SliceW : EvalOp::NumEvalOps;
      case EvalOp::ZExt: return w64 ? EvalOp::ZExtW : EvalOp::NumEvalOps;
      case EvalOp::SExt: return w64 ? EvalOp::SExtW : EvalOp::NumEvalOps;
      case EvalOp::MemRead:
        return a64 && prog.mems[in.aux].entryWords == 1
            ? EvalOp::MemReadW : EvalOp::NumEvalOps;
      default:
        return EvalOp::NumEvalOps;
    }
}

} // namespace

void
lowerProgram(EvalProgram &prog, const LowerOptions &opt,
             LowerStats *stats_out)
{
    LowerStats stats;
    uint32_t num_slots = prog.numSlots();

    // Per-slot consumer counts and the externally observable slots
    // that fusion must never eliminate the producer of.
    std::vector<uint32_t> uses(num_slots, 0);
    std::vector<bool> pinned(num_slots, false);
    for (const EvalInstr &in : prog.instrs) {
        uint32_t ops[4];
        int n = evalInstrOperands(in, ops);
        for (int i = 0; i < n; ++i)
            ++uses[ops[i]];
    }
    for (const ProgReg &r : prog.regs) {
        pinned[r.cur] = true;
        if (r.next != kNoSlot)
            pinned[r.next] = true;
    }
    for (const ProgWrite &w : prog.writes) {
        pinned[w.addr] = true;
        pinned[w.data] = true;
        pinned[w.en] = true;
    }
    for (const ProgPort &p : prog.inputs)
        pinned[p.slot] = true;
    for (const ProgPort &p : prog.outputs)
        pinned[p.slot] = true;

    std::vector<EvalInstr> &instrs = prog.instrs;
    std::vector<bool> dead(instrs.size(), false);

    if (opt.fuse) {
        // dst slot -> producing instruction index.
        std::unordered_map<uint32_t, uint32_t> producer;
        producer.reserve(instrs.size());
        for (uint32_t i = 0; i < instrs.size(); ++i)
            producer[instrs[i].dst] = i;

        // A producer is fusable into its (sole) consumer if its result
        // is consumed exactly once and observable nowhere else.
        auto fusable = [&](uint32_t slot, uint32_t *idx) {
            auto it = producer.find(slot);
            if (it == producer.end() || dead[it->second])
                return false;
            if (uses[slot] != 1 || pinned[slot])
                return false;
            *idx = it->second;
            return true;
        };
        auto kill = [&](uint32_t idx) {
            dead[idx] = true;
            ++stats.fusedPairs;
            ++stats.removedInstrs;
        };

        for (uint32_t j = 0; j < instrs.size(); ++j) {
            if (dead[j])
                continue;
            EvalInstr &mj = instrs[j];
            if (!isGenericEvalOp(mj.op))
                continue;
            uint32_t pi;
            switch (mj.op) {
              case EvalOp::Mux: {
                // 1-bit inversion of the select: swap the arms.
                if (fusable(mj.a, &pi) &&
                    instrs[pi].op == EvalOp::Not &&
                    instrs[pi].width == 1) {
                    mj.a = instrs[pi].a;
                    std::swap(mj.b, mj.c);
                    kill(pi);
                }
                // Comparison feeding the select: 4-operand select.
                if (mj.width <= 64 && fusable(mj.a, &pi)) {
                    const EvalInstr &p = instrs[pi];
                    EvalOp fop = cmpMuxFor(p.op);
                    if (fop != EvalOp::NumEvalOps && p.wa <= 64) {
                        mj.aux = mj.c;
                        mj.c = mj.b;
                        mj.a = p.a;
                        mj.b = p.b;
                        mj.wa = p.wa;
                        mj.wb = p.wb;
                        mj.op = fop;
                        kill(pi);
                    }
                }
                break;
              }
              case EvalOp::And:
              case EvalOp::Or:
              case EvalOp::Xor: {
                if (mj.width > 64)
                    break;
                auto inverted = [&](uint32_t slot, uint32_t *idx) {
                    return fusable(slot, idx) &&
                        instrs[*idx].op == EvalOp::Not &&
                        instrs[*idx].width == mj.width;
                };
                if (inverted(mj.b, &pi)) {
                    mj.b = instrs[pi].a;
                    mj.op = opNotFor(mj.op);
                    kill(pi);
                } else if (inverted(mj.a, &pi)) {
                    // Commutative: move the inverted operand to b.
                    mj.a = mj.b;
                    mj.b = instrs[pi].a;
                    mj.op = opNotFor(mj.op);
                    kill(pi);
                }
                break;
              }
              case EvalOp::Slice: {
                // Truncation of a truncation-stable op: recompute the
                // op directly at the slice width (word 0 of the inputs
                // fully determines word 0 of the result).
                if (mj.aux != 0 || mj.width > 64)
                    break;
                if (!fusable(mj.a, &pi))
                    break;
                const EvalInstr &p = instrs[pi];
                EvalOp fop = truncWFor(p.op);
                if (fop == EvalOp::NumEvalOps)
                    break;
                mj.a = p.a;
                mj.wa = p.wa;
                if (fop != EvalOp::NotW && fop != EvalOp::NegW) {
                    mj.b = p.b;
                    mj.wb = p.wb;
                }
                mj.op = fop;
                mj.aux = 0;
                kill(pi);
                break;
              }
              default:
                break;
            }
        }
    }

    if (opt.specialize) {
        for (uint32_t i = 0; i < instrs.size(); ++i) {
            if (dead[i] || !isGenericEvalOp(instrs[i].op))
                continue;
            EvalOp sop = specializedFor(prog, instrs[i]);
            if (sop != EvalOp::NumEvalOps) {
                instrs[i].op = sop;
                ++stats.specialized;
            }
        }
    }

    if (stats.removedInstrs) {
        std::vector<EvalInstr> live;
        live.reserve(instrs.size() - stats.removedInstrs);
        for (uint32_t i = 0; i < instrs.size(); ++i)
            if (!dead[i])
                live.push_back(instrs[i]);
        instrs = std::move(live);
    }

    // A no-op invocation (both passes disabled) leaves the program
    // marked generic so A/B baselines are distinguishable.
    prog.lowered = prog.lowered || opt.specialize || opt.fuse;
    prog.lowerStats.specialized += stats.specialized;
    prog.lowerStats.fusedPairs += stats.fusedPairs;
    prog.lowerStats.removedInstrs += stats.removedInstrs;
    if (stats_out)
        *stats_out = stats;

    // The activity plan must see the final instruction stream, so it
    // is (re)built after compaction.
    if (opt.activityPlan)
        buildActivityPlan(prog);
}

void
buildActivityPlan(EvalProgram &prog)
{
    prog.activity = ActivityPlan{};
    ActivityPlan ap;
    std::vector<EvalInstr> &instrs = prog.instrs;
    const uint32_t n = static_cast<uint32_t>(instrs.size());

    // Sources: register r is id r, input port j is R + j, memory k is
    // R + I + k.
    const uint32_t R = static_cast<uint32_t>(prog.regs.size());
    const uint32_t I = static_cast<uint32_t>(prog.inputs.size());
    std::unordered_map<uint32_t, uint32_t> sourceOfSlot;
    sourceOfSlot.reserve(R + I);
    for (uint32_t r = 0; r < R; ++r)
        sourceOfSlot.emplace(prog.regs[r].cur, r);
    for (uint32_t j = 0; j < I; ++j)
        sourceOfSlot.emplace(prog.inputs[j].slot, R + j);
    // Instruction producing each slot. Each slot is written by at most
    // one instruction, so a plain map suffices.
    std::unordered_map<uint32_t, uint32_t> producer;
    producer.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        producer[instrs[i].dst] = i;

    // Source class of each instruction: the interned set of sources it
    // reads directly or through the instructions before it (its
    // operands' sets merged with its own reads). Class ids follow
    // first use, so id order is first-instruction order; the empty set
    // is class 0. An operand produced at or after its reader means the
    // stream is not topologically ordered and cannot drive a
    // single-sweep guard, so leave the plan unbuilt.
    constexpr uint32_t kBroad = UINT32_MAX;
    std::vector<std::vector<uint32_t>> sets{{}};
    std::map<std::vector<uint32_t>, uint32_t> classOf{{{}, 0}};
    std::vector<uint32_t> cls(n);
    std::vector<uint32_t> merged;
    for (uint32_t i = 0; i < n; ++i) {
        const EvalInstr &in = instrs[i];
        uint32_t ops[4];
        int arity = evalInstrOperands(in, ops);
        bool broad = false;
        merged.clear();
        for (int k = 0; k < arity; ++k) {
            auto p = producer.find(ops[k]);
            if (p != producer.end()) {
                if (p->second >= i)
                    return;
                uint32_t c = cls[p->second];
                if (c == kBroad)
                    broad = true;
                else
                    merged.insert(merged.end(), sets[c].begin(),
                                  sets[c].end());
            } else if (auto s = sourceOfSlot.find(ops[k]);
                       s != sourceOfSlot.end()) {
                merged.push_back(s->second);
            }
        }
        if (evalReadsMemory(in.op))
            merged.push_back(R + I + in.aux);
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()),
                     merged.end());
        if (broad || merged.size() > kActivitySourceCap) {
            cls[i] = kBroad;
            continue;
        }
        auto [it, fresh] = classOf.try_emplace(
            merged, static_cast<uint32_t>(sets.size()));
        if (fresh)
            sets.push_back(merged);
        cls[i] = it->second;
    }

    // Class rank: set size, then first use, broad last. A producer's
    // set is a subset of its reader's, so an edge between two classes
    // runs from a strictly smaller set (or into broad) to a larger
    // one, and a stable sort of the stream by rank stays topological.
    const uint32_t C = static_cast<uint32_t>(sets.size());
    std::vector<uint32_t> byRank(C);
    std::iota(byRank.begin(), byRank.end(), 0u);
    std::stable_sort(byRank.begin(), byRank.end(),
                     [&](uint32_t a, uint32_t b) {
                         return sets[a].size() < sets[b].size();
                     });
    std::vector<uint32_t> rank(C);
    for (uint32_t k = 0; k < C; ++k)
        rank[byRank[k]] = k;
    auto rankOf = [&](uint32_t c) { return c == kBroad ? C : rank[c]; };

    // Counting sort by rank (stable in the original index); each
    // non-empty bucket, one class, becomes one group.
    std::vector<uint32_t> start(C + 2, 0);
    for (uint32_t i = 0; i < n; ++i)
        ++start[rankOf(cls[i]) + 1];
    for (uint32_t k = 0; k <= C; ++k) {
        if (start[k + 1])
            ap.groups.push_back({start[k], start[k] + start[k + 1], 0, 0});
        start[k + 1] += start[k];
    }
    std::vector<EvalInstr> sorted(n);
    for (uint32_t i = 0; i < n; ++i)
        sorted[start[rankOf(cls[i])]++] = instrs[i];
    instrs = std::move(sorted);
    const uint32_t ngroups = ap.numGroups();

    std::unordered_map<uint32_t, uint32_t> groupOfSlot;
    groupOfSlot.reserve(n);
    for (uint32_t g = 0; g < ngroups; ++g)
        for (uint32_t i = ap.groups[g].beginInstr;
             i < ap.groups[g].endInstr; ++i)
            groupOfSlot[instrs[i].dst] = g;

    // Reader groups per slot, successor edges between groups (always
    // forward, by the rank order), and memory readers.
    std::unordered_map<uint32_t, std::vector<uint32_t>> readersOfSlot;
    std::vector<std::vector<uint32_t>> succsOf(ngroups);
    ap.memReaders.assign(prog.mems.size(), {});
    for (uint32_t g = 0; g < ngroups; ++g) {
        for (uint32_t i = ap.groups[g].beginInstr;
             i < ap.groups[g].endInstr; ++i) {
            const EvalInstr &in = instrs[i];
            uint32_t ops[4];
            int arity = evalInstrOperands(in, ops);
            for (int k = 0; k < arity; ++k) {
                std::vector<uint32_t> &rd = readersOfSlot[ops[k]];
                if (rd.empty() || rd.back() != g)
                    rd.push_back(g);
                auto it = groupOfSlot.find(ops[k]);
                if (it == groupOfSlot.end() || it->second == g)
                    continue;
                std::vector<uint32_t> &sc = succsOf[it->second];
                if (sc.empty() || sc.back() != g)
                    sc.push_back(g);
            }
            if (evalReadsMemory(in.op)) {
                std::vector<uint32_t> &mr = ap.memReaders[in.aux];
                if (mr.empty() || mr.back() != g)
                    mr.push_back(g);
            }
        }
    }
    for (uint32_t g = 0; g < ngroups; ++g) {
        ap.groups[g].succBegin = static_cast<uint32_t>(ap.succs.size());
        ap.succs.insert(ap.succs.end(), succsOf[g].begin(),
                        succsOf[g].end());
        ap.groups[g].succEnd = static_cast<uint32_t>(ap.succs.size());
    }

    // Seed maps: which groups consume each register's cur slot and
    // each input port slot. A slot read by instructions in several
    // groups appears once per group (readersOfSlot is deduplicated by
    // construction: reads are visited in group order).
    ap.regReaders.assign(prog.regs.size(), {});
    for (size_t ri = 0; ri < prog.regs.size(); ++ri) {
        auto it = readersOfSlot.find(prog.regs[ri].cur);
        if (it != readersOfSlot.end())
            ap.regReaders[ri] = it->second;
    }
    ap.inputReaders.assign(prog.inputs.size(), {});
    for (size_t pi = 0; pi < prog.inputs.size(); ++pi) {
        auto it = readersOfSlot.find(prog.inputs[pi].slot);
        if (it != readersOfSlot.end())
            ap.inputReaders[pi] = it->second;
    }

    ap.built = true;
    prog.activity = std::move(ap);
}

} // namespace parendi::rtl
