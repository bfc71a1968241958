#include "rtl/event.hh"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "util/logging.hh"

namespace parendi::rtl {

EventInterpreter::EventInterpreter(Netlist netlist,
                                   const LowerOptions &lower)
    : ProgramEngine(std::move(netlist), lower, 1)
{
    // Producer (dst slot) -> instruction index.
    std::unordered_map<uint32_t, uint32_t> producer;
    for (uint32_t i = 0; i < prog.instrs.size(); ++i)
        producer[prog.instrs[i].dst] = i;
    // Consumers per slot.
    std::unordered_map<uint32_t, std::vector<uint32_t>> consumers;
    users.assign(prog.instrs.size(), {});
    for (uint32_t i = 0; i < prog.instrs.size(); ++i) {
        uint32_t ops[4];
        int arity = evalInstrOperands(prog.instrs[i], ops);
        for (int k = 0; k < arity; ++k) {
            consumers[ops[k]].push_back(i);
            auto it = producer.find(ops[k]);
            if (it != producer.end())
                users[it->second].push_back(i);
        }
    }
    // Register/memory fanout.
    regUsers.assign(prog.regs.size(), {});
    for (size_t r = 0; r < prog.regs.size(); ++r) {
        auto it = consumers.find(prog.regs[r].cur);
        if (it != consumers.end())
            regUsers[r] = it->second;
    }
    memUsers.assign(prog.mems.size(), {});
    for (uint32_t i = 0; i < prog.instrs.size(); ++i)
        if (evalReadsMemory(prog.instrs[i].op))
            memUsers[prog.instrs[i].aux].push_back(i);

    dirty.assign(prog.instrs.size(), 0);
    // The base evaluated everything once (like power-on in a
    // full-cycle sim).
    settle();
}

void
EventInterpreter::settle()
{
    const uint64_t *s = state->slotPtr(0);
    shadow.assign(s, s + prog.numSlots());
    std::fill(dirty.begin(), dirty.end(), 0);
}

void
EventInterpreter::reset()
{
    state->reset();
    state->evalComb();
    settle();
    cycleCount = 0;
    evaluated = 0;
}

void
EventInterpreter::pokeInput(PortId port, const BitVec &value,
                            uint32_t lane)
{
    // The base's full re-evaluation leaves nothing pending, so the
    // next step()'s selective propagation starts from a settled state.
    ProgramEngine::pokeInput(port, value, lane);
    settle();
}

bool
EventInterpreter::importArch(const core::ArchState &st)
{
    ProgramEngine::importArch(st);
    settle();
    return true;
}

void
EventInterpreter::step(size_t n)
{
    for (size_t c = 0; c < n; ++c) {
        uint64_t *s = state->slotPtr(0);

        // 1. Commit memory writes with change detection.
        for (const ProgWrite &w : prog.writes) {
            if (!(s[w.en] & 1))
                continue;
            const ProgMem &pm = prog.mems[w.memIndex];
            uint64_t addr = saturatingWideReadBits(s + w.addr, w.addrWidth);
            if (addr >= pm.depth)
                continue;
            uint64_t *entry = state->memImage(w.memIndex).data() +
                addr * pm.entryWords;
            if (std::memcmp(entry, s + w.data,
                            pm.entryWords * 8) != 0) {
                std::memcpy(entry, s + w.data, pm.entryWords * 8);
                for (uint32_t u : memUsers[w.memIndex])
                    dirty[u] = 1;
            }
        }

        // 2. Latch registers (staged, change-detected).
        std::vector<uint64_t> staged;
        for (const ProgReg &r : prog.regs) {
            if (!r.owned || r.next == kNoSlot)
                continue;
            for (uint32_t i = 0; i < wordsFor(r.width); ++i)
                staged.push_back(s[r.next + i]);
        }
        size_t at = 0;
        for (size_t ri = 0; ri < prog.regs.size(); ++ri) {
            const ProgReg &r = prog.regs[ri];
            if (!r.owned || r.next == kNoSlot)
                continue;
            uint32_t words = wordsFor(r.width);
            bool changed = std::memcmp(s + r.cur, staged.data() + at,
                                       words * 8) != 0;
            if (changed) {
                std::memcpy(s + r.cur, staged.data() + at, words * 8);
                for (uint32_t u : regUsers[ri])
                    dirty[u] = 1;
            }
            at += words;
        }

        // 3. Selective propagation in topological (ascending) order.
        for (uint32_t i = 0; i < prog.instrs.size(); ++i) {
            if (!dirty[i])
                continue;
            dirty[i] = 0;
            const EvalInstr &in = prog.instrs[i];
            state->evalOne(in);
            ++evaluated;
            uint32_t words = wordsFor(in.width);
            if (std::memcmp(s + in.dst, shadow.data() + in.dst,
                            words * 8) != 0) {
                std::memcpy(shadow.data() + in.dst, s + in.dst,
                            words * 8);
                for (uint32_t u : users[i])
                    dirty[u] = 1;
            }
        }
        ++cycleCount;
    }
}

} // namespace parendi::rtl
