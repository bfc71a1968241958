#include "rtl/interp.hh"

#include <ostream>

#include "util/logging.hh"

namespace parendi::rtl {

ProgramEngine::ProgramEngine(Netlist netlist, const LowerOptions &lower,
                             uint32_t lanes)
    : nl(std::move(netlist))
{
    ProgramBuilder builder(nl);
    builder.addAll();
    prog = builder.build();
    lowerProgram(prog, lower);
    state = std::make_unique<EvalState>(prog, lanes);
    state->evalComb();
}

void
ProgramEngine::pokeInput(PortId port, const BitVec &value, uint32_t lane)
{
    for (uint32_t i = 0; i < prog.inputs.size(); ++i) {
        if (prog.inputs[i].port != port)
            continue;
        state->pokeInput(i, value, lane);
        break;
    }
    // Re-evaluate so pokes are visible combinationally.
    state->evalComb();
}

void
ProgramEngine::readOutput(PortId port, uint32_t lane, BitVec &out) const
{
    for (const ProgPort &p : prog.outputs)
        if (p.port == port)
            return state->readSlotInto(p.slot, p.width, out, lane);
    panic("output %u not in program", port);
}

void
ProgramEngine::readRegister(RegId reg, uint32_t lane, BitVec &out) const
{
    for (const ProgReg &r : prog.regs)
        if (r.reg == reg)
            return state->readSlotInto(r.cur, r.width, out, lane);
    panic("register %u not in program", reg);
}

void
ProgramEngine::readMemory(MemId mem, uint64_t index, uint32_t lane,
                          BitVec &out) const
{
    for (size_t i = 0; i < prog.mems.size(); ++i)
        if (prog.mems[i].mem == mem) {
            out = state->readMemEntry(static_cast<uint32_t>(i), index,
                                      nl.mem(mem).width, lane);
            return;
        }
    // Neither read nor written by the design: still the initial image.
    const Memory &m = nl.mem(mem);
    out = index < m.init.size() ? m.init[index] : BitVec(m.width);
}

bool
ProgramEngine::exportArch(core::ArchState &out) const
{
    uint32_t lanes = state->lanes();
    out.cycles = cycleCount;
    out.lanes = lanes;
    out.regs.assign(nl.numRegisters(), {});
    for (RegId r = 0; r < nl.numRegisters(); ++r)
        out.regs[r].assign(lanes, nl.reg(r).init);
    for (const ProgReg &pr : prog.regs)
        for (uint32_t l = 0; l < lanes; ++l)
            out.regs[pr.reg][l] = state->readSlot(pr.cur, pr.width, l);
    out.mems.assign(nl.numMemories(), {});
    for (MemId m = 0; m < nl.numMemories(); ++m)
        out.mems[m].assign(uint64_t(nl.mem(m).depth) * lanes,
                           BitVec(nl.mem(m).width));
    for (size_t i = 0; i < prog.mems.size(); ++i) {
        const ProgMem &pm = prog.mems[i];
        for (uint64_t e = 0; e < pm.depth; ++e)
            for (uint32_t l = 0; l < lanes; ++l)
                out.mems[pm.mem][e * lanes + l] = state->readMemEntry(
                    static_cast<uint32_t>(i), e, nl.mem(pm.mem).width,
                    l);
    }
    out.inputs.assign(nl.numInputs(), {});
    for (PortId p = 0; p < nl.numInputs(); ++p)
        out.inputs[p].assign(lanes, BitVec(nl.input(p).width));
    for (const ProgPort &pp : prog.inputs)
        for (uint32_t l = 0; l < lanes; ++l)
            out.inputs[pp.port][l] =
                state->readSlot(pp.slot, pp.width, l);
    return true;
}

bool
ProgramEngine::importArch(const core::ArchState &st)
{
    uint32_t lanes = state->lanes();
    if (st.lanes != lanes)
        fatal("importArch: state holds %u lanes, this engine runs %u",
              st.lanes, lanes);
    if (st.regs.size() != nl.numRegisters() ||
        st.mems.size() != nl.numMemories() ||
        st.inputs.size() != nl.numInputs())
        fatal("importArch: state shape does not match the design");
    for (const ProgReg &pr : prog.regs) {
        const auto &perLane = st.regs[pr.reg];
        if (perLane.size() != lanes)
            fatal("importArch: register %s lane count mismatch",
                  nl.reg(pr.reg).name.c_str());
        for (uint32_t l = 0; l < lanes; ++l) {
            if (perLane[l].width() != pr.width)
                fatal("importArch: register %s width mismatch",
                      nl.reg(pr.reg).name.c_str());
            state->writeSlotLane(pr.cur, perLane[l], l);
        }
    }
    for (size_t i = 0; i < prog.mems.size(); ++i) {
        const ProgMem &pm = prog.mems[i];
        const Memory &mem = nl.mem(pm.mem);
        const auto &entries = st.mems[pm.mem];
        if (entries.size() != uint64_t(mem.depth) * lanes)
            fatal("importArch: memory %s entry count mismatch",
                  mem.name.c_str());
        for (uint64_t e = 0; e < pm.depth; ++e) {
            for (uint32_t l = 0; l < lanes; ++l) {
                const BitVec &v = entries[e * lanes + l];
                if (v.width() != mem.width)
                    fatal("importArch: memory %s width mismatch",
                          mem.name.c_str());
                state->writeMemEntry(static_cast<uint32_t>(i), e, v, l);
            }
        }
    }
    for (const ProgPort &pp : prog.inputs) {
        const auto &perLane = st.inputs[pp.port];
        if (perLane.size() != lanes)
            fatal("importArch: input %s lane count mismatch",
                  nl.input(pp.port).name.c_str());
        for (uint32_t l = 0; l < lanes; ++l) {
            if (perLane[l].width() != pp.width)
                fatal("importArch: input %s width mismatch",
                      nl.input(pp.port).name.c_str());
            state->writeSlotLane(pp.slot, perLane[l], l);
        }
    }
    cycleCount = st.cycles;
    // Rebuild every combinational slot from the imported architectural
    // values; pending deferred writes and next-values are recomputed
    // exactly as in the exporting engine (the cycle order is
    // commit -> latch -> eval, so at-rest comb state is a pure function
    // of regs + mems + inputs).
    state->evalComb();
    return true;
}

Interpreter::Interpreter(Netlist netlist, const LowerOptions &lower,
                         uint32_t replicas)
    : ProgramEngine(std::move(netlist), lower, replicas)
{
}

void
Interpreter::step(size_t n)
{
    if (profiler_) {
        stepProfiled(n);
        return;
    }
    for (size_t i = 0; i < n; ++i) {
        state->commitWrites();
        state->latchRegisters();
        state->evalComb();
        ++cycleCount;
    }
}

void
Interpreter::stepProfiled(size_t n)
{
    obs::SuperstepProfiler &prof = *profiler_;
    bool native = state->hasNativeEval();
    for (size_t i = 0; i < n; ++i) {
        prof.beginCycle();
        if (prof.sampling()) {
            uint64_t t0 = obs::tick();
            state->commitWrites();
            uint64_t t1 = obs::tick();
            prof.record(0, obs::Phase::Commit, t0, t1);
            state->latchRegisters();
            uint64_t t2 = obs::tick();
            prof.record(0, obs::Phase::Latch, t1, t2);
            state->evalComb();
            uint64_t t3 = obs::tick();
            prof.record(0, obs::Phase::Eval, t2, t3);
            // There is no exchange in a single-program engine; record
            // a zero-width interval so aggregation sees all four
            // superstep phases for this cycle.
            prof.record(0, obs::Phase::Exchange, t2, t2);
            prof.recordShardEval(0, t3 - t2);
        } else {
            state->commitWrites();
            state->latchRegisters();
            state->evalComb();
        }
        // Attribute only the work the eval actually did: with activity
        // guards on, skipped groups' instructions don't count.
        ctrInstrs_->add(state->lastEvalInstrs());
        if (uint32_t total = state->lastGroupsTotal()) {
            ctrGroupsTotal_->add(total);
            uint32_t run = state->lastGroupsRun();
            if (total > run)
                ctrGroupsSkipped_->add(total - run);
        }
        if (native)
            ctrNative_->add(1);
        prof.endCycle();
        ++cycleCount;
    }
}

bool
Interpreter::enableProfiling(const obs::ProfileOptions &opt)
{
    if (profiler_)
        return true;
    profiler_ = std::make_unique<obs::SuperstepProfiler>(1, 1, opt);
    obs::Counters &c = profiler_->counters();
    ctrInstrs_ = &c.get(obs::kInstrsRetired);
    ctrNative_ = &c.get(obs::kNativeKernelInvocations);
    ctrGroupsSkipped_ = &c.get(obs::kEvalGroupsSkipped);
    ctrGroupsTotal_ = &c.get(obs::kEvalGroupsTotal);
    return true;
}

void
Interpreter::reset()
{
    state->reset();
    state->evalComb();
    cycleCount = 0;
}

void
Interpreter::save(std::ostream &out) const
{
    out.write(reinterpret_cast<const char *>(&cycleCount),
              sizeof(cycleCount));
    state->save(out);
}

} // namespace parendi::rtl
