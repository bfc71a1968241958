#include "rtl/shard.hh"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <unordered_map>

#include "util/bsp_pool.hh"
#include "util/logging.hh"

namespace parendi::rtl {

namespace {

/** saturatingWideReadBits over one lane of a lane-major value: word w
 *  of the value lives at p[w * stride]. */
uint64_t
stridedSatReadBits(const uint64_t *p, uint16_t widthBits,
                   uint64_t stride)
{
    const uint32_t numWords = wordsFor(widthBits);
    for (uint32_t w = 1; w < numWords; ++w)
        if (p[w * stride])
            return UINT64_MAX;
    return p[0];
}

} // namespace

ShardSet::ShardSet(const Netlist &nl,
                   const std::vector<std::vector<NodeId>> &nodeSets,
                   const LowerOptions &lower, uint32_t lanes)
    : nl_(&nl), lanes_(lanes ? lanes : 1)
{
    programs_.reserve(nodeSets.size());
    for (const std::vector<NodeId> &nodes : nodeSets) {
        ProgramBuilder builder(nl);
        for (NodeId id : nodes)
            builder.addNode(id);
        programs_.push_back(builder.build());
        lowerProgram(programs_.back(), lower);
    }
    // States are created only after programs_ stops growing: each
    // EvalState references its program at the final heap address.
    states_.reserve(programs_.size());
    for (const EvalProgram &prog : programs_)
        states_.push_back(std::make_unique<EvalState>(prog, lanes_));
    buildExchange();
    // Evaluate combinational logic once so outputs are observable
    // before the first clock edge.
    evalAll();
}

void
ShardSet::buildExchange()
{
    const Netlist &nl = *nl_;
    uint32_t nshards = static_cast<uint32_t>(programs_.size());

    // Register homes: the shard whose program owns each register.
    regHome_.assign(nl.numRegisters(), {UINT32_MAX, 0});
    for (uint32_t si = 0; si < nshards; ++si)
        for (const ProgReg &r : programs_[si].regs)
            if (r.owned)
                regHome_[r.reg] = {si, r.cur};

    // Register messages: owner -> every shard holding a non-owned
    // copy. Iterating shards in ascending order groups the list by
    // reader shard, which is exactly the sharding the parallel
    // exchange phase needs.
    readerRanges_.assign(nshards, {0, 0});
    for (uint32_t si = 0; si < nshards; ++si) {
        readerRanges_[si].first =
            static_cast<uint32_t>(regMessages_.size());
        const std::vector<ProgReg> &regs = programs_[si].regs;
        for (uint32_t ri = 0; ri < regs.size(); ++ri) {
            const ProgReg &r = regs[ri];
            if (r.owned)
                continue;
            auto [owner, owner_slot] = regHome_[r.reg];
            if (owner == UINT32_MAX)
                panic("register %s has readers but no owner shard",
                      nl.reg(r.reg).name.c_str());
            RegMessage m;
            m.ownerShard = owner;
            m.ownerSlot = owner_slot;
            m.readerShard = si;
            m.readerSlot = r.cur;
            m.readerReg = ri;
            m.words = static_cast<uint16_t>(wordsFor(r.width));
            m.bytes = ((r.width + 31) / 32) * 4;
            regMessages_.push_back(m);
        }
        readerRanges_[si].second =
            static_cast<uint32_t>(regMessages_.size());
    }

    // Array write-port broadcasts, in netlist port order per memory.
    // First index the replicas of each memory.
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> replicas(
        nl.numMemories());
    for (uint32_t si = 0; si < nshards; ++si)
        for (uint32_t mi = 0; mi < programs_[si].mems.size(); ++mi)
            replicas[programs_[si].mems[mi].mem].emplace_back(si, mi);

    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const Memory &mem = nl.mem(m);
        for (NodeId port : mem.writePorts) {
            // The shard owning this MemWrite sink: the one whose
            // program contains the sink node.
            uint32_t owner = UINT32_MAX;
            for (uint32_t si = 0; si < nshards; ++si) {
                if (programs_[si].slotOf.count(port)) {
                    owner = si;
                    break;
                }
            }
            if (owner == UINT32_MAX)
                panic("write port of %s not placed", mem.name.c_str());
            const Node &n = nl.node(port);
            PortBroadcast b;
            b.ownerShard = owner;
            b.addrSlot = programs_[owner].slotOf.at(n.operands[0]);
            b.addrWidth = nl.widthOf(n.operands[0]);
            b.dataSlot = programs_[owner].slotOf.at(n.operands[1]);
            b.enSlot = programs_[owner].slotOf.at(n.operands[2]);
            b.mem = m;
            b.entryWords = wordsFor(mem.width);
            b.depth = mem.depth;
            b.replicas = replicas[m];
            broadcasts_.push_back(std::move(b));
        }
    }

    // The commit phase's per-shard schedule: every (broadcast,
    // replica-on-this-shard) pair, in ascending broadcast (= global
    // port) order, so colliding ports commit deterministically no
    // matter how shards are distributed over workers.
    replicaPlan_.assign(nshards, {});
    for (uint32_t bi = 0; bi < broadcasts_.size(); ++bi)
        for (auto [shard, mi] : broadcasts_[bi].replicas)
            replicaPlan_[shard].emplace_back(bi, mi);

    // Publish-buffer layout for the fused superstep. Grouped by owner
    // shard (publishing is owner-computes); each shard's region is
    // padded to a cache line so concurrent publishers never share a
    // line. Register values are deduplicated per owner slot — N
    // readers of one register share one published copy.
    std::vector<std::vector<uint32_t>> msgsByOwner(nshards);
    for (uint32_t i = 0; i < regMessages_.size(); ++i)
        msgsByOwner[regMessages_[i].ownerShard].push_back(i);
    std::vector<std::vector<uint32_t>> portsByOwner(nshards);
    for (uint32_t bi = 0; bi < broadcasts_.size(); ++bi)
        portsByOwner[broadcasts_[bi].ownerShard].push_back(bi);

    constexpr uint32_t kLineWords = 8;  // 64B false-sharing pad
    uint32_t off = 0;
    pubRegRanges_.assign(nshards, {0, 0});
    pubPortsByShard_.assign(nshards, {});
    for (uint32_t si = 0; si < nshards; ++si) {
        off = (off + kLineWords - 1) / kLineWords * kLineWords;
        // cur slot -> (next slot, words) of this shard's owned regs.
        std::unordered_map<uint32_t, std::pair<uint32_t, uint16_t>>
            curToNext;
        for (const ProgReg &r : programs_[si].regs)
            if (r.owned)
                curToNext[r.cur] = {
                    r.next,
                    static_cast<uint16_t>(wordsFor(r.width))};
        std::unordered_map<uint32_t, uint32_t> pubOfOwnerSlot;
        pubRegRanges_[si].first =
            static_cast<uint32_t>(pubRegs_.size());
        for (uint32_t i : msgsByOwner[si]) {
            RegMessage &m = regMessages_[i];
            auto it = pubOfOwnerSlot.find(m.ownerSlot);
            if (it == pubOfOwnerSlot.end()) {
                auto [next, words] = curToNext.at(m.ownerSlot);
                if (next == kNoSlot)
                    panic("owned register without a next slot");
                PubReg pr;
                pr.nextSlot = next;
                pr.words = words;
                pr.offset = off;
                off += uint32_t(words) * lanes_;
                it = pubOfOwnerSlot.emplace(m.ownerSlot, pr.offset)
                         .first;
                pubRegs_.push_back(pr);
            }
            m.pubOffset = it->second;
        }
        pubRegRanges_[si].second =
            static_cast<uint32_t>(pubRegs_.size());
        for (uint32_t bi : portsByOwner[si]) {
            broadcasts_[bi].pubOffset = off;
            // Per-port record: lanes_ resolved addresses (one per
            // lane, kPubSkip where disabled/OOR) followed by the data
            // value's lane-major block, copied verbatim.
            off += (1 + broadcasts_[bi].entryWords) * lanes_;
        }
        pubPortsByShard_[si] = std::move(portsByOwner[si]);
    }
    pub_[0].assign(off, 0);
    pub_[1].assign(off, 0);

    // Port bindings.
    inputSlots_.assign(nl.numInputs(), {});
    for (uint32_t si = 0; si < nshards; ++si)
        for (const ProgPort &p : programs_[si].inputs)
            inputSlots_[p.port].emplace_back(si, p.slot);
    outputSlots_.assign(nl.numOutputs(), {UINT32_MAX, 0});
    for (uint32_t si = 0; si < nshards; ++si)
        for (const ProgPort &p : programs_[si].outputs)
            outputSlots_[p.port] = {si, p.slot};
}

// -- Telemetry -----------------------------------------------------------

void
ShardSet::setProfiler(obs::SuperstepProfiler *prof)
{
    prof_ = prof;
    if (!prof) {
        ctrInstrs_ = ctrExchWords_ = ctrNative_ = nullptr;
        ctrGroupsSkipped_ = ctrGroupsTotal_ = nullptr;
        return;
    }
    obs::Counters &c = prof->counters();
    ctrInstrs_ = &c.get(obs::kInstrsRetired);
    ctrExchWords_ = &c.get(obs::kExchangeWordsMoved);
    ctrNative_ = &c.get(obs::kNativeKernelInvocations);
    ctrGroupsSkipped_ = &c.get(obs::kEvalGroupsSkipped);
    ctrGroupsTotal_ = &c.get(obs::kEvalGroupsTotal);
}

bool
ShardSet::setActivity(bool on)
{
    if (on) {
        for (const EvalProgram &p : programs_) {
            if (!p.activity.built)
                return false;
        }
    }
    for (auto &st : states_)
        st->enableActivity(on);
    activity_ = on;
    return true;
}

// -- In-place phase bodies ------------------------------------------------

void
ShardSet::commitRange(size_t begin, size_t end)
{
    const uint64_t L = lanes_;
    uint64_t words = 0;
    for (size_t si = begin; si < end; ++si) {
        EvalState &mine = *states_[si];
        for (auto [bi, mi] : replicaPlan_[si]) {
            const PortBroadcast &b = broadcasts_[bi];
            const EvalState &owner = *states_[b.ownerShard];
            const uint64_t *en = owner.slotPtr(b.enSlot);
            const uint64_t *ap = owner.slotPtr(b.addrSlot);
            const uint64_t *dp = owner.slotPtr(b.dataSlot);
            uint64_t *img = mine.memImage(mi).data();
            bool wrote = false;
            for (uint64_t l = 0; l < L; ++l) {
                if (!(en[l] & 1))
                    continue;
                uint64_t addr =
                    stridedSatReadBits(ap + l, b.addrWidth, L);
                if (addr >= b.depth)
                    continue;
                for (uint32_t w = 0; w < b.entryWords; ++w)
                    img[(addr * b.entryWords + w) * L + l] =
                        dp[w * L + l];
                words += b.entryWords;
                wrote = true;
            }
            if (wrote)
                mine.markMemReadersDirty(mi);
        }
    }
    if (ctrExchWords_ && words)
        ctrExchWords_->add(words);
}

void
ShardSet::latchRange(size_t begin, size_t end)
{
    for (size_t si = begin; si < end; ++si)
        states_[si]->latchRegisters();
}

void
ShardSet::exchangeRange(size_t begin, size_t end)
{
    uint64_t words = 0;
    for (size_t si = begin; si < end; ++si) {
        auto [mb, me] = readerRanges_[si];
        for (uint32_t i = mb; i < me; ++i) {
            const RegMessage &m = regMessages_[i];
            // A value's words are one contiguous lane-major block, so
            // moving all lanes is the scalar memcpy scaled by lanes_.
            EvalState &reader = *states_[m.readerShard];
            uint64_t *dst = reader.slotPtr(m.readerSlot);
            const uint64_t *src =
                states_[m.ownerShard]->slotPtr(m.ownerSlot);
            const uint64_t bytes =
                uint64_t(m.words) * lanes_ * sizeof(uint64_t);
            if (activity_) {
                // Seed the reader's guards only on a real change (any
                // lane), and skip the copy when nothing moved.
                if (std::memcmp(dst, src, bytes) != 0) {
                    std::memcpy(dst, src, bytes);
                    reader.markRegReadersDirty(m.readerReg);
                }
            } else {
                std::memcpy(dst, src, bytes);
            }
            words += uint64_t(m.words) * lanes_;
        }
    }
    if (ctrExchWords_ && words)
        ctrExchWords_->add(words);
}

void
ShardSet::evalRange(size_t begin, size_t end)
{
    evalRangeImpl(begin, end, prof_ && prof_->sampling());
}

void
ShardSet::evalRangeImpl(size_t begin, size_t end, bool sampled)
{
    if (!prof_) {
        for (size_t si = begin; si < end; ++si)
            states_[si]->evalComb();
        return;
    }
    // Profiled: bump the work counters every cycle; on sampled cycles
    // additionally time each shard individually — that per-shard
    // distribution is the measured straggler histogram. Work is what
    // the eval actually executed (lastEvalInstrs), so activity-skipped
    // groups never inflate t_comp or leave a phantom residual.
    uint64_t instrs = 0;
    uint64_t native = 0;
    uint64_t groupsRun = 0;
    uint64_t groupsTotal = 0;
    for (size_t si = begin; si < end; ++si) {
        EvalState &st = *states_[si];
        if (sampled) {
            uint64_t t0 = obs::tick();
            st.evalComb();
            prof_->recordShardEval(si, obs::tick() - t0);
        } else {
            st.evalComb();
        }
        instrs += st.lastEvalInstrs();
        groupsRun += st.lastGroupsRun();
        groupsTotal += st.lastGroupsTotal();
        if (st.hasNativeEval())
            ++native;
    }
    if (instrs)
        ctrInstrs_->add(instrs);
    if (native)
        ctrNative_->add(native);
    if (ctrGroupsTotal_ && groupsTotal) {
        ctrGroupsTotal_->add(groupsTotal);
        if (groupsTotal > groupsRun)
            ctrGroupsSkipped_->add(groupsTotal - groupsRun);
    }
}

// -- Fused single-barrier superstep --------------------------------------

void
ShardSet::commitRangeFrom(size_t begin, size_t end, const uint64_t *rd)
{
    const uint64_t L = lanes_;
    uint64_t words = 0;
    for (size_t si = begin; si < end; ++si) {
        EvalState &mine = *states_[si];
        for (auto [bi, mi] : replicaPlan_[si]) {
            const PortBroadcast &b = broadcasts_[bi];
            const uint64_t *rec = rd + b.pubOffset;
            const uint64_t *data = rec + L;
            uint64_t *img = mine.memImage(mi).data();
            bool wrote = false;
            for (uint64_t l = 0; l < L; ++l) {
                uint64_t addr = rec[l];
                if (addr == kPubSkip)
                    continue;
                // The data block keeps the state's lane-major layout,
                // so the per-lane copy has the same stride both sides.
                for (uint32_t w = 0; w < b.entryWords; ++w)
                    img[(addr * b.entryWords + w) * L + l] =
                        data[w * L + l];
                words += b.entryWords;
                wrote = true;
            }
            if (wrote)
                mine.markMemReadersDirty(mi);
        }
    }
    if (ctrExchWords_ && words)
        ctrExchWords_->add(words);
}

void
ShardSet::exchangeRangeFrom(size_t begin, size_t end,
                            const uint64_t *rd)
{
    uint64_t words = 0;
    for (size_t si = begin; si < end; ++si) {
        auto [mb, me] = readerRanges_[si];
        for (uint32_t i = mb; i < me; ++i) {
            const RegMessage &m = regMessages_[i];
            EvalState &reader = *states_[m.readerShard];
            uint64_t *dst = reader.slotPtr(m.readerSlot);
            const uint64_t *src = rd + m.pubOffset;
            const uint64_t bytes =
                uint64_t(m.words) * lanes_ * sizeof(uint64_t);
            if (activity_) {
                if (std::memcmp(dst, src, bytes) != 0) {
                    std::memcpy(dst, src, bytes);
                    reader.markRegReadersDirty(m.readerReg);
                }
            } else {
                std::memcpy(dst, src, bytes);
            }
            words += uint64_t(m.words) * lanes_;
        }
    }
    if (ctrExchWords_ && words)
        ctrExchWords_->add(words);
}

void
ShardSet::publishRange(size_t begin, size_t end, uint64_t *wr)
{
    const uint64_t L = lanes_;
    for (size_t si = begin; si < end; ++si) {
        const EvalState &st = *states_[si];
        auto [rb, re] = pubRegRanges_[si];
        for (uint32_t i = rb; i < re; ++i) {
            const PubReg &pr = pubRegs_[i];
            std::memcpy(wr + pr.offset, st.slotPtr(pr.nextSlot),
                        uint64_t(pr.words) * L * sizeof(uint64_t));
        }
        for (uint32_t bi : pubPortsByShard_[si]) {
            const PortBroadcast &b = broadcasts_[bi];
            uint64_t *rec = wr + b.pubOffset;
            const uint64_t *en = st.slotPtr(b.enSlot);
            const uint64_t *ap = st.slotPtr(b.addrSlot);
            bool any = false;
            for (uint64_t l = 0; l < L; ++l) {
                if (!(en[l] & 1)) {
                    rec[l] = kPubSkip;
                    continue;
                }
                uint64_t addr =
                    stridedSatReadBits(ap + l, b.addrWidth, L);
                if (addr >= b.depth) {
                    rec[l] = kPubSkip;
                    continue;
                }
                rec[l] = addr;
                any = true;
            }
            if (any)
                std::memcpy(rec + L, st.slotPtr(b.dataSlot),
                            b.entryWords * L * sizeof(uint64_t));
        }
    }
}

void
ShardSet::publishAll()
{
    publishRange(0, size(), pub_[pubRead_].data());
}

void
ShardSet::fusedCycleRange(size_t begin, size_t end, uint32_t worker,
                          bool sampled, uint64_t cycle,
                          uint32_t parity)
{
    const uint64_t *rd = pub_[parity].data();
    uint64_t *wr = pub_[parity ^ 1].data();
    if (!sampled) {
        commitRangeFrom(begin, end, rd);
        latchRange(begin, end);
        exchangeRangeFrom(begin, end, rd);
        evalRangeImpl(begin, end, false);
        publishRange(begin, end, wr);
        return;
    }
    // Sampled cycle: timestamp each sub-phase so the fused path still
    // yields the full t_comp/t_comm/t_sync decomposition. The cycle
    // number is passed explicitly — inside a batch, workers other
    // than 0 must not read the profiler's cycle state.
    uint64_t t0 = obs::tick(), t1;
    commitRangeFrom(begin, end, rd);
    t1 = obs::tick();
    prof_->record(worker, obs::Phase::Commit, t0, t1, cycle);
    t0 = t1;
    latchRange(begin, end);
    t1 = obs::tick();
    prof_->record(worker, obs::Phase::Latch, t0, t1, cycle);
    t0 = t1;
    exchangeRangeFrom(begin, end, rd);
    t1 = obs::tick();
    prof_->record(worker, obs::Phase::Exchange, t0, t1, cycle);
    t0 = t1;
    evalRangeImpl(begin, end, true);
    t1 = obs::tick();
    prof_->record(worker, obs::Phase::Eval, t0, t1, cycle);
    t0 = t1;
    publishRange(begin, end, wr);
    t1 = obs::tick();
    prof_->record(worker, obs::Phase::Publish, t0, t1, cycle);
}

void
ShardSet::stepCycles(util::BspPool *pool, uint64_t n)
{
    if (n == 0)
        return;
    const uint32_t nw =
        pool && size() > 1 ? pool->threads() : 1;
    if (nw <= 1) {
        // Single worker: fusion only removes barriers, and there are
        // none — the in-place cycle (direct owner-slot exchange, no
        // publish copy-out) is strictly cheaper than the fused bodies.
        for (uint64_t i = 0; i < n; ++i)
            stepCycle();
        // In-place stepping advances state without publishing; a
        // later fused batch must republish from live slots.
        pubValid_ = false;
        return;
    }
    if (!pubValid_) {
        publishAll();
        pubValid_ = true;
    }
    if (!inner_ || inner_->parties() != nw)
        inner_ = std::make_unique<util::SpinBarrier>(nw);

    // One pool dispatch for the whole batch: each worker runs its
    // statically assigned shard range through all n cycles, with the
    // in-dispatch SpinBarrier as the single synchronization point per
    // cycle. The barrier both orders the publish-buffer flip (cycle
    // c+1 writes the buffer cycle c read) and separates cycles, so
    // no other fence is needed.
    const uint64_t baseCycle = prof_ ? prof_->cyclesSeen() : 0;
    const uint64_t every = prof_ ? prof_->options().sampleEvery : 0;
    const size_t nshards = size();
    const size_t chunk = (nshards + nw - 1) / nw;
    const uint32_t basePar = pubRead_;
    obs::SuperstepProfiler *prof = prof_;
    util::SpinBarrier *bar = inner_.get();
    pool->run([=, this](uint32_t w) {
        const size_t b = std::min(nshards, w * chunk);
        const size_t e = std::min(nshards, b + chunk);
        for (uint64_t c = 0; c < n; ++c) {
            // Workers decide "is this cycle sampled" locally from the
            // batch base — the profiler's own cycle counter is worker
            // 0's to mutate.
            const uint64_t cyc = baseCycle + c;
            const bool sampled =
                prof && (every <= 1 || cyc % every == 0);
            if (w == 0 && prof)
                prof->beginCycle();
            if (b < e)
                fusedCycleRange(b, e, w, sampled, cyc,
                                (basePar + static_cast<uint32_t>(c)) &
                                    1u);
            const uint64_t t0 = sampled ? obs::tick() : 0;
            bar->arriveAndWait();
            if (sampled) {
                const uint64_t t1 = obs::tick();
                prof->recordBarrierWait(w, t0, t1, cyc);
                // Close the adaptive loop: measured inter-arrival
                // times retune the barrier's spin budget.
                bar->observeWaitNs(static_cast<uint64_t>(
                    obs::ticksToSeconds(t1 - t0) * 1e9));
            }
            if (w == 0 && prof)
                prof->endCycle();
        }
    });
    pubRead_ = (pubRead_ + static_cast<uint32_t>(n & 1)) & 1u;
}

void
ShardSet::runPhase(obs::Phase phase,
                   void (ShardSet::*body)(size_t, size_t))
{
    if (prof_ && prof_->sampling()) {
        uint64_t t0 = obs::tick();
        (this->*body)(0, size());
        prof_->record(0, phase, t0, obs::tick());
    } else {
        (this->*body)(0, size());
    }
}

void
ShardSet::evalAll()
{
    runPhase(obs::Phase::Eval, &ShardSet::evalRange);
}

void
ShardSet::stepCycle()
{
    // Commit must finish before the latch may overwrite cur slots a
    // write port reads from (a port's data operand can be a RegRead),
    // the exchange reads owner cur slots the latch writes, and
    // evaluation reads exchanged values.
    if (prof_)
        prof_->beginCycle();
    runPhase(obs::Phase::Commit, &ShardSet::commitRange);
    runPhase(obs::Phase::Latch, &ShardSet::latchRange);
    runPhase(obs::Phase::Exchange, &ShardSet::exchangeRange);
    evalAll();
    if (prof_)
        prof_->endCycle();
}

void
ShardSet::reset()
{
    for (auto &st : states_)
        st->reset();
    evalAll();
    pubValid_ = false;
}

// -- Host access ---------------------------------------------------------

void
ShardSet::pokeInput(PortId port, const BitVec &value, uint32_t lane)
{
    for (auto [shard, slot] : inputSlots_[port]) {
        if (lane == core::kAllLanes)
            states_[shard]->writeSlot(slot, value);
        else
            states_[shard]->writeSlotLane(slot, value, lane);
        states_[shard]->evalComb();
    }
    pubValid_ = false;
}

void
ShardSet::readOutput(PortId port, uint32_t lane, BitVec &out) const
{
    auto [shard, slot] = outputSlots_[port];
    if (shard == UINT32_MAX)
        panic("output %s not placed", nl_->output(port).name.c_str());
    states_[shard]->readSlotInto(slot, nl_->output(port).width, out,
                                 lane);
}

void
ShardSet::readRegister(RegId reg, uint32_t lane, BitVec &out) const
{
    auto [shard, slot] = regHome_[reg];
    if (shard == UINT32_MAX)
        panic("register %s not placed", nl_->reg(reg).name.c_str());
    states_[shard]->readSlotInto(slot, nl_->reg(reg).width, out, lane);
}

void
ShardSet::readMemory(MemId mem, uint64_t index, uint32_t lane,
                     BitVec &out) const
{
    for (size_t si = 0; si < programs_.size(); ++si) {
        const EvalProgram &prog = programs_[si];
        for (uint32_t mi = 0; mi < prog.mems.size(); ++mi) {
            if (prog.mems[mi].mem == mem) {
                out = states_[si]->readMemEntry(mi, index,
                                                nl_->mem(mem).width,
                                                lane);
                return;
            }
        }
    }
    // Placed on no shard: still the initial image.
    const Memory &m = nl_->mem(mem);
    out = index < m.init.size() ? m.init[index] : BitVec(m.width);
}

void
ShardSet::save(std::ostream &out) const
{
    uint64_t nshards = states_.size();
    out.write(reinterpret_cast<const char *>(&nshards),
              sizeof(nshards));
    for (const auto &st : states_)
        st->save(out);
}

void
ShardSet::exportArch(core::ArchState &st) const
{
    st.lanes = lanes_;
    st.regs.assign(nl_->numRegisters(), {});
    for (RegId r = 0; r < nl_->numRegisters(); ++r) {
        auto [shard, slot] = regHome_[r];
        auto &perLane = st.regs[r];
        perLane.resize(lanes_);
        for (uint32_t l = 0; l < lanes_; ++l)
            perLane[l] = shard == UINT32_MAX
                ? nl_->reg(r).init
                : states_[shard]->readSlot(slot, nl_->reg(r).width, l);
    }
    st.mems.assign(nl_->numMemories(), {});
    for (MemId m = 0; m < nl_->numMemories(); ++m) {
        const Memory &mem = nl_->mem(m);
        auto &entries = st.mems[m];
        entries.assign(uint64_t(mem.depth) * lanes_, BitVec(mem.width));
        // A placed memory: read any replica (the exchange keeps them
        // identical). Unplaced: the initial image is the live value.
        bool placed = false;
        for (size_t si = 0; si < programs_.size() && !placed; ++si) {
            for (uint32_t mi = 0; mi < programs_[si].mems.size(); ++mi) {
                if (programs_[si].mems[mi].mem != m)
                    continue;
                for (uint64_t e = 0; e < mem.depth; ++e)
                    for (uint32_t l = 0; l < lanes_; ++l)
                        entries[e * lanes_ + l] =
                            states_[si]->readMemEntry(
                                static_cast<uint32_t>(mi), e,
                                mem.width, l);
                placed = true;
                break;
            }
        }
        if (!placed)
            for (uint64_t e = 0;
                 e < mem.init.size() && e < mem.depth; ++e)
                for (uint32_t l = 0; l < lanes_; ++l)
                    entries[e * lanes_ + l] = mem.init[e];
    }
    st.inputs.assign(nl_->numInputs(), {});
    for (PortId p = 0; p < nl_->numInputs(); ++p) {
        auto &perLane = st.inputs[p];
        perLane.resize(lanes_);
        for (uint32_t l = 0; l < lanes_; ++l)
            perLane[l] = inputSlots_[p].empty()
                ? BitVec(nl_->input(p).width)
                : states_[inputSlots_[p][0].first]->readSlot(
                      inputSlots_[p][0].second, nl_->input(p).width,
                      l);
    }
}

void
ShardSet::importArch(const core::ArchState &st)
{
    if (st.lanes != lanes_)
        fatal("importArch: state holds %u lanes, this engine runs %u",
              st.lanes, lanes_);
    if (st.regs.size() != nl_->numRegisters() ||
        st.mems.size() != nl_->numMemories() ||
        st.inputs.size() != nl_->numInputs())
        fatal("importArch: state shape does not match the design");

    for (RegId r = 0; r < nl_->numRegisters(); ++r) {
        auto [shard, slot] = regHome_[r];
        const auto &perLane = st.regs[r];
        if (perLane.size() != lanes_)
            fatal("importArch: register %s lane count mismatch",
                  nl_->reg(r).name.c_str());
        if (shard == UINT32_MAX)
            continue;
        for (uint32_t l = 0; l < lanes_; ++l) {
            if (perLane[l].width() != nl_->reg(r).width)
                fatal("importArch: register %s width mismatch",
                      nl_->reg(r).name.c_str());
            states_[shard]->writeSlotLane(slot, perLane[l], l);
        }
    }

    for (size_t si = 0; si < programs_.size(); ++si) {
        for (uint32_t mi = 0; mi < programs_[si].mems.size(); ++mi) {
            const ProgMem &pm = programs_[si].mems[mi];
            const Memory &mem = nl_->mem(pm.mem);
            const auto &entries = st.mems[pm.mem];
            if (entries.size() != uint64_t(mem.depth) * lanes_)
                fatal("importArch: memory %s entry count mismatch",
                      mem.name.c_str());
            for (uint64_t e = 0; e < pm.depth; ++e) {
                for (uint32_t l = 0; l < lanes_; ++l) {
                    const BitVec &v = entries[e * lanes_ + l];
                    if (v.width() != mem.width)
                        fatal("importArch: memory %s width mismatch",
                              mem.name.c_str());
                    states_[si]->writeMemEntry(mi, e, v, l);
                }
            }
        }
    }

    for (PortId p = 0; p < nl_->numInputs(); ++p) {
        const auto &perLane = st.inputs[p];
        if (perLane.size() != lanes_)
            fatal("importArch: input %s lane count mismatch",
                  nl_->input(p).name.c_str());
        for (auto [shard, slot] : inputSlots_[p]) {
            for (uint32_t l = 0; l < lanes_; ++l) {
                if (perLane[l].width() != nl_->input(p).width)
                    fatal("importArch: input %s width mismatch",
                          nl_->input(p).name.c_str());
                states_[shard]->writeSlotLane(slot, perLane[l], l);
            }
        }
    }

    // Propagate owner register values into reader copies and rebuild
    // every combinational slot from the imported architectural state;
    // the next cycle's commit/latch then recompute deferred writes and
    // next values exactly as the exporting engine would have.
    runPhase(obs::Phase::Exchange, &ShardSet::exchangeRange);
    evalAll();
    pubValid_ = false;
}

} // namespace parendi::rtl
