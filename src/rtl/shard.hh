/**
 * @file
 * ShardSet: the functional core of every partitioned BSP host
 * execution. A netlist is split into shards (per-IPU-tile processes in
 * IpuMachine, per-host-thread partitions in ParallelInterpreter); each
 * shard's node set is lowered to a private EvalProgram + EvalState, and
 * the ShardSet derives the exchange schedule that keeps replicated
 * state coherent across shards:
 *
 *  - register messages: the owner shard (the one computing RegNext)
 *    sends the latched value to every shard holding a read-only copy;
 *  - write-port broadcasts: each array write port, in global netlist
 *    port order, is re-applied to every replica of the array
 *    (differential exchange — address + data, not the whole array).
 *
 * One simulated cycle is the BSP sequence
 *
 *    commit broadcasts -> latch registers -> exchange registers ->
 *    evaluate combinational programs
 *
 * and every phase only writes state private to one shard:
 *
 *  - commit: each shard applies, in ascending global port order, the
 *    broadcasts that have a replica on it. A memory image is owned by
 *    exactly one shard, so colliding ports hit each image in port
 *    order.
 *  - latch: copies next -> cur of locally owned registers only.
 *  - exchange: sharded by *reader*: each shard copies in every foreign
 *    register it reads. Destination slots are unique per message.
 *  - evaluate: purely shard-private.
 *
 * stepCycles() picks one of two schedules from a single observable
 * value, the effective worker count (the pool's width when there are
 * at least two shards, else 1):
 *
 *  - 1 worker: the in-place sequential cycle — the four phases run
 *    back-to-back over all shards, the exchange copying straight out
 *    of owner cur slots. No barriers exist to remove, so this is the
 *    cheapest form.
 *  - >= 2 workers: the fused owner-computes superstep, one barrier per
 *    cycle and one pool dispatch per batch. The trick is a
 *    double-buffered publish area: at the end of cycle c every shard
 *    copies out, for each owned register with foreign readers, the
 *    post-eval NEXT value (exactly the post-latch value the exchange
 *    of cycle c+1 delivers) and, for each owned write port, a
 *    pre-resolved broadcast record [addr-or-skip, data words] (exactly
 *    the values the commit of cycle c+1 reads, since nothing runs
 *    between eval(c) and commit(c+1)). Cycle c+1 then serves commit
 *    and exchange entirely from the stable cycle-c buffer while
 *    publishing into the other one, so commit/latch/exchange/eval/
 *    publish run back-to-back per shard; a single end-of-cycle barrier
 *    flips the buffers. Collision order is preserved because replica
 *    application still walks ascending global port order against
 *    identical records.
 *
 * Both schedules are bit-identical at any worker count and batch size.
 * Every other entry point — construction, reset, poke, importArch —
 * runs sequentially on the calling thread and invalidates
 * the publish buffers; the next fused batch republishes from live
 * state. That also keeps a pool shared across ShardSets free for
 * whichever set is stepping.
 */

#ifndef PARENDI_RTL_SHARD_HH
#define PARENDI_RTL_SHARD_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "obs/profiler.hh"
#include "rtl/eval.hh"
#include "rtl/netlist.hh"

namespace parendi::util {
class BspPool;
}

namespace parendi::rtl {

class ShardSet
{
  public:
    /** One register value flowing owner -> reader each cycle. */
    struct RegMessage
    {
        uint32_t ownerShard;
        uint32_t ownerSlot;     ///< cur slot in owner (post-latch value)
        uint32_t readerShard;
        uint32_t readerSlot;
        uint32_t readerReg;     ///< reader program's ProgReg index
        uint16_t words;
        uint32_t bytes;         ///< exchange payload (4B granules)
        uint32_t pubOffset;     ///< value's offset in the publish buffer
    };

    /** One array write port fanned out to every replica. */
    struct PortBroadcast
    {
        uint32_t ownerShard;
        uint32_t addrSlot;
        uint16_t addrWidth;
        uint32_t dataSlot;
        uint32_t enSlot;
        MemId mem;
        uint32_t entryWords;
        uint32_t depth;
        /// Publish-buffer offset of this port's resolved record:
        /// [lanes addrs (each addr or kPubSkip), entryWords * lanes
        /// data words in the state's lane-major order].
        uint32_t pubOffset = 0;
        /// (shard, program-local memory index) of every replica.
        std::vector<std::pair<uint32_t, uint32_t>> replicas;
    };

    /** Publish-record address marker: port disabled or out of range
     *  this cycle — replicas skip the record. */
    static constexpr uint64_t kPubSkip = UINT64_MAX;

    ShardSet() = default;

    /**
     * Build one shard per entry of @p nodeSets (each a topologically
     * ascending node-id list, e.g. a sorted union of fiber cones) and
     * derive the exchange schedule. Every register/memory-write/output
     * sink of @p nl must be covered by some shard. @p lanes > 1 builds
     * a gang: every shard state holds that many replica lanes
     * (lane-major SoA, see EvalState), and the exchange schedule moves
     * all lanes of every message — publish offsets, broadcast records
     * and memcpy extents scale by the lane count while the schedule
     * itself (who talks to whom) is lane-invariant.
     */
    ShardSet(const Netlist &nl,
             const std::vector<std::vector<NodeId>> &nodeSets,
             const LowerOptions &lower, uint32_t lanes = 1);

    // EvalStates hold references into programs_; both live in vectors
    // whose heap buffers are stable, so the set is movable but not
    // copyable.
    ShardSet(ShardSet &&) = default;
    ShardSet &operator=(ShardSet &&) = default;

    size_t size() const { return programs_.size(); }
    const EvalProgram &program(size_t i) const { return programs_[i]; }
    EvalState &state(size_t i) { return *states_[i]; }
    const EvalState &state(size_t i) const { return *states_[i]; }
    /** Replica lanes every shard state steps per cycle (1 = scalar). */
    uint32_t lanes() const { return lanes_; }

    // -- BSP execution ---------------------------------------------------

    /**
     * Run @p n cycles. With one effective worker (@p pool null or one
     * thread wide, or a single shard) this is the in-place sequential
     * cycle n times. Otherwise the whole batch is one pool dispatch:
     * every worker executes its shards' commit/latch/exchange/eval/
     * publish back-to-back each cycle and cycles are separated by a
     * single in-dispatch SpinBarrier.
     */
    void stepCycles(util::BspPool *pool, uint64_t n);

    /**
     * Enable activity-guarded evaluation on every shard state: eval
     * skips groups whose input cone is unchanged, seeded locally by
     * each shard's latch/commit and across shards by the exchange
     * (received register values are compared before being copied) and
     * commit broadcasts. Returns false — and leaves the always-eval
     * path in place — if any shard program lacks an activity plan.
     * Bit-identical to always-eval on both schedules.
     */
    bool setActivity(bool on);
    bool activityEnabled() const { return activity_; }

    /** Restore initial images and re-evaluate all shards. */
    void reset();

    // -- Telemetry (obs) -------------------------------------------------

    /**
     * Attach (or detach, with nullptr) a superstep profiler. Every
     * stepped cycle then counts into it and, on sampled cycles,
     * timestamps the phases per worker and the eval duration per
     * shard. The profiler must be sized for at least as many workers
     * as the pool passed to stepCycles and for size() shards, and must
     * outlive this attachment.
     */
    void setProfiler(obs::SuperstepProfiler *prof);
    obs::SuperstepProfiler *profiler() const { return prof_; }

    // -- Host access (core::SimEngine's id-indexed primitives; the
    //    engines forward to these) -----------------------------------

    /** Drive an input of one lane (every lane with core::kAllLanes) on
     *  every shard holding it, and re-evaluate those shards once so
     *  the poke is combinationally visible. */
    void pokeInput(PortId port, const BitVec &value, uint32_t lane);
    void readOutput(PortId port, uint32_t lane, BitVec &out) const;
    void readRegister(RegId reg, uint32_t lane, BitVec &out) const;
    /** Read one entry of a memory (from any replica; the exchange
     *  keeps them identical). */
    void readMemory(MemId mem, uint64_t index, uint32_t lane,
                    BitVec &out) const;

    /** Serialize every shard's mutable state (count-prefixed). */
    void save(std::ostream &out) const;

    /**
     * Read the canonical architectural state (netlist-id order, all
     * lanes) out of the shards: owner cur slots for registers, any
     * replica for memories (the exchange keeps them identical), the
     * first replica slot for inputs. Values the partition never placed
     * fall back to their netlist initial value.
     */
    void exportArch(core::ArchState &st) const;

    /**
     * Write an architectural state into the shards: owner register
     * slots, every memory replica and every input replica slot, then
     * one exchange + combinational re-evaluation so reader copies and
     * comb slots match the exporter's at-rest state exactly. fatal()
     * on a shape or width mismatch.
     */
    void importArch(const core::ArchState &st);

    // -- Exchange schedule, for cost accounting --------------------------

    const std::vector<RegMessage> &regMessages() const
    {
        return regMessages_;
    }
    const std::vector<PortBroadcast> &broadcasts() const
    {
        return broadcasts_;
    }
    /** (shard, cur slot) of a register's owner. */
    std::pair<uint32_t, uint32_t> regHome(RegId r) const
    {
        return regHome_[r];
    }

    const Netlist &netlist() const { return *nl_; }

  private:
    /** One owner-side publish entry: a register with foreign readers. */
    struct PubReg
    {
        uint32_t nextSlot;  ///< owner's NEXT slot (post-eval value)
        uint16_t words;
        uint32_t offset;    ///< into the publish buffer
    };

    void buildExchange();

    // In-place sequential cycle: the four phases over all shards, each
    // timestamped as worker 0 when the profiler samples the cycle.
    void stepCycle();
    void runPhase(obs::Phase phase,
                  void (ShardSet::*body)(size_t, size_t));
    void commitRange(size_t begin, size_t end);
    void latchRange(size_t begin, size_t end);
    void exchangeRange(size_t begin, size_t end);
    void evalRange(size_t begin, size_t end);
    void evalRangeImpl(size_t begin, size_t end, bool sampled);
    /** Sequential combinational re-evaluation of every shard. */
    void evalAll();

    // Fused-path bodies. @p parity selects the read buffer; the
    // complementary buffer is written.
    void commitRangeFrom(size_t begin, size_t end,
                         const uint64_t *rd);
    void exchangeRangeFrom(size_t begin, size_t end,
                           const uint64_t *rd);
    void publishRange(size_t begin, size_t end, uint64_t *wr);
    void fusedCycleRange(size_t begin, size_t end, uint32_t worker,
                         bool sampled, uint64_t cycle,
                         uint32_t parity);
    /** (Re)publish every shard's state into the buffer the next fused
     *  cycle reads — the out-of-band path after construction, poke,
     *  reset, importArch, or in-place stepping. */
    void publishAll();

    obs::SuperstepProfiler *prof_ = nullptr;
    obs::Counter *ctrInstrs_ = nullptr;
    obs::Counter *ctrExchWords_ = nullptr;
    obs::Counter *ctrNative_ = nullptr;
    obs::Counter *ctrGroupsSkipped_ = nullptr;
    obs::Counter *ctrGroupsTotal_ = nullptr;

    const Netlist *nl_ = nullptr;
    uint32_t lanes_ = 1;
    bool activity_ = false;     ///< activity-guarded eval on all shards
    std::vector<EvalProgram> programs_;
    std::vector<std::unique_ptr<EvalState>> states_;

    /// grouped by reader shard; readerRanges_[s] = [begin, end)
    std::vector<RegMessage> regMessages_;
    std::vector<std::pair<uint32_t, uint32_t>> readerRanges_;
    std::vector<PortBroadcast> broadcasts_;
    /// per shard: (broadcast index ascending, program-local mem index)
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> replicaPlan_;

    // -- Fused-superstep publish schedule --------------------------------
    /// grouped by owner shard; pubRegRanges_[s] = [begin, end)
    std::vector<PubReg> pubRegs_;
    std::vector<std::pair<uint32_t, uint32_t>> pubRegRanges_;
    /// per shard: indices of broadcasts_ it owns (publish order)
    std::vector<std::vector<uint32_t>> pubPortsByShard_;
    /// double-buffered publish area; cycle c reads parity (pubRead_+c)&1
    std::vector<uint64_t> pub_[2];
    uint32_t pubRead_ = 0;
    bool pubValid_ = false;
    /// in-dispatch barrier for batched fused cycles (sized lazily to
    /// the pool's worker count)
    std::unique_ptr<util::SpinBarrier> inner_;

    /// input port -> [(shard, index into its EvalProgram::inputs)]
    /// replicas
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> inputPorts_;
    /// slot of one inputPorts_ replica in its shard's program
    uint32_t
    inputSlot(const std::pair<uint32_t, uint32_t> &home) const
    {
        return programs_[home.first].inputs[home.second].slot;
    }
    /// output port -> (shard, slot)
    std::vector<std::pair<uint32_t, uint32_t>> outputSlots_;
    /// register -> (shard, cur slot) of its owner
    std::vector<std::pair<uint32_t, uint32_t>> regHome_;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_SHARD_HH
