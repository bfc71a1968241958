/**
 * @file
 * Compiled evaluation programs: a netlist (or any subset of one, e.g.
 * the fibers merged onto one IPU tile) is lowered to a flat list of
 * word-offset instructions over a dense uint64 slot array. The same
 * kernel executes the reference interpreter and every simulated IPU
 * tile, so functional equivalence between the two is exact by
 * construction of the inputs, not by luck.
 *
 * Lowering rules:
 *  - Const nodes become pre-initialized slots (no instruction).
 *  - Input/RegRead nodes are slots written by the caller (poke /
 *    register latch / exchange).
 *  - RegNext and Output are aliases to their operand's slot.
 *  - MemWrite becomes a deferred write-port record, applied in port
 *    order by EvalState::commitWrites() after combinational
 *    evaluation.
 */

#ifndef PARENDI_RTL_EVAL_HH
#define PARENDI_RTL_EVAL_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "rtl/netlist.hh"

namespace parendi::rtl {

/**
 * 64-byte-aligned allocator for lane storage: gang (SoA) slot and
 * memory arrays start on a cache-line boundary so an R-lane vector of
 * any slot word never straddles lines and auto-vectorized lane loops
 * can use aligned accesses.
 */
template <class T>
struct LaneAlloc
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    LaneAlloc() = default;
    template <class U>
    LaneAlloc(const LaneAlloc<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }
    void
    deallocate(T *p, size_t)
    {
        ::operator delete(p, kAlign);
    }
    template <class U>
    bool
    operator==(const LaneAlloc<U> &) const
    {
        return true;
    }
    template <class U>
    bool
    operator!=(const LaneAlloc<U> &) const
    {
        return false;
    }
};

/** Lane-major storage word array (slots and memory images). */
using LaneWords = std::vector<uint64_t, LaneAlloc<uint64_t>>;

/**
 * Opcodes of the lowered instruction stream. Three tiers:
 *
 *  - Generic: numerically identical to rtl::Op, operates on
 *    arbitrary-width multi-word values. ProgramBuilder emits only this
 *    tier, so an unlowered program is the straightforward translation
 *    of the netlist.
 *  - Specialized (suffix W): produced by lowerProgram() for
 *    instructions whose result fits one 64-bit slot word; the kernels
 *    are branch-light straight-line word operations.
 *  - Fused superinstructions: common adjacent pairs collapsed by the
 *    lowerProgram() peephole (compare feeding a mux select, a bitwise
 *    op with an inverted operand, an op truncated by a zero-LSB
 *    slice). CmpMux forms carry a fourth operand slot in `aux`.
 */
enum class EvalOp : uint8_t {
    // -- Generic tier (must mirror rtl::Op exactly) --
    Const, Input, RegRead, MemRead,
    Not, Neg, RedAnd, RedOr, RedXor,
    And, Or, Xor, Add, Sub, Mul, Shl, Shr, Sra,
    Eq, Ne, Ult, Ule, Slt, Sle,
    Mux, Concat, Slice, ZExt, SExt,
    RegNext, MemWrite, Output,

    // -- Specialized single-word tier --
    NotW, NegW, RedAndW, RedOrW, RedXorW,
    AndW, OrW, XorW, AddW, SubW, MulW, ShlW, ShrW, SraW,
    EqW, NeW, UltW, UleW, SltW, SleW,
    MuxW, ConcatW, SliceW, ZExtW, SExtW, MemReadW,

    // -- Fused superinstructions (single-word results) --
    AndNotW,    ///< d = a & ~b
    OrNotW,     ///< d = (a | ~b) masked to width
    XorNotW,    ///< d = (a ^ ~b) masked to width
    EqMuxW,     ///< d = (a == b) ? s[c] : s[aux]
    NeMuxW, UltMuxW, UleMuxW, SltMuxW, SleMuxW,

    NumEvalOps,
};

/** Lift a netlist op into the generic tier (same encoding). */
constexpr EvalOp
toEvalOp(Op op)
{
    return static_cast<EvalOp>(op);
}

static_assert(static_cast<unsigned>(EvalOp::Output) ==
                  static_cast<unsigned>(Op::Output),
              "generic EvalOp tier must mirror rtl::Op");

/** True for opcodes in the generic (netlist-mirroring) tier. */
constexpr bool
isGenericEvalOp(EvalOp op)
{
    return static_cast<unsigned>(op) < static_cast<unsigned>(Op::NumOps);
}

/** Printable mnemonic for any tier. */
const char *evalOpName(EvalOp op);

/** One lowered combinational operation on slot storage. */
struct EvalInstr
{
    EvalOp op;
    uint16_t width;     ///< result width (bits)
    uint16_t wa;        ///< width of operand a (bits)
    uint16_t wb;        ///< width of operand b (bits)
    uint32_t dst;       ///< destination word offset
    uint32_t a;         ///< operand word offsets
    uint32_t b;
    uint32_t c;
    uint32_t aux;       ///< slice LSB, memory index, or 4th operand
};

/** Source slot offsets read by @p in (fused CmpMux forms read a 4th
 *  operand from aux); returns the operand count (0 to 4). */
int evalInstrOperands(const EvalInstr &in, uint32_t ops[4]);

/** True for instructions reading a memory image (aux = memory index). */
bool evalReadsMemory(EvalOp op);

/**
 * Saturating read of a multi-word value as a uint64: any set bit in the
 * words above the first collapses the result to UINT64_MAX. This is the
 * one semantics every consumer of a wide address or shift amount uses —
 * memory read/write addressing (out-of-range reads return 0, writes are
 * dropped), shift amounts (≥ width shifts out everything), and the
 * exchange-side write-port broadcast — so "too big" only has to be
 * detected, never represented.
 */
inline uint64_t
saturatingWideRead(const uint64_t *words, uint32_t numWords)
{
    for (uint32_t i = 1; i < numWords; ++i)
        if (words[i])
            return UINT64_MAX;
    return words[0];
}

/** saturatingWideRead() of a value @p widthBits wide. */
inline uint64_t
saturatingWideReadBits(const uint64_t *words, uint16_t widthBits)
{
    return saturatingWideRead(words, wordsFor(widthBits));
}

/** A register's slot bindings within one program. */
struct ProgReg
{
    RegId reg;              ///< netlist register id
    uint16_t width;
    uint32_t cur;           ///< slot of the current-cycle value
    uint32_t next;          ///< slot holding the next value (kNoSlot if
                            ///< this program does not compute it)
    bool owned = false;     ///< this program computes the next value
};

/** A memory replica held by one program. */
struct ProgMem
{
    MemId mem;              ///< netlist memory id
    uint32_t entryWords;
    uint32_t depth;
    bool owned = false;     ///< this program applies the write ports
};

/** A deferred memory write port. */
struct ProgWrite
{
    uint32_t memIndex;      ///< index into EvalProgram::mems
    uint32_t addr;          ///< slot of address value
    uint16_t addrWidth;
    uint32_t data;          ///< slot of data value
    uint32_t en;            ///< slot of 1-bit enable
};

/** An input or output port binding. */
struct ProgPort
{
    PortId port;
    uint16_t width;
    uint32_t slot;
};

constexpr uint32_t kNoSlot = UINT32_MAX;

/**
 * One activity group: a contiguous range of lowered instructions that
 * the activity-guarded eval path runs or skips as a unit — one source
 * class (see buildActivityPlan). Groups partition the instruction
 * stream in order, so intra-group data flow needs no edges; inter-group
 * flow is recorded as forward successor edges (producer group ->
 * consumer group, always increasing indices because the instruction
 * stream is topologically ordered).
 */
struct ActivityGroup
{
    uint32_t beginInstr;    ///< first instruction of the group
    uint32_t endInstr;      ///< one past the last instruction
    uint32_t succBegin;     ///< range into ActivityPlan::succs
    uint32_t succEnd;
};

/**
 * The activity plan of a lowered program: the group partition, the
 * forward dataflow edges between groups, and the seed maps that tell
 * the sequential phases (latch / commit / exchange / poke) which
 * groups consume each register, input port, and memory — the
 * comb/seq split. Built by buildActivityPlan() (called from
 * lowerProgram); consumed by EvalState::enableActivity().
 */
struct ActivityPlan
{
    std::vector<ActivityGroup> groups;
    std::vector<uint32_t> succs;    ///< flattened successor group ids

    /** Groups reading each register's cur slot (index: EvalProgram::regs). */
    std::vector<std::vector<uint32_t>> regReaders;
    /** Groups reading each input port slot (index: EvalProgram::inputs). */
    std::vector<std::vector<uint32_t>> inputReaders;
    /** Groups reading each memory image (index: EvalProgram::mems). */
    std::vector<std::vector<uint32_t>> memReaders;

    bool built = false;

    uint32_t
    numGroups() const
    {
        return static_cast<uint32_t>(groups.size());
    }
};

/** Knobs of the post-build lowering stage (lowerProgram). */
struct LowerOptions
{
    /** Rewrite eligible instructions into the single-word W tier. */
    bool specialize = true;
    /** Run the peephole pass that fuses adjacent pairs into
     *  superinstructions (implies rewriting the pair into the W tier). */
    bool fuse = true;

    /** Partition the instruction stream into activity groups and
     *  record the dataflow edges/seed maps (buildActivityPlan). The
     *  plan is passive until EvalState::enableActivity(true). */
    bool activityPlan = true;

    /** Fully generic program (the A side of A/B comparisons). */
    static LowerOptions
    none()
    {
        return {false, false};
    }
};

/** What lowerProgram did, for reporting and modeling. */
struct LowerStats
{
    uint32_t specialized = 0;   ///< instructions moved to the W tier
    uint32_t fusedPairs = 0;    ///< peephole fusions performed
    uint32_t removedInstrs = 0; ///< instructions eliminated by fusion
};

/**
 * An immutable compiled program: instructions, slot layout, and initial
 * images. Instantiate with EvalState to run.
 */
struct EvalProgram
{
    std::vector<EvalInstr> instrs;
    std::vector<uint64_t> initSlots;    ///< initial slot image
    std::vector<ProgReg> regs;
    std::vector<ProgMem> mems;
    std::vector<std::vector<uint64_t>> memInit;
    std::vector<ProgWrite> writes;
    std::vector<ProgPort> inputs;
    std::vector<ProgPort> outputs;

    bool lowered = false;       ///< lowerProgram() has run
    LowerStats lowerStats;

    /** Activity-group partition (see ActivityPlan). */
    ActivityPlan activity;

    /** node id -> slot word offset, for cross-referencing by the host. */
    std::unordered_map<NodeId, uint32_t> slotOf;

    uint32_t numSlots() const { return static_cast<uint32_t>(
        initSlots.size()); }

    /** Approximate data bytes this program needs on a tile. */
    uint64_t dataBytes() const;
};

/**
 * The pinned slot words of @p prog (indexed by slot word): every word
 * of each register's cur and next value, of each memory write port's
 * address, data and enable, and of each input and output port. These
 * are the only slots anything outside the instruction stream reads or
 * writes: the host (poke, peek, state export and import), the commit
 * and latch phases, and the shard exchange. lowerProgram never fuses
 * away their producers, and the cgen kernels keep them in the slot
 * array (see EvalState::setNativeEval for the contract).
 */
std::vector<bool> pinnedSlots(const EvalProgram &prog);

/**
 * Lower @p prog in place: width-class specialization into the W tier
 * and peephole fusion of adjacent pairs into superinstructions.
 *
 * The slot layout is never changed — fused-away intermediate slots
 * simply stop being written — so checkpoints, port/register/memory
 * bindings, and slotOf cross-references remain valid, and a lowered
 * program is bit-for-bit functionally equivalent to the generic one.
 * Pinned slots (pinnedSlots) are never fused away. Idempotent.
 */
void lowerProgram(EvalProgram &prog,
                  const LowerOptions &opt = LowerOptions{},
                  LowerStats *stats = nullptr);

/** Source sets larger than this share one "broad" activity class. */
constexpr uint32_t kActivitySourceCap = 32;

/**
 * (Re)build @p prog's activity plan. Each instruction's source class
 * is the set of registers, input ports and memories it reads, directly
 * or through the instructions before it; sets past kActivitySourceCap
 * fall into one broad class. The stream is reordered stably by (set
 * size with broad last, the class's first instruction, original
 * index), which stays topological because a producer's set is a
 * subset of its reader's, and each class becomes one group. Then it
 * records forward inter-group dataflow edges and indexes which groups
 * consume each register, input, and memory. Must run after any pass
 * that reorders or removes instructions (lowerProgram calls it last).
 * If the instruction stream is not topologically ordered the plan is
 * left unbuilt, the stream untouched, and activity-guarded execution
 * stays disabled.
 */
void buildActivityPlan(EvalProgram &prog);

/**
 * Incrementally lowers a subset of a netlist into an EvalProgram.
 * Nodes must be added in an order where operands precede users
 * (callers pass nodes in topological order).
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(const Netlist &nl);

    /** Add one node. Idempotent: re-adding a node is a no-op. */
    void addNode(NodeId id);

    /** Add every node of the netlist (reference interpreter). */
    void addAll();

    /** Finalize. Ownership flags are set for regs/mems whose sinks
     *  were added. */
    EvalProgram build();

  private:
    uint32_t allocSlots(uint16_t width);
    uint32_t slotFor(NodeId id) const;

    const Netlist &nl_;
    EvalProgram prog_;
    std::unordered_map<MemId, uint32_t> memIndex_;
    std::unordered_map<RegId, uint32_t> regIndex_;
};

/**
 * Signature of a natively compiled combinational kernel (rtl/cgen):
 * evaluates every instruction of one EvalProgram over the slot array.
 * @p mems holds one pointer per program memory image, in program
 * memory-index order.
 */
using NativeEvalFn = void (*)(uint64_t *slots, uint64_t *const *mems);

/**
 * Signature of a natively compiled activity-guarded eval kernel:
 * executes only the groups whose dirty byte is set (clearing it and
 * setting every successor's), in group order. Returns the work done,
 * packed as (groupsRun << 32) | instructionsExecuted, feeding the
 * telemetry counters.
 */
using NativeEvalActFn = uint64_t (*)(uint64_t *slots,
                                     uint64_t *const *mems,
                                     uint8_t *dirty);

/**
 * Signature of a natively compiled activity-aware latch kernel:
 * next -> cur for every owned register, marking the reader groups of
 * each register whose value actually changed (the seeding half of the
 * comb/seq split, at native latch speed).
 */
using NativeLatchActFn = void (*)(uint64_t *slots, uint8_t *dirty);

/**
 * Mutable run state for an EvalProgram: the slot array and memory
 * images. One EvalState per simulated tile (or one for the whole
 * design in the reference interpreter).
 *
 * Gang simulation: constructed with @p lanes = R > 1 the state holds R
 * independent replicas of the design laid out structure-of-arrays,
 * lane-major — word w of slot s for lane l lives at
 * slots_[(s + w) * R + l], and word w of memory entry e at
 * mems_[m][(e * entryWords + w) * R + l]. Consequences the rest of the
 * system builds on:
 *
 *  - at R = 1 the layout is word-for-word identical to the scalar
 *    layout, so every existing consumer is unaffected;
 *  - the R lane words of any slot word are contiguous (and 64-byte
 *    aligned), so per-instruction lane loops auto-vectorize;
 *  - a multi-word value's words are contiguous *as a block across all
 *    lanes*: slotPtr(s) points at words*R consecutive u64s, so
 *    whole-value copies (register latch, shard exchange) are the
 *    scalar memcpys with word counts scaled by R.
 *
 * The interpreter tier executes gangs by per-lane gather/scatter
 * around the scalar kernels (the correctness fallback); the cgen tier
 * emits lane-vectorized kernels over this layout (rtl/cgen).
 */
class EvalState
{
  public:
    explicit EvalState(const EvalProgram &prog, uint32_t lanes = 1);

    /** Replica lanes held by this state (1 = scalar layout). */
    uint32_t lanes() const { return lanes_; }

    /** Restore initial slot and memory images. */
    void reset();

    /** Evaluate all combinational instructions (the BSP compute phase). */
    void evalComb();

    /**
     * Install cgen-compiled kernels that evalComb() — and, when
     * non-null, commitWrites() / latchRegisters() — run in place of
     * the interpreter loops (a null @p fn uninstalls everything).
     * @p code keeps the backing shared object alive for the lifetime
     * of this state. Bit-identical by construction: the kernels are
     * emitted from the same lowered program the interpreter executes.
     *
     * Observable-slot contract: after a native eval only the pinned
     * slots (pinnedSlots) and the slots one emitted block hands to a
     * later one hold defined values. The kernels keep every other
     * temporary in a C++ local and never store it, and read constants
     * as literals, so an unpinned slot may hold a stale value. Nothing
     * outside the instruction stream may read one; the interpreter
     * recomputes every slot it reads, so falling back stays exact.
     */
    void setNativeEval(NativeEvalFn fn, std::shared_ptr<void> code,
                       NativeEvalFn commit = nullptr,
                       NativeEvalFn latch = nullptr,
                       NativeEvalActFn act = nullptr,
                       NativeLatchActFn latchAct = nullptr);
    bool hasNativeEval() const { return nativeFn_ != nullptr; }

    /**
     * Activity-guarded execution: evalComb() runs only the groups of
     * the program's ActivityPlan whose dirty bit is set, seeded by the
     * sequential phases (latch compares each register's new value
     * against the old one; commit marks memory readers; a poke that
     * changes an input marks its readers; restores mark everything).
     * Skipped groups are provably unchanged — pure combinational logic
     * over unchanged inputs — so the guarded path is bit-identical to
     * always-eval.
     *
     * Returns false (and stays disabled) if the program has no built
     * plan. Enabling marks every group dirty, so the first eval is a
     * full one.
     */
    bool enableActivity(bool on);
    bool activityEnabled() const { return activity_; }

    /** Mark every activity group dirty (full re-eval next evalComb). */
    void markAllDirty();
    /** Mark the reader groups of register @p progRegIndex dirty (the
     *  shard exchange calls this when a received value changed). */
    void markRegReadersDirty(uint32_t progRegIndex);
    /** Mark the reader groups of memory @p memIndex dirty (the shard
     *  commit calls this when a broadcast write landed). */
    void markMemReadersDirty(uint32_t memIndex);

    /** Work done by the most recent evalComb(): instructions actually
     *  executed, and activity groups run / total. With activity off
     *  (or no plan) every instruction counts and run == total. */
    uint64_t lastEvalInstrs() const { return lastInstrs_; }
    uint32_t lastGroupsRun() const { return lastGroupsRun_; }
    uint32_t lastGroupsTotal() const { return lastGroupsTotal_; }

    /** Evaluate a single instruction (used by the event-driven
     *  interpreter for selective re-evaluation). */
    void evalOne(const EvalInstr &in);

    /** Execute the scalar instruction range [ip, end) on the
     *  computed-goto dispatch loop — the one hot path shared by the
     *  full sweep (evalComb) and the activity-guarded per-group sweep
     *  (evalActive), so skipping groups never trades away
     *  per-instruction dispatch speed. */
    void execRange(const EvalInstr *ip, const EvalInstr *end);

    /** Apply deferred memory writes in port order. */
    void commitWrites();

    /** Copy next -> cur for registers owned by this program. */
    void latchRegisters();

    /** Full local cycle: evalComb + commitWrites + latchRegisters. */
    void step();

    // Slot access (word granularity). With lanes > 1 the returned
    // pointer addresses the lane-major block: word w of lane l is at
    // ptr[w * lanes() + l].
    uint64_t *
    slotPtr(uint32_t slot)
    {
        return &slots_[uint64_t(slot) * lanes_];
    }
    const uint64_t *
    slotPtr(uint32_t slot) const
    {
        return &slots_[uint64_t(slot) * lanes_];
    }

    /** Read a value of @p width bits at @p slot into a BitVec. */
    BitVec readSlot(uint32_t slot, uint16_t width,
                    uint32_t lane = 0) const;

    /** readSlot() into an existing BitVec, reusing its buffer (the
     *  allocation-free peek path used by the VCD tracer). */
    void readSlotInto(uint32_t slot, uint16_t width, BitVec &out,
                      uint32_t lane = 0) const;

    /** Write a BitVec into @p slot (value is normalized to @p width).
     *  With lanes > 1 the value is broadcast to every lane. A host
     *  write may land anywhere (state import), so it marks every
     *  activity group dirty. */
    void writeSlot(uint32_t slot, const BitVec &v);

    /** Write a BitVec into @p slot of a single lane (as writeSlot). */
    void writeSlotLane(uint32_t slot, const BitVec &v, uint32_t lane);

    /** Poke input port @p inputIndex (index into EvalProgram::inputs):
     *  every lane, or only @p lane when it is below lanes(). When the
     *  value changed in some lane, marks just the groups reading that
     *  input dirty (ActivityPlan::inputReaders); the groups downstream
     *  of them are marked as they run. */
    void pokeInput(uint32_t inputIndex, const BitVec &v,
                   uint32_t lane = UINT32_MAX);

    /** Read one entry of a memory image (per-lane). */
    BitVec readMemEntry(uint32_t memIndex, uint64_t index, uint16_t width,
                        uint32_t lane = 0) const;

    /** Write one entry of a memory image in one lane (out-of-range
     *  indices are dropped, matching write-port semantics). */
    void writeMemEntry(uint32_t memIndex, uint64_t index, const BitVec &v,
                       uint32_t lane = 0);

    const EvalProgram &program() const { return prog_; }

    LaneWords &memImage(uint32_t mem_index) { return mems_[mem_index]; }

    const LaneWords &
    memImage(uint32_t mem_index) const
    {
        return mems_[mem_index];
    }

    /** Serialize all mutable state (slots + memory images). */
    void save(std::ostream &out) const;

  private:
    /** Generic-tier kernels (the original multi-word switch), over the
     *  scalar-layout base pointer @p s. */
    void execGeneric(const EvalInstr &in, uint64_t *s);
    /** Specialized/fused-tier kernels (switch fallback path). */
    void execSpecial(const EvalInstr &in, uint64_t *s);
    /** Single-word memory read (needs the memory images). */
    void execMemReadW(const EvalInstr &in);

    /** Gang (lanes > 1) interpreter: full program, all lanes. */
    void evalCombGang();
    /** One instruction across all lanes via gather/scatter remap. */
    void execGangInstr(const EvalInstr &in);
    /** Gang commit/latch fallbacks (per-lane strided). */
    void commitWritesGang();

    /** Activity-guarded evalComb: forward sweep over dirty groups. */
    void evalActive();
    /** Latch with value comparison: copies next -> cur only when the
     *  value changed, marking the register's reader groups dirty. */
    void latchRegistersActive();
    /** Commit that marks memory-reader groups on applied writes. */
    void commitWritesActive();

    /** Store @p v into @p slot of @p lane, or of every lane when
     *  @p lane is not below lanes(); marks nothing dirty. */
    void storeSlot(uint32_t slot, const BitVec &v, uint32_t lane);

    /** Re-derive memPtrs_ after mems_ may have reallocated. */
    void refreshMemPtrs();

    const EvalProgram &prog_;
    uint32_t lanes_ = 1;
    LaneWords slots_;
    std::vector<LaneWords> mems_;
    std::vector<uint64_t> scratch_;   ///< latch staging (double buffer)

    NativeEvalFn nativeFn_ = nullptr;     ///< cgen kernel (null -> interpret)
    NativeEvalFn nativeCommit_ = nullptr; ///< cgen commit phase
    NativeEvalFn nativeLatch_ = nullptr;  ///< cgen latch phase
    NativeEvalActFn nativeAct_ = nullptr; ///< cgen activity-guarded eval
    NativeLatchActFn nativeLatchAct_ = nullptr; ///< cgen compare-latch
    std::shared_ptr<void> nativeCode_;  ///< keeps the dlopened object alive
    std::vector<uint64_t *> memPtrs_;   ///< memory images, kernel ABI form

    bool activity_ = false;           ///< activity-guarded eval enabled
    std::vector<uint8_t> dirty_;      ///< per-group dirty byte
    uint64_t lastInstrs_ = 0;         ///< instrs executed by last eval
    uint32_t lastGroupsRun_ = 0;
    uint32_t lastGroupsTotal_ = 0;
};

/**
 * An EvalState constructed for R replica lanes — the storage layer of
 * gang simulation. A distinct type only for call-site clarity; all
 * behavior lives in EvalState, which is fully lane-aware.
 */
class GangState : public EvalState
{
  public:
    GangState(const EvalProgram &prog, uint32_t lanes)
        : EvalState(prog, lanes)
    {
    }
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_EVAL_HH
