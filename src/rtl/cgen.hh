/**
 * @file
 * Native codegen backend (tier 4 of the evaluation pipeline): a
 * lowered rtl::EvalProgram is emitted as a self-contained C++
 * translation unit of straight-line uint64 slot operations — the W
 * and fused tiers become single expressions, the multi-word generic
 * tier becomes calls to inline word-loop helpers specialized by
 * constant widths — then compiled with the system C++ compiler into a
 * shared object and dlopen()ed. Each program yields three entry
 * points — evaluate (the combinational program), commit (the deferred
 * memory write ports) and latch (the two-phase next→cur register
 * copy) — plus, when it carries an activity plan, their guarded
 * evaluate and compare-latch twins, installed on an EvalState
 * (EvalState::setNativeEval), so
 * every engine built on EvalPrograms — the reference interpreter, and
 * the ShardSet behind the par and ipu engines — can execute native
 * code between the same deterministic BSP supersteps. (The ShardSet
 * keeps its own cross-shard broadcast commit; it picks up the native
 * evaluate and latch phases.)
 *
 * This is the same "compiled simulation" move Verilator and the
 * paper's Poplar codelet generation make: per-tile straight-line
 * native code is what the r_cycle analysis assumes t_comp is made of.
 *
 * Robustness contract: everything here degrades gracefully. If the
 * toolchain is missing, the compile fails, or dlopen is unavailable
 * on the platform, the caller gets a warning and the engine keeps
 * running on the (bit-identical) fused interpreter.
 *
 * Compiled objects are cached by a hash of the generated source plus
 * the compiler command under a build directory, so repeated runs of
 * the same design skip the compiler entirely. A miss splits the one
 * emitted TU into per-core units (see cgenAssignUnits), compiles them
 * concurrently and links them into the one shared object.
 */

#ifndef PARENDI_RTL_CGEN_HH
#define PARENDI_RTL_CGEN_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rtl/eval.hh"
#include "rtl/interp.hh"
#include "rtl/shard.hh"

namespace parendi::rtl {

/**
 * Where compiled artifacts live. CgenModule::compile never touches the
 * filesystem cache directly — it hashes the generated source plus the
 * compiler command into a content key and asks an ArtifactCache to
 * resolve it, invoking the supplied builder only on a miss. The
 * default implementation is a plain directory cache (one `.so` per
 * key, hit iff the file exists); serve::ArtifactStore layers LRU
 * eviction, single-flight compilation and hit/miss counters on the
 * same interface so every session shares one store.
 */
class ArtifactCache
{
  public:
    virtual ~ArtifactCache() = default;

    /**
     * Resolve @p key to the path of a compiled shared object. On a
     * miss the cache calls @p build with the destination path; build
     * returns false if compilation failed (after its own warn()).
     * Returns "" when the artifact is unavailable.
     */
    virtual std::string
    acquire(uint64_t key,
            const std::function<bool(const std::string &objectPath)>
                &build) = 0;
};

/** Knobs of the native codegen backend. */
struct CgenOptions
{
    /** Compiler command. Empty selects $PARENDI_CXX, then $CXX, then
     *  "c++". The value is used as a shell command prefix, so it may
     *  carry flags ("g++ -march=native"). */
    std::string cxx;

    /** Flags appended after the base "-O2 -fPIC -shared -std=c++17". */
    std::string extraFlags;

    /** Cache directory for generated sources and shared objects.
     *  Empty selects $PARENDI_CGEN_DIR, then "<tmpdir>/parendi-cgen". */
    std::string buildDir;

    /** Reuse a cached shared object whose hash matches. */
    bool cache = true;

    /**
     * Replica lanes the emitted kernels step in lock-step (gang
     * simulation). 1 emits the scalar kernels; R > 1 emits every
     * statement as an auto-vectorizable `for (lane = 0..R)` loop over
     * the lane-major EvalState layout (compiled with -fopenmp-simd so
     * -O2 turns the lane loops into SIMD). The attach helpers
     * (cgenAttach / cgenAttachShards) override this with the target
     * state's actual lane count; it only needs to be set when calling
     * CgenModule::compile directly. Always part of the cache key, so
     * gang and scalar builds of one design never collide.
     */
    uint32_t lanes = 1;

    /** Artifact cache to resolve compiled objects through. Null (the
     *  default) selects the plain directory cache under buildDir;
     *  hosts that share artifacts across sessions pass their
     *  serve::ArtifactStore. The store must outlive every module
     *  compiled through it. */
    ArtifactCache *store = nullptr;
};

/** The native entry points generated for one EvalProgram. */
struct CgenEntry
{
    /** Combinational evaluate. With a plan it is evalAct over an
     *  all-dirty map, and latch is latchAct into a scratch map: the
     *  TU holds one instruction stream, the guarded one. */
    NativeEvalFn eval = nullptr;
    NativeEvalFn commit = nullptr;  ///< deferred memory write ports
    NativeEvalFn latch = nullptr;   ///< two-phase register latch

    /** Activity-guarded evaluate: runs only the groups whose dirty
     *  byte is set (see EvalState::enableActivity). Emitted only when
     *  the program carries a built ActivityPlan; null otherwise, and
     *  the guarded path falls back to the interpreted sweep. */
    NativeEvalActFn evalAct = nullptr;
    /** Activity-aware latch: next -> cur with per-register change
     *  detection seeding the dirty bytes. Emitted alongside evalAct. */
    NativeLatchActFn latchAct = nullptr;
};

/**
 * A dlopen()ed shared object holding one native kernel triple per
 * emitted EvalProgram. Engines share ownership via shared_ptr so the
 * code outlives every EvalState using it.
 */
class CgenModule
{
  public:
    ~CgenModule();
    CgenModule(const CgenModule &) = delete;
    CgenModule &operator=(const CgenModule &) = delete;

    size_t numEntries() const { return entries_.size(); }
    const CgenEntry &entry(size_t i) const { return entries_[i]; }
    const std::string &objectPath() const { return objectPath_; }

    /** Translation units the object is built from on a miss:
     *  min(hardware threads, chunk functions), at least 1. A build
     *  schedule of this host, not part of the content key. */
    size_t numUnits() const { return numUnits_; }

    /**
     * Emit, compile and load kernels for @p progs (one entry per
     * program, in order). Returns nullptr — after a warn() describing
     * the failure — when no toolchain is available, the compile
     * fails, or the platform has no dlopen; callers fall back to the
     * interpreter.
     */
    static std::shared_ptr<CgenModule>
    compile(const std::vector<const EvalProgram *> &progs,
            const CgenOptions &opt = CgenOptions{});

  private:
    CgenModule() = default;

    void *handle_ = nullptr;
    std::vector<CgenEntry> entries_;
    std::string objectPath_;
    size_t numUnits_ = 1;
};

/** One top-level function of an emitted TU. Its source bytes
 *  (end - begin) are the compile-cost weight the split build packs. */
struct CgenFunction
{
    size_t begin = 0, end = 0;  ///< byte span in CgenSource::text
    bool chunk = false;         ///< a hidden pe/pea chunk function
};

/**
 * An emitted TU together with its function layout, so the split build
 * never re-parses text: `text[0, headerEnd)` is the preamble plus the
 * declarations of every chunk function (the prefix of every unit), and
 * `functions` tile `[headerEnd, text.size())` in text order.
 */
struct CgenSource
{
    std::string text;
    size_t headerEnd = 0;
    std::vector<CgenFunction> functions;

    size_t numChunks() const;
};

/**
 * Most statements one gang `PG_SIMD` lane loop holds. emitRange batches
 * each run of single-word-tier ops into one lane loop; a lane statement
 * makes at most 5 slot references (fused muxes), so a capped run stays
 * well under g++'s `--param loop-max-datarefs-for-datadeps=1000`, past
 * which the whole loop is left scalar. Independent of the chunk size:
 * 64 measured as fast as 128 at R=8 (sr2, gated, bitcoin, pico).
 */
inline constexpr size_t kCgenLaneRunStmts = 64;

/**
 * Most instructions one guarded chunk function (`pea<i>_c<k>`) packs,
 * in whole activity groups; a larger group gets a chunk to itself.
 * Larger than the straight-line chunk: on a mostly idle design a
 * guarded cycle is little more than its dirty-byte tests and chunk
 * calls, and 128 cost the serve-gated cgen rate about 10%.
 */
inline constexpr size_t kCgenActChunkInstrs = 512;

/**
 * The emitter alone: the C++ source of a translation unit with
 * `extern "C" void parendi_{eval,commit,latch}_<i>(uint64_t *slots,
 * uint64_t *const *mems)` entries per program. Each program's
 * instruction stream is emitted once: as activity-guarded `pea<i>_c<k>`
 * chunks behind `parendi_{eval,latch}_act_<i>` when the program
 * carries a built plan (eval and latch then wrap the act entries), as
 * straight-line `pe<i>_c<k>` chunks otherwise. Deterministic
 * (hashable) for identical programs. @p lanes > 1 emits gang
 * (lane-vectorized) kernels over the lane-major SoA layout; 1 emits
 * the scalar kernels.
 */
std::string cgenEmitSource(const std::vector<const EvalProgram *> &progs,
                           uint32_t lanes = 1);

/** cgenEmitSource with the function layout the split build uses. */
CgenSource cgenEmit(const std::vector<const EvalProgram *> &progs,
                    uint32_t lanes = 1);

/**
 * Deterministic LPT packing of functions into @p units translation
 * units: heaviest first (ties by function index), each to the
 * least-loaded unit (ties by unit index). Returns each unit's function
 * indices in ascending (text) order. With units <= weights.size() and
 * positive weights no unit is empty.
 */
std::vector<std::vector<size_t>>
cgenAssignUnits(const std::vector<uint64_t> &weights, size_t units);

/** 64-bit FNV-1a of a byte string (the compile-cache key). */
uint64_t cgenHash(const std::string &bytes);

/** Canonical file name of the compiled object for @p key
 *  ("parendi_<key>.so") — shared by every ArtifactCache
 *  implementation so stores and the directory cache interoperate. */
std::string cgenObjectName(uint64_t key);

/** Path of the whole-TU debug copy CgenModule::compile keeps beside
 *  the object at @p objectPath ("parendi_<key>.cc" next to
 *  "parendi_<key>.so"); stores count and evict it with the object. */
std::string cgenDebugSourcePath(const std::string &objectPath);

/** Compile @p prog and install the kernel on @p state; false (with a
 *  warning) if native execution is unavailable. */
bool cgenAttach(EvalState &state, const EvalProgram &prog,
                const CgenOptions &opt = CgenOptions{});

/**
 * Compile every shard program of @p shards into ONE shared object
 * (one emitted TU, built as per-core units) and install a kernel per
 * shard state. Returns the number of shards now running natively:
 * all of them, or 0 on fallback.
 */
size_t cgenAttachShards(ShardSet &shards,
                        const CgenOptions &opt = CgenOptions{});

/**
 * The `cgen` engine: the reference interpreter with its whole-design
 * program compiled to native code. Construction never fails on a
 * missing toolchain — it warns and keeps the interpreter loop, so the
 * engine is always functional (native() reports which path runs).
 * copt.lanes > 1 builds a gang engine: the state holds that many
 * replica lanes and the compiled kernels step them all per cycle (the
 * interpreter fallback steps them via gather/scatter).
 */
class CgenInterpreter : public Interpreter
{
  public:
    explicit CgenInterpreter(Netlist nl,
                             const LowerOptions &lower = LowerOptions{},
                             const CgenOptions &copt = CgenOptions{});

    const char *engineName() const override { return "cgen"; }

    /** True when the native kernel is installed (false = fell back). */
    bool native() const { return native_; }

  private:
    bool native_ = false;
};

} // namespace parendi::rtl

#endif // PARENDI_RTL_CGEN_HH
