/**
 * @file
 * SuperstepProfiler: measured r_cycle decomposition for the host
 * engines. The paper's whole analysis hangs on
 *
 *     r_cycle = 1 / (t_sync + t_comm + t_comp)        (Eq. 1)
 *
 * and the IPU machine *models* that split analytically; this profiler
 * *measures* it on whichever engine actually runs, so the model can be
 * validated against reality and a regression can be attributed to the
 * superstep that ate it.
 *
 * Design, in the order the constraints force it:
 *
 *  - Sampling: a full cycle is timestamped only every `sampleEvery`th
 *    cycle (`--profile-every`). On unsampled cycles the hot path pays
 *    one branch per superstep plus the monotonic counters, keeping
 *    steady-state overhead within the <2% budget.
 *  - Per-worker preallocated ring buffers: each worker writes samples
 *    (phase, cycle, raw tick interval) only into its own ring, so
 *    recording is wait-free and allocation-free; rings wrap, keeping
 *    the most recent window for Chrome-trace export.
 *  - Phase attribution: the engines record Commit/Latch/Exchange/Eval
 *    work intervals per worker; barrier-wait intervals come from the
 *    util::BspWaitObserver hooks this class implements. Per-shard
 *    eval durations feed the measured straggler histogram (the
 *    runtime analog of paper Fig. 6a/14).
 *  - Aggregation (obs/report.hh) maps phases onto the paper's terms:
 *    t_comp = eval + latch (tile-local work), t_comm = commit +
 *    exchange (data movement), t_sync = the residual of the sampled
 *    cycle span (barrier release/arrival), so the three terms sum to
 *    measured wall time by construction.
 *
 * Threading contract: beginCycle()/endCycle() are called by the
 * engine's driving thread (pool worker 0); record() only by the worker
 * named in the call, between beginCycle and endCycle; recordShardEval
 * only by the worker currently owning that shard's range. The pool's
 * barriers give the happens-before edges that make reading the rings
 * after a run race-free.
 */

#ifndef PARENDI_OBS_PROFILER_HH
#define PARENDI_OBS_PROFILER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "obs/clock.hh"
#include "obs/counters.hh"
#include "util/bsp_pool.hh"

namespace parendi::obs {

/** The supersteps of one BSP host cycle, plus the barrier wait. */
enum class Phase : uint8_t
{
    Commit = 0,     ///< array write-port broadcasts to replicas
    Latch,          ///< register next -> cur
    Exchange,       ///< owner -> reader register messages
    Eval,           ///< combinational evaluation
    Publish,        ///< fused path: post-eval copy-out to the pub buffer
    BarrierWait,    ///< waiting at a pool barrier (from BspWaitObserver)
    NumPhases
};

const char *phaseName(Phase p);

struct ProfileOptions
{
    /** Timestamp every Nth cycle (1 = every cycle). */
    uint64_t sampleEvery = 16;
    /** Samples retained per worker ring (most recent win). */
    size_t ringCapacity = size_t{1} << 15;
};

/** One timestamped interval on one worker. Trivially
 *  default-constructible, so a ring's storage starts uninitialized. */
struct Sample
{
    uint64_t t0;
    uint64_t t1;
    uint64_t cycle;
    Phase phase;
};
static_assert(std::is_trivially_default_constructible_v<Sample>);

/** Fixed-capacity overwrite-oldest sample buffer. Preallocated but
 *  not zero-filled, so a short run never touches the pages it does
 *  not write; a push never allocates. */
class SampleRing
{
  public:
    explicit SampleRing(size_t capacity)
        : cap_(capacity > 0 ? capacity : 1),
          buf_(std::make_unique_for_overwrite<Sample[]>(cap_))
    {
    }

    void
    push(const Sample &s)
    {
        buf_[head_] = s;
        head_ = (head_ + 1) % cap_;
        if (size_ < cap_)
            ++size_;
    }

    size_t size() const { return size_; }
    size_t capacity() const { return cap_; }
    uint64_t pushed() const { return pushed_counter_; }

    /** i-th retained sample, oldest first. */
    const Sample &
    at(size_t i) const
    {
        return buf_[(head_ + cap_ - size_ + i) % cap_];
    }

    void
    notePushed()
    {
        ++pushed_counter_;
    }

  private:
    size_t cap_;
    std::unique_ptr<Sample[]> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    uint64_t pushed_counter_ = 0;   ///< total pushes incl. overwritten
};

/** Accumulated eval time of one shard over the sampled cycles. */
struct ShardEvalStat
{
    uint64_t ticks = 0;     ///< total sampled eval ticks
    uint64_t maxTicks = 0;  ///< worst single sampled eval
    uint64_t samples = 0;
};

class SuperstepProfiler : public util::BspWaitObserver
{
  public:
    /** @p workers BSP workers (>= 1) and @p shards shards feed this
     *  profiler; sizing is fixed up front so recording never
     *  allocates. */
    SuperstepProfiler(uint32_t workers, size_t shards,
                      const ProfileOptions &opt = ProfileOptions{});

    SuperstepProfiler(const SuperstepProfiler &) = delete;
    SuperstepProfiler &operator=(const SuperstepProfiler &) = delete;

    const ProfileOptions &options() const { return opt_; }
    uint32_t workers() const { return static_cast<uint32_t>(
        rings_.size()); }
    size_t shards() const { return shardEval_.size(); }

    // -- Engine-facing hot path ------------------------------------------

    /** Start one simulated cycle; decides whether it is sampled. */
    void
    beginCycle()
    {
        cycles_.add(1);
        uint64_t n = cycleIndex_++;
        bool sample = opt_.sampleEvery <= 1 ||
            n % opt_.sampleEvery == 0;
        sampling_ = sample;
        if (sample) {
            sampled_.add(1);
            windowStart_.store(tick(), std::memory_order_relaxed);
            measuring_.store(true, std::memory_order_release);
        }
    }

    /** Finish the cycle started by beginCycle(). */
    void
    endCycle()
    {
        if (!sampling_)
            return;
        uint64_t t1 = tick();
        measuring_.store(false, std::memory_order_release);
        Sample s;
        s.t0 = windowStart_.load(std::memory_order_relaxed);
        s.t1 = t1;
        s.cycle = cycleIndex_ - 1;
        s.phase = Phase::Eval;
        cycleRing_.push(s);
        cycleRing_.notePushed();
        sampling_ = false;
    }

    /** True between beginCycle and endCycle of a sampled cycle: the
     *  engine should take its timestamped paths. */
    bool sampling() const { return sampling_; }

    /** Record one superstep work interval for @p worker. Only valid
     *  while sampling(). */
    void
    record(uint32_t worker, Phase phase, uint64_t t0, uint64_t t1)
    {
        record(worker, phase, t0, t1, cycleIndex_ - 1);
    }

    /**
     * Explicit-cycle variant for batched dispatch: inside a k-cycle
     * batch, workers other than 0 must not read cycleInd_/sampling()
     * (worker 0 mutates them per inner cycle) — they compute the
     * sampled cycle number locally from the batch base and pass it
     * here. Safe from any worker at any time (the ring is still
     * per-worker private).
     */
    void
    record(uint32_t worker, Phase phase, uint64_t t0, uint64_t t1,
           uint64_t cycle)
    {
        Sample s;
        s.t0 = t0;
        s.t1 = t1;
        s.cycle = cycle;
        s.phase = phase;
        rings_[worker].push(s);
        rings_[worker].notePushed();
    }

    /** Batched-dispatch barrier accounting: attribute one in-dispatch
     *  barrier wait to @p worker at @p cycle (the per-epoch
     *  BspWaitObserver hooks cannot see the inner barrier). */
    void
    recordBarrierWait(uint32_t worker, uint64_t t0, uint64_t t1,
                      uint64_t cycle)
    {
        if (t1 <= t0)
            return;
        barrierWait_[worker].fetch_add(t1 - t0,
                                       std::memory_order_relaxed);
        record(worker, Phase::BarrierWait, t0, t1, cycle);
    }

    /** Accumulate one shard's eval duration (sampled cycles only). */
    void
    recordShardEval(size_t shard, uint64_t dticks)
    {
        ShardEvalStat &st = shardEval_[shard];
        st.ticks += dticks;
        if (dticks > st.maxTicks)
            st.maxTicks = dticks;
        ++st.samples;
    }

    // -- util::BspWaitObserver -------------------------------------------

    void epochWaitBegin(uint32_t worker) override;
    void epochWaitEnd(uint32_t worker) override;

    // -- Counters --------------------------------------------------------

    Counters &counters() { return counters_; }
    const Counters &counters() const { return counters_; }

    // -- Aggregation access (quiesced engine only) -----------------------

    uint64_t cyclesSeen() const { return cycleIndex_; }
    uint64_t cyclesSampled() const { return sampled_.value(); }
    const SampleRing &ring(uint32_t worker) const
    {
        return rings_[worker];
    }
    const SampleRing &cycleRing() const { return cycleRing_; }
    const std::vector<ShardEvalStat> &shardEval() const
    {
        return shardEval_;
    }
    /** Barrier-wait ticks accumulated per worker (sampled windows). */
    uint64_t
    barrierWaitTicks(uint32_t worker) const
    {
        return barrierWait_[worker].load(std::memory_order_relaxed);
    }
    /** Begin/End pairs seen per worker (every epoch, sampled or not —
     *  the wait-hook unit tests key off this). */
    uint64_t
    waitPairs(uint32_t worker) const
    {
        return waitEnds_[worker].load(std::memory_order_relaxed);
    }

  private:
    ProfileOptions opt_;
    Counters counters_;
    Counter &cycles_;
    Counter &sampled_;

    uint64_t cycleIndex_ = 0;
    bool sampling_ = false;

    // Wait-hook state: workers read these concurrently with worker 0
    // writing them in begin/endCycle, hence atomics; the values only
    // gate accounting, so relaxed races at window edges are benign
    // (intervals are clipped to the window).
    std::atomic<bool> measuring_{false};
    std::atomic<uint64_t> windowStart_{0};

    std::vector<SampleRing> rings_;     ///< one per worker
    SampleRing cycleRing_;              ///< sampled cycle spans
    std::vector<ShardEvalStat> shardEval_;

    // Indexed by worker; each slot written by its own worker.
    struct alignas(64) WaitSlot
    {
        uint64_t begin = 0;
    };
    std::vector<WaitSlot> waitBegin_;
    std::vector<std::atomic<uint64_t>> barrierWait_;
    std::vector<std::atomic<uint64_t>> waitEnds_;
};

} // namespace parendi::obs

#endif // PARENDI_OBS_PROFILER_HH
