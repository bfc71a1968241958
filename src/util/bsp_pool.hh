/**
 * @file
 * A persistent BSP worker pool: N host workers (the calling thread is
 * worker 0) that execute one superstep at a time, separated by a
 * sense-reversing barrier. This is the host-side analogue of the IPU's
 * hardware barrier: the static shard/tile partition of a compiled BSP
 * simulation maps onto persistent workers with cheap barriers instead
 * of per-cycle thread spawns (which cost tens of microseconds each and
 * dominated the seed implementation's threaded step).
 *
 * The barrier is two-phase:
 *  - release: the caller publishes the job and advances the epoch
 *    counter (the generalized sense flag — workers wait for the epoch
 *    to differ from the one they last observed, so consecutive
 *    supersteps can never be confused);
 *  - arrival: each worker increments a completion counter; the caller
 *    waits until all have arrived.
 *
 * Waiters spin briefly, then fall back to C++20 atomic futex waits so
 * the pool behaves on oversubscribed hosts (e.g. 8 workers on 1 core)
 * instead of burning a timeslice per waiter per phase.
 */

#ifndef PARENDI_UTIL_BSP_POOL_HH
#define PARENDI_UTIL_BSP_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace parendi::util {

/**
 * In-dispatch sense-reversing barrier for multi-cycle batch dispatch:
 * when a k-cycle batch runs inside a single BspPool::run, the workers
 * separate consecutive simulated cycles with this barrier instead of
 * returning to the pool's epoch machinery — no job republication, no
 * completion counter reset by the caller, and in the common case no
 * futex round-trip at all.
 *
 * The spin budget adapts on two signals:
 *  - internally: a waiter that had to sleep halves the budget (once
 *    the futex engages, inter-arrival is far beyond any useful spin —
 *    typically an oversubscribed host), while a wait satisfied early
 *    in the spin window nudges the budget back up;
 *  - externally: observeWaitNs() feeds measured inter-arrival times
 *    (the profiler's sampled barrier waits) into an EMA that re-seeds
 *    the budget, so a phase change in the workload retunes the
 *    barrier even when the internal signal is saturated.
 *
 * All parties must call arriveAndWait() the same number of times; the
 * last arrival of each generation releases the rest.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(uint32_t parties);

    SpinBarrier(const SpinBarrier &) = delete;
    SpinBarrier &operator=(const SpinBarrier &) = delete;

    /** Block until all parties have arrived at this generation. */
    void arriveAndWait();

    uint32_t parties() const { return parties_; }

    /** Completed generations (== inner barriers crossed). */
    uint64_t
    generations() const
    {
        return gen_.load(std::memory_order_relaxed);
    }

    /** Feed one measured barrier-wait duration (nanoseconds) into the
     *  adaptive spin budget. Thread-safe; call from any party. */
    void observeWaitNs(uint64_t ns);

    /** Current spin budget in iterations (tuning/test visibility). */
    uint32_t
    spinBudget() const
    {
        return spinBudget_.load(std::memory_order_relaxed);
    }

  private:
    const uint32_t parties_;
    std::atomic<uint32_t> count_{0};
    std::atomic<uint64_t> gen_{0};
    std::atomic<uint32_t> sleepers_{0};
    std::atomic<uint32_t> spinBudget_;
    std::atomic<uint64_t> emaWaitNs_{0};
};

/**
 * Observer of the pool's barrier waits, so wait time is attributable
 * per worker instead of being buried inside the spin-then-futex path.
 * For every epoch, every worker produces exactly one Begin/End pair:
 *
 *  - workers 1..N-1 around the wait for the next epoch release (the
 *    time between finishing their superstep and the caller publishing
 *    the next one);
 *  - worker 0 (the caller) around the arrival wait in run() (the time
 *    it spends waiting for stragglers after finishing its own share).
 *
 * The pair fires even when the wait is satisfied immediately (a
 * zero-duration interval), so observers can count epochs. Callbacks
 * run on the waiting worker's thread and must not block.
 */
class BspWaitObserver
{
  public:
    virtual ~BspWaitObserver() = default;
    virtual void epochWaitBegin(uint32_t worker) = 0;
    virtual void epochWaitEnd(uint32_t worker) = 0;
};

class BspPool
{
  public:
    /** A pool of @p threads workers total; @p threads - 1 host threads
     *  are spawned (the caller participates as worker 0). A count of
     *  0 or 1 spawns nothing and run() degenerates to a plain call. */
    explicit BspPool(uint32_t threads);
    ~BspPool();

    BspPool(const BspPool &) = delete;
    BspPool &operator=(const BspPool &) = delete;

    uint32_t threads() const { return nthreads_; }

    /** One superstep: run job(worker) on every worker concurrently and
     *  return once all are done (the barrier). The job must only write
     *  state private to its worker index — that is the BSP contract. */
    void run(const std::function<void(uint32_t worker)> &job);

    /**
     * Install (or clear, with nullptr) the barrier-wait observer. Must
     * be called while the pool is idle (no run() in flight); the
     * observer must outlive the pool or be cleared before destruction.
     */
    void setWaitObserver(BspWaitObserver *observer);

  private:
    void workerLoop(uint32_t worker);
    void awaitEpoch(uint64_t seen, uint32_t worker);

    uint32_t nthreads_;
    std::vector<std::thread> workers_;

    std::atomic<uint64_t> epoch_{0};        ///< release barrier (sense)
    std::atomic<uint32_t> arrived_{0};      ///< arrival barrier
    std::atomic<bool> stop_{false};
    const std::function<void(uint32_t)> *job_ = nullptr;
    std::atomic<BspWaitObserver *> observer_{nullptr};
};

} // namespace parendi::util

#endif // PARENDI_UTIL_BSP_POOL_HH
