#include "util/bsp_pool.hh"

#include <algorithm>

namespace parendi::util {

namespace {

/** Spin iterations before falling back to a futex wait. Small on
 *  purpose: when workers outnumber cores the fast path never wins and
 *  the wait path must engage quickly. */
constexpr int kSpinIters = 256;

} // namespace

// -- SpinBarrier ---------------------------------------------------------

namespace {

/// Adaptive spin-budget bounds: never below a cache-miss worth of
/// iterations, never above ~a futex round-trip worth of spinning.
constexpr uint32_t kMinSpin = 16;
constexpr uint32_t kMaxSpin = 4096;

/// Rough iterations-per-nanosecond for converting an observed wait
/// into a spin budget; precision is irrelevant, only the order of
/// magnitude matters (the budget is clamped anyway).
constexpr uint64_t kItersPerNs = 1;

} // namespace

SpinBarrier::SpinBarrier(uint32_t parties)
    : parties_(parties > 0 ? parties : 1), spinBudget_(kSpinIters)
{
}

void
SpinBarrier::arriveAndWait()
{
    const uint64_t g = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        parties_) {
        // Last arriver: reset for the next generation, then release.
        // The release store of gen_ publishes every party's writes
        // (their fetch_add was acq_rel) to every waiter's acquire
        // load below.
        count_.store(0, std::memory_order_relaxed);
        // seq_cst pairs with the waiter's seq_cst sleepers_++ /
        // gen_ recheck: either the waiter's increment precedes this
        // load (we notify) or this store precedes its recheck (it
        // never sleeps) — no missed wakeup either way.
        gen_.store(g + 1, std::memory_order_seq_cst);
        if (sleepers_.load(std::memory_order_seq_cst) > 0)
            gen_.notify_all();
        return;
    }
    const uint32_t budget = spinBudget_.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i < budget; ++i) {
        if (gen_.load(std::memory_order_acquire) != g) {
            // Satisfied comfortably inside the window: grow the
            // budget back toward the cap (cheap success signal).
            if (i < budget / 2 && budget < kMaxSpin)
                spinBudget_.store(budget + budget / 4 + 1,
                                  std::memory_order_relaxed);
            return;
        }
    }
    // Brief yield phase bridges "slightly over budget" before the
    // futex engages (a futex sleep+wake is ~microseconds).
    for (int i = 0; i < 4; ++i) {
        std::this_thread::yield();
        if (gen_.load(std::memory_order_acquire) != g)
            return;
    }
    // Futex path: once this engages, spinning was wasted — shrink the
    // budget so oversubscribed hosts stop burning their timeslice.
    spinBudget_.store(std::max(budget / 2, kMinSpin),
                      std::memory_order_relaxed);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    while (gen_.load(std::memory_order_seq_cst) == g)
        gen_.wait(g, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_acq_rel);
}

void
SpinBarrier::observeWaitNs(uint64_t ns)
{
    // EMA (alpha = 1/8) over externally measured inter-arrival times;
    // re-seed the budget from it so workload phase changes retune the
    // barrier even when the internal signals are saturated.
    uint64_t ema = emaWaitNs_.load(std::memory_order_relaxed);
    ema = ema == 0 ? ns : ema - ema / 8 + ns / 8;
    emaWaitNs_.store(ema, std::memory_order_relaxed);
    uint64_t target = ema * kItersPerNs;
    uint32_t budget = static_cast<uint32_t>(
        std::min<uint64_t>(std::max<uint64_t>(target, kMinSpin),
                           kMaxSpin));
    spinBudget_.store(budget, std::memory_order_relaxed);
}

BspPool::BspPool(uint32_t threads)
    : nthreads_(std::max<uint32_t>(threads, 1))
{
    workers_.reserve(nthreads_ - 1);
    for (uint32_t w = 1; w < nthreads_; ++w)
        workers_.emplace_back([this, w]() { workerLoop(w); });
}

BspPool::~BspPool()
{
    if (workers_.empty())
        return;
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
BspPool::awaitEpoch(uint64_t seen, uint32_t worker)
{
    // The wait is bracketed by the observer hooks so barrier time is
    // attributable per worker instead of vanishing into the
    // spin-then-futex internals. Exactly one Begin/End pair fires per
    // epoch per worker, fast path included. End goes only to the
    // observer that got Begin and only if it is still installed: the
    // host may clear it (and destroy it) while this worker parks.
    BspWaitObserver *obs = observer_.load(std::memory_order_acquire);
    if (obs)
        obs->epochWaitBegin(worker);
    bool released = false;
    for (int i = 0; i < kSpinIters && !released; ++i)
        released = epoch_.load(std::memory_order_acquire) != seen;
    if (!released)
        while (epoch_.load(std::memory_order_acquire) == seen)
            epoch_.wait(seen, std::memory_order_acquire);
    if (obs && observer_.load(std::memory_order_acquire) == obs)
        obs->epochWaitEnd(worker);
}

void
BspPool::setWaitObserver(BspWaitObserver *observer)
{
    observer_.store(observer, std::memory_order_release);
}

void
BspPool::workerLoop(uint32_t worker)
{
    uint64_t seen = 0;
    for (;;) {
        awaitEpoch(seen, worker);
        seen = epoch_.load(std::memory_order_acquire);
        if (stop_.load(std::memory_order_acquire))
            return;
        (*job_)(worker);
        arrived_.fetch_add(1, std::memory_order_release);
        arrived_.notify_one();
    }
}

void
BspPool::run(const std::function<void(uint32_t)> &job)
{
    if (workers_.empty()) {
        job(0);
        return;
    }
    job_ = &job;
    arrived_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    job(0);
    // The caller's barrier wait (worker 0): time spent here is the
    // stragglers' margin over the caller's own share of the work.
    BspWaitObserver *obs = observer_.load(std::memory_order_acquire);
    if (obs)
        obs->epochWaitBegin(0);
    const uint32_t target = nthreads_ - 1;
    for (int i = 0; i < kSpinIters; ++i) {
        if (arrived_.load(std::memory_order_acquire) == target) {
            if (obs)
                obs->epochWaitEnd(0);
            return;
        }
    }
    uint32_t got;
    while ((got = arrived_.load(std::memory_order_acquire)) != target)
        arrived_.wait(got, std::memory_order_acquire);
    if (obs)
        obs->epochWaitEnd(0);
}

} // namespace parendi::util
