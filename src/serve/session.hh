/**
 * @file
 * serve::SessionManager — the multi-session simulation host. Each
 * session wraps one core::SessionHandle (engine + design identity);
 * all sessions share
 *
 *  - ONE util::BspPool: par engines are built with
 *    EngineOptions::pool, so N concurrent sessions cost one pool's
 *    worth of worker threads instead of N, and
 *  - ONE serve::ArtifactStore: native-kernel compiles are
 *    content-addressed and deduplicated across sessions.
 *
 * Cycle work is executed by a dedicated scheduler thread running
 * deficit round-robin (DRR): each runnable session (pending cycles
 * > 0) is visited in cyclic id order; a visit grants the session
 * `quantumCycles` of credit, and the session runs
 * min(credit, pending) cycles as one engine step (which is one fused
 * batched pool dispatch for par engines — the PR 5 path). The credit
 * carried by a session that had less pending work than its grant is
 * kept until the session goes idle, so light interactive sessions
 * (poke/step-100/peek loops) accumulate the right to burst and are
 * never starved by 1M-cycle bulk sessions: per scheduler round every
 * runnable session advances ~one quantum, regardless of how much work
 * the others have queued.
 *
 * Threading: the public API is fully thread-safe (one server
 * connection thread per client calls into it concurrently). step()
 * enqueues cycles and blocks until the scheduler has executed them.
 * Control ops (poke/peek/checkpoint/restore/destroy) wait until the
 * session is not mid-step, then mark it busy so the scheduler skips
 * it while the op runs outside the manager lock. Only the scheduler
 * thread ever dispatches on the shared pool, which is exactly the
 * BspPool sharing contract (see rtl::ParConfig::pool).
 */

#ifndef PARENDI_SERVE_SESSION_HH
#define PARENDI_SERVE_SESSION_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/session.hh"
#include "obs/counters.hh"
#include "serve/artifact.hh"
#include "util/bsp_pool.hh"

namespace parendi::serve {

/** Per-session creation knobs (the Create request's fields). */
struct SessionOptions
{
    std::string engine = "par";
    uint32_t threads = 0;   ///< 0 = the shared pool's width
    bool cgen = false;      ///< native kernels via the artifact store
    size_t batch = 0;       ///< fused cycles per pool dispatch
    /** Gang simulation: replica lanes stepped per cycle (see
     *  EngineOptions::replicas). A session created with R > 1 runs R
     *  design instances per scheduler slice; the host bills its work
     *  to the serve_lane_cycles_executed counter at R lane-cycles per
     *  cycle, so aggregate lane-cycles/sec is reportable per host. */
    uint32_t replicas = 1;
};

struct ManagerOptions
{
    /** Hard cap on concurrent sessions. */
    uint32_t maxSessions = 64;

    /** Shared BSP pool width; 0 = hardware concurrency. */
    uint32_t poolThreads = 0;

    /** DRR grant per scheduler visit, in cycles. */
    uint64_t quantumCycles = 1024;

    ArtifactStore::Options store;

    /**
     * Resolve a Create request's design spec into a netlist, ready to
     * simulate (optimized). Reports failure by throwing
     * util::FatalError (i.e. calling fatal()); the manager turns that
     * into a create error. Supplied by the host binary so this
     * library does not depend on the built-in design zoo.
     */
    std::function<rtl::Netlist(const std::string &spec)> resolveDesign;
};

class SessionManager
{
  public:
    explicit SessionManager(ManagerOptions opt);
    ~SessionManager();

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    /**
     * Create a session of @p designSpec. Returns the session id (> 0),
     * or 0 with @p err set. @p native reports whether cgen kernels
     * are installed (when non-null).
     */
    uint64_t createSession(const std::string &designSpec,
                           const SessionOptions &sopt, std::string *err,
                           bool *native = nullptr);

    /** Enqueue @p n cycles and block until the scheduler has run
     *  them. @p cyclesAfter (if non-null) receives the session's
     *  cycle count after this request's work completed. */
    bool step(uint64_t id, uint64_t n, uint64_t *cyclesAfter,
              std::string *err);

    bool poke(uint64_t id, const std::string &input,
              const rtl::BitVec &value, std::string *err);
    bool peek(uint64_t id, const std::string &output, rtl::BitVec *out,
              std::string *err);
    bool peekRegister(uint64_t id, const std::string &reg,
                      rtl::BitVec *out, std::string *err);

    /** Headered checkpoint blob (core::saveCheckpoint). */
    bool checkpoint(uint64_t id, std::string *blob, std::string *err);
    bool restore(uint64_t id, const std::string &blob, std::string *err);

    bool destroySession(uint64_t id, std::string *err);

    size_t numSessions() const;

    /** Lifetime cycles the scheduler has executed for @p id (0 for an
     *  unknown session) — the fairness metric of the bench driver. */
    uint64_t completedCycles(uint64_t id) const;

    obs::Counters &counters() { return counters_; }
    ArtifactStore &store() { return *store_; }
    util::BspPool *pool() { return pool_.get(); }

  private:
    struct Session
    {
        uint64_t id = 0;
        std::unique_ptr<core::SessionHandle> handle;
        uint64_t pending = 0;   ///< cycles enqueued, not yet run
        uint64_t requested = 0; ///< lifetime cycles enqueued
        uint64_t done = 0;      ///< lifetime cycles executed
        uint64_t deficit = 0;   ///< DRR credit carried between visits
        /** Engine cycle count, refreshed under the manager lock after
         *  every scheduler slice and restore — what step() reports,
         *  so clients never read the engine while it may be mid-step. */
        uint64_t cyclesSnapshot = 0;
        /** Replica lanes the engine actually runs (the engine may have
         *  forced 1, e.g. for event/ipu) — the lane-cycle multiplier. */
        uint32_t replicas = 1;
        bool busy = false;      ///< scheduler or a control op owns it
        bool dead = false;      ///< destroyed; waiters must bail out
    };

    void schedulerLoop();

    /** Find @p id and wait until it is not busy, then mark it busy and
     *  return it (the caller runs its op unlocked and must call
     *  release()). Null with @p err set if the session is unknown or
     *  destroyed while waiting. Caller holds @p lk. */
    std::shared_ptr<Session> acquireIdle(
        std::unique_lock<std::mutex> &lk, uint64_t id, std::string *err);
    void release(const std::shared_ptr<Session> &s);

    // Declared before sessions_ so it is destroyed after them: every
    // par engine holds a shared_ptr to it anyway, but keep the order
    // honest.
    std::shared_ptr<util::BspPool> pool_;
    obs::Counters counters_;
    std::unique_ptr<ArtifactStore> store_;
    ManagerOptions opt_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;    ///< scheduler: work arrived
    std::condition_variable doneCv_;    ///< clients: state advanced
    std::map<uint64_t, std::shared_ptr<Session>> sessions_;
    uint64_t nextId_ = 1;
    uint64_t lastScheduledId_ = 0;  ///< round-robin cursor
    bool stop_ = false;

    obs::Counter &ctrSessionsCreated_;
    obs::Counter &ctrSessionsDestroyed_;
    /** Sessions whose engine runs activity guards: the ones where
     *  makeEngine's probe found enough groups to skip. */
    obs::Counter &ctrSessionsGuarded_;
    obs::Counter &ctrCyclesExecuted_;
    /** Cycles x replica lanes: equals serve_cycles_executed on a host
     *  with only scalar sessions; gang sessions add R per cycle. */
    obs::Counter &ctrLaneCyclesExecuted_;
    obs::Counter &ctrSchedulerTurns_;

    std::thread scheduler_;
};

} // namespace parendi::serve

#endif // PARENDI_SERVE_SESSION_HH
