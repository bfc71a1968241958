#include "serve/session.hh"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "core/engine.hh"
#include "rtl/cgen.hh"
#include "util/logging.hh"
#include "x86/parallel.hh"

namespace parendi::serve {

SessionManager::SessionManager(ManagerOptions opt)
    : opt_(std::move(opt)),
      ctrSessionsCreated_(counters_.get("sessions_created")),
      ctrSessionsDestroyed_(counters_.get("sessions_destroyed")),
      ctrSessionsGuarded_(counters_.get("sessions_guarded")),
      ctrCyclesExecuted_(counters_.get("serve_cycles_executed")),
      ctrLaneCyclesExecuted_(
          counters_.get("serve_lane_cycles_executed")),
      ctrSchedulerTurns_(counters_.get("scheduler_turns"))
{
    uint32_t threads = opt_.poolThreads
        ? opt_.poolThreads
        : std::max(1u, std::thread::hardware_concurrency());
    if (threads >= 2)
        pool_ = std::make_shared<util::BspPool>(threads);
    store_ = std::make_unique<ArtifactStore>(opt_.store, counters_);
    scheduler_ = std::thread([this] { schedulerLoop(); });
}

SessionManager::~SessionManager()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    doneCv_.notify_all();
    scheduler_.join();
}

uint64_t
SessionManager::createSession(const std::string &designSpec,
                              const SessionOptions &sopt,
                              std::string *err, bool *native)
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (sessions_.size() >= opt_.maxSessions) {
            if (err)
                *err = strprintf("session limit reached (%u)",
                                 opt_.maxSessions);
            return 0;
        }
    }

    core::EngineKind kind;
    if (!core::tryParseEngineKind(sopt.engine, kind)) {
        if (err)
            *err = strprintf(
                "unknown engine '%s' (expected interp|ipu|par|cgen)",
                sopt.engine.c_str());
        return 0;
    }

    // The expensive part — design resolution and engine construction
    // (which may JIT through the artifact store) — runs outside the
    // manager lock so it never stalls the scheduler or other clients.
    // A shared-pool engine constructs without touching the pool (see
    // ParConfig::pool), so this is safe against a concurrent step.
    std::unique_ptr<core::SimEngine> engine;
    try {
        if (!opt_.resolveDesign)
            fatal("this host has no design resolver");
        rtl::Netlist nl = opt_.resolveDesign(designSpec);
        core::EngineOptions eopt;
        eopt.kind = kind;
        eopt.threads = sopt.threads;
        eopt.cgen = sopt.cgen;
        eopt.batch = sopt.batch;
        eopt.replicas = sopt.replicas;
        eopt.pool = kind == core::EngineKind::Par ? pool_ : nullptr;
        eopt.artifacts = store_.get();
        engine = core::makeEngine(std::move(nl), eopt);
    } catch (const FatalError &e) {
        if (err)
            *err = e.what();
        return 0;
    }

    bool isNative = false;
    if (auto *par = dynamic_cast<rtl::ParallelInterpreter *>(engine.get()))
        isNative = par->native();
    else if (auto *cg = dynamic_cast<rtl::CgenInterpreter *>(engine.get()))
        isNative = cg->native();
    if (native)
        *native = isNative;

    auto session = std::make_shared<Session>();
    session->handle = std::make_unique<core::SessionHandle>(
        std::move(engine), designSpec);
    // Ask the engine, not the request: event/ipu force replicas to 1,
    // and lane-cycle accounting must bill what actually runs.
    session->replicas = session->handle->engine().replicas();

    std::lock_guard<std::mutex> lk(mutex_);
    if (sessions_.size() >= opt_.maxSessions) {
        if (err)
            *err = strprintf("session limit reached (%u)",
                             opt_.maxSessions);
        return 0;
    }
    session->id = nextId_++;
    session->cyclesSnapshot = session->handle->cycles();
    sessions_[session->id] = session;
    ctrSessionsCreated_.add();
    if (session->handle->engine().activityEnabled())
        ctrSessionsGuarded_.add();
    return session->id;
}

void
SessionManager::schedulerLoop()
{
    auto runnable = [](const Session &s) {
        return s.pending > 0 && !s.busy && !s.dead;
    };
    std::unique_lock<std::mutex> lk(mutex_);
    while (!stop_) {
        // Next runnable session in cyclic id order after the cursor.
        std::shared_ptr<Session> next;
        for (auto it = sessions_.upper_bound(lastScheduledId_);
             it != sessions_.end() && !next; ++it)
            if (runnable(*it->second))
                next = it->second;
        for (auto it = sessions_.begin();
             !next && it != sessions_.end() &&
             it->first <= lastScheduledId_;
             ++it)
            if (runnable(*it->second))
                next = it->second;
        if (!next) {
            workCv_.wait(lk);
            continue;
        }

        // DRR: this visit grants one quantum of credit; the session
        // runs as much of its credit as it has work for and carries
        // the rest (reset when it goes idle, so credit cannot be
        // hoarded across idle periods).
        lastScheduledId_ = next->id;
        next->deficit += opt_.quantumCycles;
        uint64_t slice = std::min(next->deficit, next->pending);
        next->busy = true;
        lk.unlock();

        // The only place the shared pool is ever dispatched on.
        next->handle->engine().step(slice);
        uint64_t cyc = next->handle->cycles();

        lk.lock();
        next->pending -= slice;
        next->done += slice;
        next->deficit -= slice;
        if (next->pending == 0)
            next->deficit = 0;
        next->cyclesSnapshot = cyc;
        next->busy = false;
        ctrCyclesExecuted_.add(slice);
        ctrLaneCyclesExecuted_.add(slice * next->replicas);
        ctrSchedulerTurns_.add();
        doneCv_.notify_all();
        workCv_.notify_all();
    }
}

bool
SessionManager::step(uint64_t id, uint64_t n, uint64_t *cyclesAfter,
                     std::string *err)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
        if (err)
            *err = strprintf("no such session %llu",
                             static_cast<unsigned long long>(id));
        return false;
    }
    auto s = it->second;
    s->pending += n;
    s->requested += n;
    const uint64_t target = s->requested;
    workCv_.notify_all();
    doneCv_.wait(lk, [&] {
        return s->done >= target || s->dead || stop_;
    });
    if (s->dead || (s->done < target && stop_)) {
        if (err)
            *err = s->dead ? "session destroyed while stepping"
                           : "host shutting down";
        return false;
    }
    if (cyclesAfter)
        *cyclesAfter = s->cyclesSnapshot;
    return true;
}

std::shared_ptr<SessionManager::Session>
SessionManager::acquireIdle(std::unique_lock<std::mutex> &lk,
                            uint64_t id, std::string *err)
{
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
        if (err)
            *err = strprintf("no such session %llu",
                             static_cast<unsigned long long>(id));
        return nullptr;
    }
    auto s = it->second;
    doneCv_.wait(lk, [&] { return !s->busy || s->dead || stop_; });
    if (s->dead || stop_) {
        if (err)
            *err = s->dead ? "session destroyed" : "host shutting down";
        return nullptr;
    }
    s->busy = true;
    return s;
}

void
SessionManager::release(const std::shared_ptr<Session> &s)
{
    std::lock_guard<std::mutex> lk(mutex_);
    s->busy = false;
    doneCv_.notify_all();
    workCv_.notify_all();
}

bool
SessionManager::poke(uint64_t id, const std::string &input,
                     const rtl::BitVec &value, std::string *err)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto s = acquireIdle(lk, id, err);
    if (!s)
        return false;
    lk.unlock();
    bool ok = true;
    try {
        s->handle->engine().poke(input, value);
    } catch (const FatalError &e) {
        ok = false;
        if (err)
            *err = e.what();
    }
    release(s);
    return ok;
}

bool
SessionManager::peek(uint64_t id, const std::string &output,
                     rtl::BitVec *out, std::string *err)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto s = acquireIdle(lk, id, err);
    if (!s)
        return false;
    lk.unlock();
    bool ok = true;
    try {
        *out = s->handle->engine().peek(output);
    } catch (const FatalError &e) {
        ok = false;
        if (err)
            *err = e.what();
    }
    release(s);
    return ok;
}

bool
SessionManager::peekRegister(uint64_t id, const std::string &reg,
                             rtl::BitVec *out, std::string *err)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto s = acquireIdle(lk, id, err);
    if (!s)
        return false;
    lk.unlock();
    bool ok = true;
    try {
        *out = s->handle->engine().peekRegister(reg);
    } catch (const FatalError &e) {
        ok = false;
        if (err)
            *err = e.what();
    }
    release(s);
    return ok;
}

bool
SessionManager::checkpoint(uint64_t id, std::string *blob,
                           std::string *err)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto s = acquireIdle(lk, id, err);
    if (!s)
        return false;
    lk.unlock();
    bool ok = true;
    try {
        std::ostringstream os;
        s->handle->checkpoint(os);
        *blob = os.str();
    } catch (const FatalError &e) {
        ok = false;
        if (err)
            *err = e.what();
    }
    release(s);
    return ok;
}

bool
SessionManager::restore(uint64_t id, const std::string &blob,
                        std::string *err)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto s = acquireIdle(lk, id, err);
    if (!s)
        return false;
    lk.unlock();
    bool ok = true;
    uint64_t cyc = 0;
    try {
        std::istringstream is(blob);
        core::restoreCheckpoint(s->handle->engine(), is);
        cyc = s->handle->cycles();
    } catch (const FatalError &e) {
        ok = false;
        if (err)
            *err = e.what();
    }
    {
        std::lock_guard<std::mutex> relk(mutex_);
        if (ok)
            s->cyclesSnapshot = cyc;
        s->busy = false;
    }
    doneCv_.notify_all();
    workCv_.notify_all();
    return ok;
}

bool
SessionManager::destroySession(uint64_t id, std::string *err)
{
    std::unique_lock<std::mutex> lk(mutex_);
    auto s = acquireIdle(lk, id, err);
    if (!s)
        return false;
    s->dead = true;
    s->busy = false;
    sessions_.erase(id);
    ctrSessionsDestroyed_.add();
    doneCv_.notify_all();
    workCv_.notify_all();
    return true;
}

size_t
SessionManager::numSessions() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return sessions_.size();
}

uint64_t
SessionManager::completedCycles(uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? 0 : it->second->done;
}

} // namespace parendi::serve
