/**
 * @file
 * Building blocks of the perfbench driver that the self-test also
 * exercises: output checking against the reference interpreter with
 * failure accounting, the in-memory span tracer of the traced run,
 * and small statistics helpers.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "rtl/bitvec.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** The value below which @p q (0..1) of @p v lies, nearest-rank. */
double percentile(std::vector<double> v, double q);

/**
 * Operations attempted and failed in one run. Every timed slice,
 * checkpoint round trip, serve request and output comparison is one
 * attempted operation; a wrong output, an error status or a refused
 * request is one failure. A run is correct only with no failures.
 */
class Ledger
{
  public:
    /** Count one operation; false (and a message on stderr) when it
     *  failed. Thread-safe. */
    bool check(bool ok, const std::string &what);

    uint64_t attempted() const;
    uint64_t failed() const;
    bool correct() const { return failed() == 0; }

  private:
    mutable std::mutex mutex_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * The reference trajectory of a design on rtl::Interpreter, which every
 * engine result is checked against. The benchmark designs have no input
 * ports, so the trajectory is a function of the cycle count alone.
 * Recorded at construction: the ckpt::archStateFnv digest and the
 * per-lane packed-image digest at each requested cycle, and every
 * output port's value at each multiple of @p peekGrid up to
 * @p peekHorizon (what serve peeks are compared to).
 */
class Reference
{
  public:
    Reference(const std::string &pnl, std::vector<uint64_t> checkpoints,
              uint64_t peekGrid, uint64_t peekHorizon);

    /** archStateFnv of the reference at @p cycle (a recorded point). */
    uint64_t archFnv(uint64_t cycle) const;

    /** Packed-image digest of one lane at @p cycle (see laneFnv). */
    uint64_t imageFnv(uint64_t cycle) const;

    /** Output @p port's value at @p cycle, a multiple of the grid. */
    const parendi::rtl::BitVec &output(size_t port, uint64_t cycle) const;

    uint64_t peekHorizon() const { return horizon_; }
    const std::vector<std::string> &outputNames() const { return names_; }

  private:
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> digests_;
    uint64_t grid_;
    uint64_t horizon_;
    std::vector<std::string> names_;
    /** [cycle / grid][port] */
    std::vector<std::vector<parendi::rtl::BitVec>> outputs_;
};

/** Packed-image FNV of lane @p lane of @p st: the digest a scalar
 *  engine in the same state has, so gang lanes compare to the scalar
 *  reference one by one. */
uint64_t laneFnv(const parendi::core::ArchState &st, uint32_t lane);

/** Count one comparison of a digest with the reference's. */
bool checkHash(Ledger &ledger, uint64_t got, uint64_t expected,
               const std::string &what);

/** Check @p engine's archStateFnv against the reference at its current
 *  cycle; scalar engines only. */
bool checkScalar(Ledger &ledger, const parendi::core::SimEngine &engine,
                 const Reference &ref, const std::string &what);

/** Check every lane of a gang @p engine against the reference. */
bool checkLanes(Ledger &ledger, const parendi::core::SimEngine &engine,
                const Reference &ref, const std::string &what);

/**
 * In-memory span recorder of the traced run: one span per call into a
 * layer with its name, start, end, parent span and session id. Spans
 * are written out once, when the run ends. Thread-safe; the parent of
 * a span is the innermost open span of the same thread.
 */
class Tracer
{
  public:
    struct Span
    {
        uint32_t id = 0;
        uint32_t parent = 0;    ///< 0 = root
        uint32_t session = 0;
        std::string name;
        double t0 = 0;          ///< seconds since the tracer started
        double t1 = 0;
    };

    Tracer();

    uint32_t open(const std::string &name, uint32_t session);
    void close(uint32_t id);

    /** Mean self time per call of every span name, seconds: a span's
     *  duration minus the time its child spans cover. */
    std::map<std::string, double> meanSelfSeconds() const;

    /** Chrome trace-event JSON ("X" events, one tid per session). */
    void writeChromeTrace(std::ostream &out) const;

    size_t size() const;

  private:
    Clock::time_point start_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;   ///< index = id - 1
};

/** RAII span; a null tracer makes it a no-op (the untraced run). */
class Scope
{
  public:
    Scope(Tracer *tracer, const std::string &name, uint32_t session = 0)
        : tracer_(tracer), id_(tracer ? tracer->open(name, session) : 0)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
