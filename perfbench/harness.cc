#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "ckpt/snapshot.hh"
#include "frontend/pnl.hh"
#include "rtl/interp.hh"
#include "util/logging.hh"

namespace perfbench {

using namespace parendi;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

bool
Ledger::check(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lk(mutex_);
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
}

uint64_t
Ledger::attempted() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return attempted_;
}

uint64_t
Ledger::failed() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return failed_;
}

uint64_t
laneFnv(const core::ArchState &st, uint32_t lane)
{
    const uint32_t lanes = st.lanes;
    core::ArchState one;
    one.cycles = st.cycles;
    one.lanes = 1;
    one.regs.reserve(st.regs.size());
    for (const auto &r : st.regs)
        one.regs.push_back({r[lane]});
    one.mems.reserve(st.mems.size());
    for (const auto &m : st.mems) {
        std::vector<rtl::BitVec> img;
        img.reserve(m.size() / lanes);
        for (size_t e = lane; e < m.size(); e += lanes)
            img.push_back(m[e]);
        one.mems.push_back(std::move(img));
    }
    one.inputs.reserve(st.inputs.size());
    for (const auto &p : st.inputs)
        one.inputs.push_back({p[lane]});
    return ckpt::packArchState(one).fnv();
}

Reference::Reference(const std::string &pnl,
                     std::vector<uint64_t> checkpoints, uint64_t peekGrid,
                     uint64_t peekHorizon)
    : grid_(peekGrid), horizon_(peekHorizon)
{
    // The reference runs the parsed design unoptimized and always-eval,
    // so the optimizer and the activity guards of the engines under
    // test are checked too.
    rtl::Interpreter ref(frontend::parsePnl(pnl));
    const rtl::Netlist &nl = ref.netlist();
    for (rtl::PortId p = 0; p < nl.numOutputs(); ++p)
        names_.push_back(nl.output(p).name);

    std::sort(checkpoints.begin(), checkpoints.end());
    size_t next = 0;
    uint64_t end = std::max(horizon_, checkpoints.empty()
                                          ? 0
                                          : checkpoints.back());
    for (uint64_t c = 0;; ) {
        if (c % grid_ == 0 && c <= horizon_) {
            std::vector<rtl::BitVec> row;
            for (const std::string &n : names_)
                row.push_back(ref.peek(n));
            outputs_.push_back(std::move(row));
        }
        while (next < checkpoints.size() && checkpoints[next] == c) {
            core::ArchState st;
            ref.exportArch(st);
            digests_[c] = {ckpt::archStateFnv(ref), laneFnv(st, 0)};
            ++next;
        }
        if (c >= end)
            break;
        uint64_t to = std::min(end, (c / grid_ + 1) * grid_);
        if (next < checkpoints.size())
            to = std::min(to, checkpoints[next]);
        ref.step(to - c);
        c = to;
    }
}

uint64_t
Reference::archFnv(uint64_t cycle) const
{
    auto it = digests_.find(cycle);
    if (it == digests_.end())
        panic("perfbench: no reference digest at cycle %llu",
              static_cast<unsigned long long>(cycle));
    return it->second.first;
}

uint64_t
Reference::imageFnv(uint64_t cycle) const
{
    auto it = digests_.find(cycle);
    if (it == digests_.end())
        panic("perfbench: no reference digest at cycle %llu",
              static_cast<unsigned long long>(cycle));
    return it->second.second;
}

const rtl::BitVec &
Reference::output(size_t port, uint64_t cycle) const
{
    if (cycle % grid_ || cycle > horizon_ || port >= names_.size())
        panic("perfbench: no reference output %zu at cycle %llu", port,
              static_cast<unsigned long long>(cycle));
    return outputs_[cycle / grid_][port];
}

bool
checkHash(Ledger &ledger, uint64_t got, uint64_t expected,
          const std::string &what)
{
    return ledger.check(got == expected, what);
}

bool
checkScalar(Ledger &ledger, const core::SimEngine &engine,
            const Reference &ref, const std::string &what)
{
    return checkHash(ledger, ckpt::archStateFnv(engine),
                     ref.archFnv(engine.cycles()),
                     what + " arch-state hash at cycle " +
                         std::to_string(engine.cycles()));
}

bool
checkLanes(Ledger &ledger, const core::SimEngine &engine,
           const Reference &ref, const std::string &what)
{
    core::ArchState st;
    bool ok = engine.exportArch(st);
    const uint64_t want = ok ? ref.imageFnv(st.cycles) : 0;
    for (uint32_t l = 0; ok && l < st.lanes; ++l)
        ok = laneFnv(st, l) == want;
    return ledger.check(ok, what + " lane hashes at cycle " +
                                std::to_string(engine.cycles()));
}

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<uint32_t> tlsOpen;

} // namespace

Tracer::Tracer() : start_(Clock::now()) {}

uint32_t
Tracer::open(const std::string &name, uint32_t session)
{
    Span s;
    s.parent = tlsOpen.empty() ? 0 : tlsOpen.back();
    s.session = session;
    s.name = name;
    s.t0 = secondsSince(start_);
    std::lock_guard<std::mutex> lk(mutex_);
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back(std::move(s));
    tlsOpen.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::close(uint32_t id)
{
    double t1 = secondsSince(start_);
    if (!tlsOpen.empty() && tlsOpen.back() == id)
        tlsOpen.pop_back();
    std::lock_guard<std::mutex> lk(mutex_);
    spans_[id - 1].t1 = t1;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::meanSelfSeconds() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    // Children of one span run on its thread, one after another, so
    // the time they cover is the sum of their durations.
    std::vector<double> childCover(spans_.size() + 1, 0.0);
    for (const Span &s : spans_)
        childCover[s.parent] += s.t1 - s.t0;
    std::map<std::string, std::pair<double, uint64_t>> acc;
    for (const Span &s : spans_) {
        auto &a = acc[s.name];
        a.first += std::max(0.0, s.t1 - s.t0 - childCover[s.id]);
        ++a.second;
    }
    std::map<std::string, double> out;
    for (const auto &[name, a] : acc)
        out[name] = a.first / double(a.second);
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &out) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n")
            << strprintf("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%u,\"parent\":%u}}",
                         s.name.c_str(), s.session, s.t0 * 1e6,
                         (s.t1 - s.t0) * 1e6, s.id, s.parent);
    }
    out << "\n]}\n";
}

} // namespace perfbench
