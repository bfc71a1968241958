/**
 * @file
 * Self-test of the perfbench output checks: a run whose engine matches
 * the reference interpreter passes, and a corrupted expected hash (or
 * engine state) is counted as a failure and makes the run incorrect.
 * Exits 0 when every case behaves; prints the first case that did not.
 */

#include <cstdio>
#include <string>

#include "ckpt/snapshot.hh"
#include "core/engine.hh"
#include "designs/designs.hh"
#include "frontend/pnl.hh"
#include "harness.hh"
#include "rtl/bitvec.hh"
#include "rtl/opt.hh"

using namespace parendi;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "selftest: FAIL %s\n", what);
        ++failures;
    }
}

std::unique_ptr<core::SimEngine>
engine(const std::string &pnl, uint32_t lanes)
{
    core::EngineOptions eo;
    eo.kind = core::EngineKind::Interp;
    eo.replicas = lanes;
    return core::makeEngine(rtl::optimize(frontend::parsePnl(pnl)), eo);
}

} // namespace

int
main()
{
    designs::BitcoinConfig cfg;
    cfg.engines = 1;
    const std::string pnl = frontend::writePnl(designs::makeBitcoin(cfg));
    const uint64_t at = 300;
    Reference ref(pnl, {at}, 64, 256);

    auto eng = engine(pnl, 1);
    eng->step(at);
    {
        Ledger ledger;
        checkScalar(ledger, *eng, ref, "matching engine");
        expect(ledger.correct() && ledger.attempted() == 1,
               "a matching engine passes");
    }
    {
        // Corrupt the expected hash: the comparison checkScalar makes,
        // against a reference digest with one bit flipped.
        Ledger ledger;
        checkHash(ledger, ckpt::archStateFnv(*eng), ref.archFnv(at) ^ 1,
                  "corrupted expected hash");
        expect(!ledger.correct() && ledger.failed() == 1,
               "a corrupted expected hash counts as a failure");
    }
    {
        // An engine whose state differs in one register bit must not pass.
        Ledger ledger;
        auto off = engine(pnl, 1);
        off->step(at);
        core::ArchState st;
        off->exportArch(st);
        st.regs[0][0] = rtl::BitVec(st.regs[0][0].width(),
                                    st.regs[0][0].toUint64() ^ 1);
        off->importArch(st);
        checkScalar(ledger, *off, ref, "perturbed register");
        expect(!ledger.correct(), "a perturbed register is a failure");
    }
    {
        // Gang lanes: all equal passes; one perturbed lane fails.
        auto gang = engine(pnl, 4);
        gang->step(at);
        Ledger ok;
        checkLanes(ok, *gang, ref, "gang");
        expect(ok.correct(), "matching gang lanes pass");
        core::ArchState st;
        gang->exportArch(st);
        st.regs[0][3] = rtl::BitVec(st.regs[0][3].width(),
                                    st.regs[0][3].toUint64() ^ 1);
        gang->importArch(st);
        Ledger bad;
        checkLanes(bad, *gang, ref, "gang");
        expect(!bad.correct(), "one perturbed gang lane is a failure");
    }
    {
        // Serve peeks compare against the reference outputs.
        auto e = engine(pnl, 1);
        e->step(128);
        const auto &names = ref.outputNames();
        expect(!names.empty(), "the design has outputs");
        for (size_t p = 0; p < names.size(); ++p)
            expect(e->peek(names[p]) == ref.output(p, 128),
                   "engine outputs match the reference table");
    }
    if (failures == 0)
        std::printf("perfbench selftest: ok\n");
    return failures ? 1 : 0;
}
