#include "rtl/cgen.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/logging.hh"

// dlopen()/dlsym() gate: the whole JIT pipeline needs a POSIX dynamic
// loader. Elsewhere CgenModule::compile() warns and returns nullptr,
// so every caller falls back to the interpreter.
#if __has_include(<dlfcn.h>)
#include <dlfcn.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#define PARENDI_CGEN_HAVE_DLOPEN 1
extern char **environ;
#else
#define PARENDI_CGEN_HAVE_DLOPEN 0
#endif

namespace parendi::rtl {

namespace {

constexpr uint32_t
nw(uint32_t width)
{
    return (width + 63) / 64;
}

uint64_t
topMaskOf(uint16_t width)
{
    uint32_t r = width & 63;
    return r ? (uint64_t{1} << r) - 1 : ~uint64_t{0};
}

std::string
hexConst(uint64_t v)
{
    return strprintf("0x%llxull", static_cast<unsigned long long>(v));
}

/** " & <mask>" when the result width needs masking, "" when the mask
 *  would be all-ones (the emit-time equivalent of topMask()). */
std::string
maskAnd(uint16_t width)
{
    return (width & 63) ? " & " + hexConst(topMaskOf(width)) : "";
}

std::string
S(uint32_t slot)
{
    return "s[" + std::to_string(slot) + "]";
}

std::string
P(uint32_t slot)
{
    return "s + " + std::to_string(slot);
}

/**
 * Word-loop helpers prepended to every generated TU. Each is a
 * verbatim port of the matching eval.cc kernel (addVal, shlVal, ucmp,
 * ...), so the emitted code computes exactly what the interpreter
 * computes — including the saturating wide-read semantics for shift
 * amounts and memory addresses, and the slot normalization invariant
 * (bits above a value's width stay zero). Call sites pass widths and
 * word counts as literals, so -O2 specializes and unrolls the loops
 * per instruction.
 */
const char *const kPreamble = R"__(// Generated by parendi rtl::cgen. Do not edit.
#include <cstdint>
#include <cstring>

typedef unsigned __int128 pw_u128;

static inline uint64_t pw_sat(const uint64_t *w, uint64_t n) {
    for (uint64_t i = 1; i < n; ++i)
        if (w[i]) return ~(uint64_t)0;
    return w[0];
}
static inline int64_t pw_sx(uint64_t v, unsigned w) {
    unsigned sh = 64u - w;
    return (int64_t)(v << sh) >> sh;
}
static inline uint64_t pw_par(uint64_t v) {
    v ^= v >> 32; v ^= v >> 16; v ^= v >> 8;
    v ^= v >> 4; v ^= v >> 2; v ^= v >> 1;
    return v & 1;
}
static inline void pw_copy(uint64_t *d, const uint64_t *a, uint64_t n) {
    std::memcpy(d, a, n * sizeof(uint64_t));
}
static inline void pw_zero(uint64_t *d, uint64_t n) {
    std::memset(d, 0, n * sizeof(uint64_t));
}
static inline int pw_neq(const uint64_t *a, const uint64_t *b,
                         uint64_t n) {
    return std::memcmp(a, b, n * sizeof(uint64_t)) != 0;
}
static inline void pw_not(uint64_t *d, const uint64_t *a, uint64_t n,
                          uint64_t m) {
    for (uint64_t i = 0; i < n; ++i)
        d[i] = ~a[i];
    d[n - 1] &= m;
}
static inline void pw_neg(uint64_t *d, const uint64_t *a, uint64_t n,
                          uint64_t m) {
    pw_u128 borrow = 0;
    for (uint64_t i = 0; i < n; ++i) {
        pw_u128 v = (pw_u128)0 - a[i] - borrow;
        d[i] = (uint64_t)v;
        borrow = a[i] || borrow ? 1 : 0;
    }
    d[n - 1] &= m;
}
static inline uint64_t pw_redand(const uint64_t *a, uint64_t na,
                                 uint64_t m) {
    bool all = true;
    for (uint64_t i = 0; i + 1 < na; ++i)
        all &= a[i] == ~(uint64_t)0;
    all &= a[na - 1] == m;
    return all;
}
static inline uint64_t pw_iszero(const uint64_t *a, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i)
        if (a[i]) return 0;
    return 1;
}
static inline uint64_t pw_redxor(const uint64_t *a, uint64_t n) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i)
        acc ^= a[i];
    return pw_par(acc);
}
static inline void pw_and(uint64_t *d, const uint64_t *a,
                          const uint64_t *b, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i)
        d[i] = a[i] & b[i];
}
static inline void pw_or(uint64_t *d, const uint64_t *a,
                         const uint64_t *b, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i)
        d[i] = a[i] | b[i];
}
static inline void pw_xor(uint64_t *d, const uint64_t *a,
                          const uint64_t *b, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i)
        d[i] = a[i] ^ b[i];
}
static inline void pw_add(uint64_t *d, const uint64_t *a,
                          const uint64_t *b, uint64_t n, uint64_t m) {
    pw_u128 carry = 0;
    for (uint64_t i = 0; i < n; ++i) {
        pw_u128 v = carry + a[i] + b[i];
        d[i] = (uint64_t)v;
        carry = v >> 64;
    }
    d[n - 1] &= m;
}
static inline void pw_sub(uint64_t *d, const uint64_t *a,
                          const uint64_t *b, uint64_t n, uint64_t m) {
    pw_u128 borrow = 0;
    for (uint64_t i = 0; i < n; ++i) {
        pw_u128 v = (pw_u128)a[i] - b[i] - borrow;
        d[i] = (uint64_t)v;
        borrow = (v >> 64) ? 1 : 0;
    }
    d[n - 1] &= m;
}
static inline void pw_mul(uint64_t *d, const uint64_t *a,
                          const uint64_t *b, uint64_t n, uint64_t m) {
    uint64_t tmp[64] = {0};
    for (uint64_t i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        pw_u128 carry = 0;
        for (uint64_t j = 0; i + j < n; ++j) {
            pw_u128 cur = tmp[i + j] + carry + (pw_u128)a[i] * b[j];
            tmp[i + j] = (uint64_t)cur;
            carry = cur >> 64;
        }
    }
    pw_copy(d, tmp, n);
    d[n - 1] &= m;
}
static inline void pw_shl(uint64_t *d, const uint64_t *a, uint64_t amt,
                          uint64_t w, uint64_t n, uint64_t m) {
    if (amt >= w) {
        pw_zero(d, n);
        return;
    }
    uint64_t ws = amt >> 6, bs = amt & 63;
    for (uint64_t i = n; i-- > 0;) {
        uint64_t hi = i >= ws ? a[i - ws] : 0;
        uint64_t lo = (bs && i > ws) ? a[i - ws - 1] : 0;
        d[i] = bs ? (hi << bs) | (lo >> (64 - bs)) : hi;
    }
    d[n - 1] &= m;
}
static inline void pw_shr(uint64_t *d, const uint64_t *a, uint64_t amt,
                          uint64_t w, uint64_t n) {
    if (amt >= w) {
        pw_zero(d, n);
        return;
    }
    uint64_t ws = amt >> 6, bs = amt & 63;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t lo = i + ws < n ? a[i + ws] : 0;
        uint64_t hi = (bs && i + ws + 1 < n) ? a[i + ws + 1] : 0;
        d[i] = bs ? (lo >> bs) | (hi << (64 - bs)) : lo;
    }
}
static inline void pw_sra(uint64_t *d, const uint64_t *a, uint64_t amt,
                          uint64_t w, uint64_t n, uint64_t m) {
    bool sign = (a[(w - 1) >> 6] >> ((w - 1) & 63)) & 1;
    if (amt >= w) {
        for (uint64_t i = 0; i < n; ++i)
            d[i] = sign ? ~(uint64_t)0 : 0;
        d[n - 1] &= m;
        return;
    }
    pw_shr(d, a, amt, w, n);
    if (sign && amt > 0)
        for (uint64_t bit = w - amt; bit < w; ++bit)
            d[bit >> 6] |= (uint64_t)1 << (bit & 63);
}
static inline int pw_ucmp(const uint64_t *a, const uint64_t *b,
                          uint64_t n) {
    for (uint64_t i = n; i-- > 0;) {
        if (a[i] < b[i]) return -1;
        if (a[i] > b[i]) return 1;
    }
    return 0;
}
static inline int pw_scmp(const uint64_t *a, const uint64_t *b,
                          uint64_t w, uint64_t n) {
    uint64_t sbit = w - 1;
    bool sa = (a[sbit >> 6] >> (sbit & 63)) & 1;
    bool sb = (b[sbit >> 6] >> (sbit & 63)) & 1;
    if (sa != sb)
        return sa ? -1 : 1;
    return pw_ucmp(a, b, n);
}
static inline void pw_concat(uint64_t *d, const uint64_t *a,
                             const uint64_t *b, uint64_t wb, uint64_t na,
                             uint64_t nb, uint64_t n, uint64_t m) {
    pw_copy(d, b, nb);
    for (uint64_t i = nb; i < n; ++i)
        d[i] = 0;
    uint64_t ws = wb >> 6, bs = wb & 63;
    for (uint64_t i = 0; i < na; ++i) {
        uint64_t lo = i + ws;
        if (lo < n)
            d[lo] |= bs ? (a[i] << bs) : a[i];
        if (bs && lo + 1 < n)
            d[lo + 1] |= a[i] >> (64 - bs);
    }
    d[n - 1] &= m;
}
static inline void pw_slice(uint64_t *d, const uint64_t *a, uint64_t lsb,
                            uint64_t na, uint64_t n, uint64_t m) {
    uint64_t ws = lsb >> 6, bs = lsb & 63;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t lo = i + ws < na ? a[i + ws] : 0;
        uint64_t hi = (bs && i + ws + 1 < na) ? a[i + ws + 1] : 0;
        d[i] = bs ? (lo >> bs) | (hi << (64 - bs)) : lo;
    }
    d[n - 1] &= m;
}
static inline void pw_zext(uint64_t *d, const uint64_t *a, uint64_t na,
                           uint64_t n) {
    pw_copy(d, a, na);
    for (uint64_t i = na; i < n; ++i)
        d[i] = 0;
}
static inline void pw_sext(uint64_t *d, const uint64_t *a, uint64_t wa,
                           uint64_t w, uint64_t na, uint64_t n,
                           uint64_t m) {
    pw_copy(d, a, na);
    bool sign = (a[(wa - 1) >> 6] >> ((wa - 1) & 63)) & 1;
    for (uint64_t i = na; i < n; ++i)
        d[i] = sign ? ~(uint64_t)0 : 0;
    if (sign)
        for (uint64_t bit = wa; bit < (na << 6) && bit < w; ++bit)
            d[bit >> 6] |= (uint64_t)1 << (bit & 63);
    d[n - 1] &= m;
}
static inline void pw_memread(uint64_t *d, const uint64_t *img,
                              uint64_t addr, uint64_t depth, uint64_t ew) {
    if (addr < depth)
        pw_copy(d, img + addr * ew, ew);
    else
        pw_zero(d, ew);
}
)__";

/**
 * Gang-mode additions to the preamble (emitted only when lanes > 1):
 * the PG_SIMD lane-loop pragma and word-strided helpers over the
 * lane-major SoA layout, where word i of the current lane lives at
 * ptr[i * S] (S = lane count). The multi-word generic tier gathers a
 * lane's value into a scalar staging buffer, reuses the pw_* kernels
 * verbatim, and scatters the result back, so gang semantics are the
 * scalar semantics by construction.
 */
const char *const kGangPreamble = R"__(
#if defined(__GNUC__) || defined(__clang__)
#define PG_SIMD _Pragma("omp simd")
#else
#define PG_SIMD
#endif

static inline void pg_gather(uint64_t *d, const uint64_t *a, uint64_t n,
                             uint64_t S) {
    for (uint64_t i = 0; i < n; ++i)
        d[i] = a[i * S];
}
static inline void pg_scatter(uint64_t *d, const uint64_t *a, uint64_t n,
                              uint64_t S) {
    for (uint64_t i = 0; i < n; ++i)
        d[i * S] = a[i];
}
static inline void pg_move(uint64_t *d, const uint64_t *a, uint64_t n,
                           uint64_t S) {
    for (uint64_t i = 0; i < n; ++i)
        d[i * S] = a[i * S];
}
static inline uint64_t pg_sat(const uint64_t *w, uint64_t n, uint64_t S) {
    for (uint64_t i = 1; i < n; ++i)
        if (w[i * S]) return ~(uint64_t)0;
    return w[0];
}
static inline void pg_memread(uint64_t *d, const uint64_t *img,
                              uint64_t addr, uint64_t depth, uint64_t ew,
                              uint64_t S, uint64_t l) {
    if (addr < depth) {
        const uint64_t *e = img + addr * ew * S + l;
        for (uint64_t i = 0; i < ew; ++i)
            d[i * S] = e[i * S];
    } else {
        for (uint64_t i = 0; i < ew; ++i)
            d[i * S] = 0;
    }
}
)__";

/** One lowered instruction -> one generated statement. W/fused tiers
 *  become single expressions with emit-time constant masks; the
 *  generic tier becomes pw_* helper calls with literal widths/word
 *  counts the compiler specializes. */
void
emitInstr(std::ostream &o, const EvalInstr &in, const EvalProgram &prog)
{
    const std::string d = S(in.dst);
    const std::string a = S(in.a);
    const std::string b = S(in.b);
    const std::string c = S(in.c);
    const uint32_t n = nw(in.width);
    const uint32_t na = nw(in.wa);
    const uint32_t nb = nw(in.wb);

    o << "    ";
    switch (in.op) {
        // -- Generic multi-word tier -----------------------------------
      case EvalOp::Not:
        o << "pw_not(" << P(in.dst) << ", " << P(in.a) << ", " << n << ", "
          << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::Neg:
        o << "pw_neg(" << P(in.dst) << ", " << P(in.a) << ", " << n << ", "
          << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::RedAnd:
        o << d << " = pw_redand(" << P(in.a) << ", " << na << ", "
          << hexConst(topMaskOf(in.wa)) << ");\n";
        break;
      case EvalOp::RedOr:
        o << d << " = !pw_iszero(" << P(in.a) << ", " << na << ");\n";
        break;
      case EvalOp::RedXor:
        o << d << " = pw_redxor(" << P(in.a) << ", " << na << ");\n";
        break;
      case EvalOp::And:
        o << "pw_and(" << P(in.dst) << ", " << P(in.a) << ", " << P(in.b)
          << ", " << n << ");\n";
        break;
      case EvalOp::Or:
        o << "pw_or(" << P(in.dst) << ", " << P(in.a) << ", " << P(in.b)
          << ", " << n << ");\n";
        break;
      case EvalOp::Xor:
        o << "pw_xor(" << P(in.dst) << ", " << P(in.a) << ", " << P(in.b)
          << ", " << n << ");\n";
        break;
      case EvalOp::Add:
        o << "pw_add(" << P(in.dst) << ", " << P(in.a) << ", " << P(in.b)
          << ", " << n << ", " << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::Sub:
        o << "pw_sub(" << P(in.dst) << ", " << P(in.a) << ", " << P(in.b)
          << ", " << n << ", " << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::Mul:
        o << "pw_mul(" << P(in.dst) << ", " << P(in.a) << ", " << P(in.b)
          << ", " << n << ", " << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::Shl:
        o << "pw_shl(" << P(in.dst) << ", " << P(in.a) << ", pw_sat("
          << P(in.b) << ", " << nb << "), " << in.width << ", " << n << ", "
          << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::Shr:
        o << "pw_shr(" << P(in.dst) << ", " << P(in.a) << ", pw_sat("
          << P(in.b) << ", " << nb << "), " << in.width << ", " << n
          << ");\n";
        break;
      case EvalOp::Sra:
        o << "pw_sra(" << P(in.dst) << ", " << P(in.a) << ", pw_sat("
          << P(in.b) << ", " << nb << "), " << in.width << ", " << n << ", "
          << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::Eq:
        o << d << " = pw_ucmp(" << P(in.a) << ", " << P(in.b) << ", " << na
          << ") == 0;\n";
        break;
      case EvalOp::Ne:
        o << d << " = pw_ucmp(" << P(in.a) << ", " << P(in.b) << ", " << na
          << ") != 0;\n";
        break;
      case EvalOp::Ult:
        o << d << " = pw_ucmp(" << P(in.a) << ", " << P(in.b) << ", " << na
          << ") < 0;\n";
        break;
      case EvalOp::Ule:
        o << d << " = pw_ucmp(" << P(in.a) << ", " << P(in.b) << ", " << na
          << ") <= 0;\n";
        break;
      case EvalOp::Slt:
        o << d << " = pw_scmp(" << P(in.a) << ", " << P(in.b) << ", "
          << in.wa << ", " << na << ") < 0;\n";
        break;
      case EvalOp::Sle:
        o << d << " = pw_scmp(" << P(in.a) << ", " << P(in.b) << ", "
          << in.wa << ", " << na << ") <= 0;\n";
        break;
      case EvalOp::Mux:
        o << "pw_copy(" << P(in.dst) << ", (" << a << " & 1) ? " << P(in.b)
          << " : " << P(in.c) << ", " << n << ");\n";
        break;
      case EvalOp::Concat:
        o << "pw_concat(" << P(in.dst) << ", " << P(in.a) << ", " << P(in.b)
          << ", " << in.wb << ", " << na << ", " << nb << ", " << n << ", "
          << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::Slice:
        o << "pw_slice(" << P(in.dst) << ", " << P(in.a) << ", " << in.aux
          << ", " << na << ", " << n << ", "
          << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::ZExt:
        o << "pw_zext(" << P(in.dst) << ", " << P(in.a) << ", " << na
          << ", " << n << ");\n";
        break;
      case EvalOp::SExt:
        o << "pw_sext(" << P(in.dst) << ", " << P(in.a) << ", " << in.wa
          << ", " << in.width << ", " << na << ", " << n << ", "
          << hexConst(topMaskOf(in.width)) << ");\n";
        break;
      case EvalOp::MemRead: {
        const ProgMem &pm = prog.mems[in.aux];
        o << "pw_memread(" << P(in.dst) << ", m[" << in.aux << "], pw_sat("
          << P(in.a) << ", " << na << "), " << pm.depth << "ull, "
          << pm.entryWords << ");\n";
        break;
      }

        // -- Specialized single-word tier ------------------------------
      case EvalOp::NotW:
        o << d << " = ~" << a << maskAnd(in.width) << ";\n";
        break;
      case EvalOp::NegW:
        o << d << " = (0 - " << a << ")" << maskAnd(in.width) << ";\n";
        break;
      case EvalOp::RedAndW:
        o << d << " = " << a << " == " << hexConst(topMaskOf(in.wa))
          << ";\n";
        break;
      case EvalOp::RedOrW:
        o << d << " = " << a << " != 0;\n";
        break;
      case EvalOp::RedXorW:
        o << d << " = pw_par(" << a << ");\n";
        break;
      case EvalOp::AndW:
        o << d << " = (" << a << " & " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::OrW:
        o << d << " = (" << a << " | " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::XorW:
        o << d << " = (" << a << " ^ " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::AddW:
        o << d << " = (" << a << " + " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::SubW:
        o << d << " = (" << a << " - " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::MulW:
        o << d << " = (" << a << " * " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::ShlW:
        o << "{ uint64_t t = " << b << "; " << d << " = t >= " << in.width
          << "u ? 0 : (" << a << " << t)" << maskAnd(in.width) << "; }\n";
        break;
      case EvalOp::ShrW:
        o << "{ uint64_t t = " << b << "; " << d << " = t >= " << in.width
          << "u ? 0 : " << a << " >> t; }\n";
        break;
      case EvalOp::SraW:
        o << "{ uint64_t t = " << b << "; if (t >= " << in.width
          << "u) t = " << (in.width - 1) << "u; " << d
          << " = (uint64_t)(pw_sx(" << a << ", " << in.width << ") >> t)"
          << maskAnd(in.width) << "; }\n";
        break;
      case EvalOp::EqW:
        o << d << " = " << a << " == " << b << ";\n";
        break;
      case EvalOp::NeW:
        o << d << " = " << a << " != " << b << ";\n";
        break;
      case EvalOp::UltW:
        o << d << " = " << a << " < " << b << ";\n";
        break;
      case EvalOp::UleW:
        o << d << " = " << a << " <= " << b << ";\n";
        break;
      case EvalOp::SltW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") < pw_sx(" << b
          << ", " << in.wa << ");\n";
        break;
      case EvalOp::SleW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") <= pw_sx(" << b
          << ", " << in.wa << ");\n";
        break;
      case EvalOp::MuxW:
        o << d << " = (" << a << " & 1) ? " << b << " : " << c << ";\n";
        break;
      case EvalOp::ConcatW:
        o << d << " = (" << a << " << " << in.wb << ") | " << b << ";\n";
        break;
      case EvalOp::SliceW: {
        uint32_t ws = in.aux >> 6;
        uint32_t bs = in.aux & 63;
        std::string lo = S(in.a + ws);
        std::string v;
        if (bs == 0)
            v = lo;
        else if (ws + 1 < na)
            v = "(" + lo + " >> " + std::to_string(bs) + ") | (" +
                S(in.a + ws + 1) + " << " + std::to_string(64 - bs) + ")";
        else
            v = lo + " >> " + std::to_string(bs);
        o << d << " = (" << v << ")" << maskAnd(in.width) << ";\n";
        break;
      }
      case EvalOp::ZExtW:
        o << d << " = " << a << ";\n";
        break;
      case EvalOp::SExtW:
        o << d << " = (uint64_t)pw_sx(" << a << ", " << in.wa << ")"
          << maskAnd(in.width) << ";\n";
        break;
      case EvalOp::MemReadW: {
        const ProgMem &pm = prog.mems[in.aux];
        o << d << " = " << a << " < " << pm.depth << "ull ? m[" << in.aux
          << "][" << a << "] : 0;\n";
        break;
      }

        // -- Fused superinstructions -----------------------------------
      case EvalOp::AndNotW:
        o << d << " = (" << a << " & ~" << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::OrNotW:
        o << d << " = (" << a << " | ~" << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::XorNotW:
        o << d << " = (" << a << " ^ ~" << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::EqMuxW:
        o << d << " = " << a << " == " << b << " ? " << c << " : "
          << S(in.aux) << ";\n";
        break;
      case EvalOp::NeMuxW:
        o << d << " = " << a << " != " << b << " ? " << c << " : "
          << S(in.aux) << ";\n";
        break;
      case EvalOp::UltMuxW:
        o << d << " = " << a << " < " << b << " ? " << c << " : "
          << S(in.aux) << ";\n";
        break;
      case EvalOp::UleMuxW:
        o << d << " = " << a << " <= " << b << " ? " << c << " : "
          << S(in.aux) << ";\n";
        break;
      case EvalOp::SltMuxW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") < pw_sx(" << b
          << ", " << in.wa << ") ? " << c << " : " << S(in.aux) << ";\n";
        break;
      case EvalOp::SleMuxW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") <= pw_sx(" << b
          << ", " << in.wa << ") ? " << c << " : " << S(in.aux) << ";\n";
        break;

      default:
        panic("cgen: cannot emit opcode %s", evalOpName(in.op));
    }
}

/**
 * Ops whose gang emission is a single per-lane statement (the
 * specialized single-word W tier and the fused superinstructions).
 * Consecutive instructions in this tier are batched into ONE `PG_SIMD
 * for (lane...)` loop over the whole run (emitGangLaneRun): inside one
 * lane iteration every slot access has a constant offset plus `l`, so
 * the compiler register-allocates intermediate values across the run
 * exactly as it does for the scalar emitter's straight-line code —
 * one loop per *instruction* would force every operand through the
 * slots array and cost ~an order of magnitude per lane. MemReadW is
 * excluded (data-dependent address: its lane gather would block
 * vectorization of the whole run).
 */
bool
gangSimdTier(EvalOp op)
{
    switch (op) {
      case EvalOp::NotW:
      case EvalOp::NegW:
      case EvalOp::RedAndW:
      case EvalOp::RedOrW:
      case EvalOp::RedXorW:
      case EvalOp::AndW:
      case EvalOp::OrW:
      case EvalOp::XorW:
      case EvalOp::AddW:
      case EvalOp::SubW:
      case EvalOp::MulW:
      case EvalOp::ShlW:
      case EvalOp::ShrW:
      case EvalOp::SraW:
      case EvalOp::EqW:
      case EvalOp::NeW:
      case EvalOp::UltW:
      case EvalOp::UleW:
      case EvalOp::SltW:
      case EvalOp::SleW:
      case EvalOp::MuxW:
      case EvalOp::ConcatW:
      case EvalOp::SliceW:
      case EvalOp::ZExtW:
      case EvalOp::SExtW:
      case EvalOp::AndNotW:
      case EvalOp::OrNotW:
      case EvalOp::XorNotW:
      case EvalOp::EqMuxW:
      case EvalOp::NeMuxW:
      case EvalOp::UltMuxW:
      case EvalOp::UleMuxW:
      case EvalOp::SltMuxW:
      case EvalOp::SleMuxW:
        return true;
      default:
        return false;
    }
}

/** One gangSimdTier instruction -> one per-lane statement, emitted
 *  inside an enclosing `for (uint64_t l ...)` lane loop. The
 *  expressions are exactly the scalar emitter's, over the lane-major
 *  layout (word w of slot t for lane l at s[(t + w) * L + l]). */
void
emitGangLaneStmt(std::ostream &o, const EvalInstr &in, uint32_t L)
{
    auto SL = [L](uint32_t slot) {
        return "s[" + std::to_string(uint64_t(slot) * L) + " + l]";
    };
    const std::string d = SL(in.dst);
    const std::string a = SL(in.a);
    const std::string b = SL(in.b);
    const std::string c = SL(in.c);
    const uint32_t na = nw(in.wa);
    o << "        ";

    switch (in.op) {
      case EvalOp::NotW:
        o << d << " = ~" << a << maskAnd(in.width) << ";\n";
        break;
      case EvalOp::NegW:
        o << d << " = (0 - " << a << ")" << maskAnd(in.width) << ";\n";
        break;
      case EvalOp::RedAndW:
        o << d << " = " << a << " == " << hexConst(topMaskOf(in.wa))
          << ";\n";
        break;
      case EvalOp::RedOrW:
        o << d << " = " << a << " != 0;\n";
        break;
      case EvalOp::RedXorW:
        o << d << " = pw_par(" << a << ");\n";
        break;
      case EvalOp::AndW:
        o << d << " = (" << a << " & " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::OrW:
        o << d << " = (" << a << " | " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::XorW:
        o << d << " = (" << a << " ^ " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::AddW:
        o << d << " = (" << a << " + " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::SubW:
        o << d << " = (" << a << " - " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::MulW:
        o << d << " = (" << a << " * " << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
        // Shifts are branchless so the lane loop if-converts: the
        // amount is wrapped to a defined shift (t & 63) and the
        // out-of-range case is zeroed with an all-ones/all-zero mask
        // (0 - (t < w)) instead of a ternary over the shift itself,
        // which the vectorizer must not speculate (UB for t >= 64).
      case EvalOp::ShlW:
        o << "{ uint64_t t = " << b << "; " << d << " = ((" << a
          << " << (t & 63))" << maskAnd(in.width)
          << ") & (0 - (uint64_t)(t < " << in.width << "u)); }\n";
        break;
      case EvalOp::ShrW:
        o << "{ uint64_t t = " << b << "; " << d << " = (" << a
          << " >> (t & 63)) & (0 - (uint64_t)(t < " << in.width
          << "u)); }\n";
        break;
      case EvalOp::SraW:
        o << "{ uint64_t t = " << b << "; t = t < " << in.width
          << "u ? t : " << (in.width - 1) << "u; " << d
          << " = (uint64_t)(pw_sx(" << a << ", " << in.width << ") >> t)"
          << maskAnd(in.width) << "; }\n";
        break;
      case EvalOp::EqW:
        o << d << " = " << a << " == " << b << ";\n";
        break;
      case EvalOp::NeW:
        o << d << " = " << a << " != " << b << ";\n";
        break;
      case EvalOp::UltW:
        o << d << " = " << a << " < " << b << ";\n";
        break;
      case EvalOp::UleW:
        o << d << " = " << a << " <= " << b << ";\n";
        break;
      case EvalOp::SltW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") < pw_sx("
          << b << ", " << in.wa << ");\n";
        break;
      case EvalOp::SleW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") <= pw_sx("
          << b << ", " << in.wa << ");\n";
        break;
      case EvalOp::MuxW:
        o << d << " = (" << a << " & 1) ? " << b << " : " << c << ";\n";
        break;
      case EvalOp::ConcatW:
        o << d << " = (" << a << " << " << in.wb << ") | " << b << ";\n";
        break;
      case EvalOp::SliceW: {
        uint32_t ws = in.aux >> 6;
        uint32_t bs = in.aux & 63;
        std::string lo = SL(in.a + ws);
        std::string v;
        if (bs == 0)
            v = lo;
        else if (ws + 1 < na)
            v = "(" + lo + " >> " + std::to_string(bs) + ") | (" +
                SL(in.a + ws + 1) + " << " + std::to_string(64 - bs) + ")";
        else
            v = lo + " >> " + std::to_string(bs);
        o << d << " = (" << v << ")" << maskAnd(in.width) << ";\n";
        break;
      }
      case EvalOp::ZExtW:
        o << d << " = " << a << ";\n";
        break;
      case EvalOp::SExtW:
        o << d << " = (uint64_t)pw_sx(" << a << ", " << in.wa << ")"
          << maskAnd(in.width) << ";\n";
        break;
      case EvalOp::AndNotW:
        o << d << " = (" << a << " & ~" << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::OrNotW:
        o << d << " = (" << a << " | ~" << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::XorNotW:
        o << d << " = (" << a << " ^ ~" << b << ")" << maskAnd(in.width)
          << ";\n";
        break;
      case EvalOp::EqMuxW:
        o << d << " = " << a << " == " << b << " ? " << c << " : "
          << SL(in.aux) << ";\n";
        break;
      case EvalOp::NeMuxW:
        o << d << " = " << a << " != " << b << " ? " << c << " : "
          << SL(in.aux) << ";\n";
        break;
      case EvalOp::UltMuxW:
        o << d << " = " << a << " < " << b << " ? " << c << " : "
          << SL(in.aux) << ";\n";
        break;
      case EvalOp::UleMuxW:
        o << d << " = " << a << " <= " << b << " ? " << c << " : "
          << SL(in.aux) << ";\n";
        break;
      case EvalOp::SltMuxW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") < pw_sx("
          << b << ", " << in.wa << ") ? " << c << " : " << SL(in.aux)
          << ";\n";
        break;
      case EvalOp::SleMuxW:
        o << d << " = pw_sx(" << a << ", " << in.wa << ") <= pw_sx("
          << b << ", " << in.wa << ") ? " << c << " : " << SL(in.aux)
          << ";\n";
        break;
      default:
        panic("cgen: op %s is not in the gang SIMD tier",
              evalOpName(in.op));
    }
}

/**
 * Gang variant of emitInstr for the ops NOT covered by
 * emitGangLaneStmt: one instruction -> one `for (lane = 0..R)` loop
 * over the lane-major layout. The multi-word generic tier gathers each
 * lane into a scalar staging buffer and reuses the pw_* helpers
 * verbatim; MemReadW stays a per-lane gather loop of its own.
 */
void
emitInstrGang(std::ostream &o, const EvalInstr &in, const EvalProgram &prog,
              uint32_t L)
{
    auto SL = [L](uint32_t slot) {
        return "s[" + std::to_string(uint64_t(slot) * L) + " + l]";
    };
    auto PL = [L](uint32_t slot) {
        return "s + " + std::to_string(uint64_t(slot) * L) + " + l";
    };
    const std::string d = SL(in.dst);
    const std::string a = SL(in.a);
    const std::string b = SL(in.b);
    const std::string c = SL(in.c);
    const uint32_t n = nw(in.width);
    const uint32_t na = nw(in.wa);
    const uint32_t nb = nw(in.wb);
    const std::string SS = std::to_string(L);
    const std::string loop =
        "    for (uint64_t l = 0; l < " + SS + "u; ++l) ";

    // Generic-tier gather/compute/scatter scaffolding.
    auto gatherA = [&]() {
        return "uint64_t ta[" + std::to_string(na) + "]; pg_gather(ta, " +
            PL(in.a) + ", " + std::to_string(na) + ", " + SS + "); ";
    };
    auto gatherB = [&]() {
        return "uint64_t tb[" + std::to_string(nb) + "]; pg_gather(tb, " +
            PL(in.b) + ", " + std::to_string(nb) + ", " + SS + "); ";
    };
    auto declD = [&]() {
        return "uint64_t td[" + std::to_string(n) + "]; ";
    };
    auto scatterD = [&]() {
        return " pg_scatter(" + PL(in.dst) + ", td, " + std::to_string(n) +
            ", " + SS + "); }\n";
    };
    // Unary multi-word: d = f(a).
    auto unary = [&](const std::string &call) {
        o << loop << "{ " << gatherA() << declD() << call << scatterD();
    };
    // Binary multi-word: d = f(a, b).
    auto binary = [&](const std::string &call) {
        o << loop << "{ " << gatherA() << gatherB() << declD() << call
          << scatterD();
    };
    // Scalar-result multi-word (reductions, compares): d = expr(ta, tb).
    auto scalarRes = [&](bool twoOps, const std::string &expr) {
        o << loop << "{ " << gatherA() << (twoOps ? gatherB() : "")
          << d << " = " << expr << "; }\n";
    };
    const std::string mask = hexConst(topMaskOf(in.width));
    const std::string nS = std::to_string(n);
    const std::string naS = std::to_string(na);
    const std::string nbS = std::to_string(nb);

    switch (in.op) {
        // -- Generic multi-word tier -----------------------------------
      case EvalOp::Not:
        unary("pw_not(td, ta, " + nS + ", " + mask + ");");
        break;
      case EvalOp::Neg:
        unary("pw_neg(td, ta, " + nS + ", " + mask + ");");
        break;
      case EvalOp::RedAnd:
        scalarRes(false, "pw_redand(ta, " + naS + ", " +
                             hexConst(topMaskOf(in.wa)) + ")");
        break;
      case EvalOp::RedOr:
        scalarRes(false, "!pw_iszero(ta, " + naS + ")");
        break;
      case EvalOp::RedXor:
        scalarRes(false, "pw_redxor(ta, " + naS + ")");
        break;
      case EvalOp::And:
        binary("pw_and(td, ta, tb, " + nS + ");");
        break;
      case EvalOp::Or:
        binary("pw_or(td, ta, tb, " + nS + ");");
        break;
      case EvalOp::Xor:
        binary("pw_xor(td, ta, tb, " + nS + ");");
        break;
      case EvalOp::Add:
        binary("pw_add(td, ta, tb, " + nS + ", " + mask + ");");
        break;
      case EvalOp::Sub:
        binary("pw_sub(td, ta, tb, " + nS + ", " + mask + ");");
        break;
      case EvalOp::Mul:
        binary("pw_mul(td, ta, tb, " + nS + ", " + mask + ");");
        break;
      case EvalOp::Shl:
        unary("pw_shl(td, ta, pg_sat(" + PL(in.b) + ", " + nbS + ", " +
              SS + "), " + std::to_string(in.width) + ", " + nS + ", " +
              mask + ");");
        break;
      case EvalOp::Shr:
        unary("pw_shr(td, ta, pg_sat(" + PL(in.b) + ", " + nbS + ", " +
              SS + "), " + std::to_string(in.width) + ", " + nS + ");");
        break;
      case EvalOp::Sra:
        unary("pw_sra(td, ta, pg_sat(" + PL(in.b) + ", " + nbS + ", " +
              SS + "), " + std::to_string(in.width) + ", " + nS + ", " +
              mask + ");");
        break;
      case EvalOp::Eq:
        scalarRes(true, "pw_ucmp(ta, tb, " + naS + ") == 0");
        break;
      case EvalOp::Ne:
        scalarRes(true, "pw_ucmp(ta, tb, " + naS + ") != 0");
        break;
      case EvalOp::Ult:
        scalarRes(true, "pw_ucmp(ta, tb, " + naS + ") < 0");
        break;
      case EvalOp::Ule:
        scalarRes(true, "pw_ucmp(ta, tb, " + naS + ") <= 0");
        break;
      case EvalOp::Slt:
        scalarRes(true, "pw_scmp(ta, tb, " + std::to_string(in.wa) +
                            ", " + naS + ") < 0");
        break;
      case EvalOp::Sle:
        scalarRes(true, "pw_scmp(ta, tb, " + std::to_string(in.wa) +
                            ", " + naS + ") <= 0");
        break;
      case EvalOp::Mux:
        o << loop << "pg_move(" << PL(in.dst) << ", ((" << a
          << " & 1) ? " << PL(in.b) << " : " << PL(in.c) << "), " << nS
          << ", " << SS << ");\n";
        break;
      case EvalOp::Concat:
        binary("pw_concat(td, ta, tb, " + std::to_string(in.wb) + ", " +
               naS + ", " + nbS + ", " + nS + ", " + mask + ");");
        break;
      case EvalOp::Slice:
        unary("pw_slice(td, ta, " + std::to_string(in.aux) + ", " + naS +
              ", " + nS + ", " + mask + ");");
        break;
      case EvalOp::ZExt:
        unary("pw_zext(td, ta, " + naS + ", " + nS + ");");
        break;
      case EvalOp::SExt:
        unary("pw_sext(td, ta, " + std::to_string(in.wa) + ", " +
              std::to_string(in.width) + ", " + naS + ", " + nS + ", " +
              mask + ");");
        break;
      case EvalOp::MemRead: {
        const ProgMem &pm = prog.mems[in.aux];
        o << loop << "pg_memread(" << PL(in.dst) << ", m[" << in.aux
          << "], pg_sat(" << PL(in.a) << ", " << naS << ", " << SS
          << "), " << pm.depth << "ull, " << pm.entryWords << ", " << SS
          << ", l);\n";
        break;
      }

      case EvalOp::MemReadW: {
        // A per-lane gather from the image: no PG_SIMD (the address is
        // data-dependent), but still one tight loop per instruction.
        const ProgMem &pm = prog.mems[in.aux];
        o << loop << "{ uint64_t t = " << a << "; " << d << " = t < "
          << pm.depth << "ull ? m[" << in.aux << "][t * " << SS
          << " + l] : 0; }\n";
        break;
      }

      default:
        panic("cgen: cannot emit opcode %s", evalOpName(in.op));
    }
}

/** Straight-line instruction count per generated chunk function.
 *  Optimization time per function grows faster than linearly with its
 *  size, so chunking bounds it, and chunks are what the split build
 *  spreads over units; call overhead is negligible at this
 *  granularity (see DESIGN.md for the set-up times that chose 128
 *  over 512). */
constexpr size_t kChunkInstrs = 128;

/** Chunk functions are external (so an entry in one unit can call a
 *  chunk in another) but hidden (so the .so exports only the entries). */
const char *const kHidden = "__attribute__((visibility(\"hidden\"))) ";

/**
 * The TU under construction: every top-level function goes to `body`
 * in text order, bracketed by open()/close() so the split build gets
 * its spans and weights from the emitter instead of re-parsing text;
 * chunk functions, and the act entries the unguarded wrappers call,
 * are also declared in `decls`, which follows the preamble in every
 * unit.
 */
struct TuWriter
{
    std::ostringstream body;
    std::ostringstream decls;
    std::vector<CgenFunction> funcs;

    std::ostream &
    open(bool chunk)
    {
        CgenFunction f;
        f.begin = static_cast<size_t>(body.tellp());
        f.chunk = chunk;
        funcs.push_back(f);
        return body;
    }

    /** Open chunk function @p sig ("<ret> <name>(<params>)"). */
    std::ostream &
    openChunk(const std::string &sig)
    {
        decls << kHidden << sig << ";\n";
        return open(true) << "\n" << kHidden << sig << "\n{\n";
    }

    void
    close()
    {
        funcs.back().end = static_cast<size_t>(body.tellp());
    }
};

const char *
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

std::string
resolveCxx(const CgenOptions &opt)
{
    if (!opt.cxx.empty())
        return opt.cxx;
    return envOr("PARENDI_CXX", envOr("CXX", "c++"));
}

std::string
resolveBuildDir(const CgenOptions &opt)
{
    if (!opt.buildDir.empty())
        return opt.buildDir;
    std::string dflt = std::string(envOr("TMPDIR", "/tmp")) +
        "/parendi-cgen";
    return envOr("PARENDI_CGEN_DIR", dflt.c_str());
}

#if PARENDI_CGEN_HAVE_DLOPEN
/** Start `/bin/sh -c @p command`; -1 if it cannot be started. */
pid_t
spawnShell(const std::string &command)
{
    const char *argv[] = {"sh", "-c", command.c_str(), nullptr};
    pid_t pid = -1;
    int rc = posix_spawn(&pid, "/bin/sh", nullptr, nullptr,
                         const_cast<char *const *>(argv), environ);
    return rc == 0 ? pid : -1;
}

/** Reap @p pid (from spawnShell); its wait status, 0 on success and
 *  -1 when it never started or cannot be reaped. */
int
waitShell(pid_t pid)
{
    if (pid < 0)
        return -1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return -1;
    return status;
}
#endif

} // namespace

uint64_t
cgenHash(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : bytes) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
cgenObjectName(uint64_t key)
{
    return strprintf("parendi_%016llx.so",
                     static_cast<unsigned long long>(key));
}

std::string
cgenDebugSourcePath(const std::string &objectPath)
{
    return std::filesystem::path(objectPath).replace_extension(".cc").string();
}

namespace {

/**
 * The default ArtifactCache: one `.so` per key under a directory, a
 * hit iff the file exists. No eviction, no cross-thread single-flight
 * beyond the builder's atomic-rename publish (two racing processes may
 * both compile; both publish identical bytes).
 */
class DirArtifactCache : public ArtifactCache
{
  public:
    DirArtifactCache(std::string dir, bool reuse)
        : dir_(std::move(dir)), reuse_(reuse)
    {
    }

    std::string
    acquire(uint64_t key,
            const std::function<bool(const std::string &)> &build)
        override
    {
        std::string so = dir_ + "/" + cgenObjectName(key);
        std::error_code ec;
        if (reuse_ && std::filesystem::exists(so, ec) && !ec)
            return so;
        return build(so) ? so : std::string();
    }

  private:
    std::string dir_;
    bool reuse_;
};

} // namespace

/** Port of EvalState::commitWrites(): every deferred write port, in
 *  port order, with the same saturating wide-address read and
 *  out-of-range drop. Gang (@p L > 1) applies each port per lane over
 *  the lane-major layout (addresses diverge across lanes). */
static void
emitCommit(TuWriter &tu, size_t p, const EvalProgram &prog, uint32_t L)
{
    std::ostream &o = tu.open(false);
    o << "\nextern \"C\" void parendi_commit_" << p
      << "(uint64_t *s, uint64_t *const *m)\n{\n"
      << "    (void)s;\n    (void)m;\n";
    auto SL = [L](uint32_t slot) {
        return "s[" + std::to_string(uint64_t(slot) * L) + " + l]";
    };
    auto PL = [L](uint32_t slot) {
        return "s + " + std::to_string(uint64_t(slot) * L) + " + l";
    };
    for (const ProgWrite &w : prog.writes) {
        const ProgMem &pm = prog.mems[w.memIndex];
        if (L > 1) {
            o << "    for (uint64_t l = 0; l < " << L << "u; ++l) {\n"
              << "        if (!(" << SL(w.en) << " & 1)) continue;\n"
              << "        uint64_t a = ";
            if (nw(w.addrWidth) == 1)
                o << SL(w.addr);
            else
                o << "pg_sat(" << PL(w.addr) << ", " << nw(w.addrWidth)
                  << ", " << L << ")";
            o << ";\n        if (a >= " << pm.depth << "ull) continue;\n";
            if (pm.entryWords == 1)
                o << "        m[" << w.memIndex << "][a * " << L
                  << " + l] = " << SL(w.data) << ";\n";
            else
                o << "        pg_move(m[" << w.memIndex << "] + a * "
                  << pm.entryWords << " * " << L << " + l, " << PL(w.data)
                  << ", " << pm.entryWords << ", " << L << ");\n";
            o << "    }\n";
            continue;
        }
        o << "    if (" << S(w.en) << " & 1) {\n        uint64_t a = ";
        if (nw(w.addrWidth) == 1)
            o << S(w.addr);
        else
            o << "pw_sat(" << P(w.addr) << ", " << nw(w.addrWidth)
              << ")";
        o << ";\n        if (a < " << pm.depth << "ull)\n";
        if (pm.entryWords == 1)
            o << "            m[" << w.memIndex << "][a] = "
              << S(w.data) << ";\n";
        else
            o << "            pw_copy(m[" << w.memIndex << "] + a * "
              << pm.entryWords << ", " << P(w.data) << ", "
              << pm.entryWords << ");\n";
        o << "    }\n";
    }
    o << "}\n";
    tu.close();
}

/** Port of EvalState::latchRegisters(): next -> cur for owned
 *  registers. Adjacent registers whose slots are contiguous merge into
 *  one copy; the double-buffer staging pass is only emitted when some
 *  next slot actually overlaps some cur slot (the swap case), which
 *  the emitter can decide ahead of time. */
static void
emitLatch(TuWriter &tu, size_t p, const EvalProgram &prog, uint32_t L)
{
    struct Run
    {
        uint32_t next, cur, words;
    };
    std::vector<Run> runs;
    for (const ProgReg &r : prog.regs) {
        if (!r.owned || r.next == kNoSlot)
            continue;
        uint32_t w = nw(r.width);
        if (!runs.empty() &&
            runs.back().next + runs.back().words == r.next &&
            runs.back().cur + runs.back().words == r.cur)
            runs.back().words += w;
        else
            runs.push_back({r.next, r.cur, w});
    }
    bool overlap = false;
    uint32_t total = 0;
    for (const Run &a : runs) {
        total += a.words;
        for (const Run &b : runs)
            if (a.next < b.cur + b.words && b.cur < a.next + a.words)
                overlap = true;
    }

    // Lane-major layout keeps each run's words-across-lanes block
    // contiguous, so gang latch is the scalar latch with every offset
    // and word count scaled by L (identical output at L == 1).
    auto PLL = [L](uint32_t slot) {
        return "s + " + std::to_string(uint64_t(slot) * L);
    };
    std::ostream &o = tu.open(false);
    o << "\nextern \"C\" void parendi_latch_" << p
      << "(uint64_t *s, uint64_t *const *m)\n{\n"
      << "    (void)s;\n    (void)m;\n";
    if (overlap) {
        o << "    uint64_t t[" << uint64_t(total) * L << "];\n";
        uint64_t at = 0;
        for (const Run &r : runs) {
            o << "    pw_copy(t + " << at << ", " << PLL(r.next) << ", "
              << uint64_t(r.words) * L << ");\n";
            at += uint64_t(r.words) * L;
        }
        at = 0;
        for (const Run &r : runs) {
            o << "    pw_copy(" << PLL(r.cur) << ", t + " << at << ", "
              << uint64_t(r.words) * L << ");\n";
            at += uint64_t(r.words) * L;
        }
    } else {
        for (const Run &r : runs)
            o << "    pw_copy(" << PLL(r.cur) << ", " << PLL(r.next)
              << ", " << uint64_t(r.words) * L << ");\n";
    }
    o << "}\n";
    tu.close();
}

/**
 * Port of EvalState::latchRegistersActive(): the latch itself is
 * unconditional, but each register's staged block is compared against
 * its current one and only a real change marks the register's reader
 * groups dirty (the comb/seq split's sequential half, native). The
 * lane-major block covers all lanes, so a gang group is re-marked when
 * any lane's register changed. The double-buffer staging pass is
 * emitted only when some next slot overlaps some cur slot, like the
 * unguarded latch.
 */
static void
emitLatchAct(TuWriter &tu, size_t p, const EvalProgram &prog,
             uint32_t L)
{
    struct RegRun
    {
        uint32_t next, cur, words;
        uint32_t reg;
    };
    std::vector<RegRun> regs;
    for (uint32_t ri = 0; ri < prog.regs.size(); ++ri) {
        const ProgReg &r = prog.regs[ri];
        if (!r.owned || r.next == kNoSlot)
            continue;
        regs.push_back({r.next, r.cur, nw(r.width), ri});
    }
    bool overlap = false;
    uint64_t total = 0;
    for (const RegRun &a : regs) {
        total += a.words;
        for (const RegRun &b : regs)
            if (a.next < b.cur + b.words && b.cur < a.next + a.words)
                overlap = true;
    }

    auto PLL = [L](uint32_t slot) {
        return "s + " + std::to_string(uint64_t(slot) * L);
    };
    std::ostream &o = tu.open(false);
    o << "\nextern \"C\" void parendi_latch_act_" << p
      << "(uint64_t *s, uint8_t *d)\n{\n"
      << "    (void)s;\n    (void)d;\n";
    if (overlap) {
        o << "    uint64_t t[" << total * L << "];\n";
        uint64_t at = 0;
        for (const RegRun &r : regs) {
            o << "    pw_copy(t + " << at << ", " << PLL(r.next) << ", "
              << uint64_t(r.words) * L << ");\n";
            at += uint64_t(r.words) * L;
        }
        at = 0;
        for (const RegRun &r : regs) {
            uint64_t n = uint64_t(r.words) * L;
            o << "    if (pw_neq(" << PLL(r.cur) << ", t + " << at
              << ", " << n << ")) {\n"
              << "        pw_copy(" << PLL(r.cur) << ", t + " << at
              << ", " << n << ");\n";
            for (uint32_t g : prog.activity.regReaders[r.reg])
                o << "        d[" << g << "] = 1;\n";
            o << "    }\n";
            at += n;
        }
    } else {
        for (const RegRun &r : regs) {
            uint64_t n = uint64_t(r.words) * L;
            o << "    if (pw_neq(" << PLL(r.cur) << ", " << PLL(r.next)
              << ", " << n << ")) {\n"
              << "        pw_copy(" << PLL(r.cur) << ", " << PLL(r.next)
              << ", " << n << ");\n";
            for (uint32_t g : prog.activity.regReaders[r.reg])
                o << "        d[" << g << "] = 1;\n";
            o << "    }\n";
        }
    }
    o << "}\n";
    tu.close();
}

/** Instructions [@p lo, @p hi) of @p prog as chunk-body statements.
 *  Gang (@p L > 1) batches runs of single-word-tier ops into one
 *  PG_SIMD lane loop each: within a lane iteration the run is
 *  straight-line code over constant-offset slots, so intermediates
 *  register-allocate across the run (and the lane loop vectorizes at
 *  unit stride). A run longer than kCgenLaneRunStmts is split so each
 *  loop stays within the vectorizer's dataref budget. */
static void
emitRange(std::ostream &o, const EvalProgram &prog, size_t lo, size_t hi,
          uint32_t L)
{
    if (L == 1) {
        for (size_t i = lo; i < hi; ++i)
            emitInstr(o, prog.instrs[i], prog);
        return;
    }
    size_t i = lo;
    while (i < hi) {
        if (!gangSimdTier(prog.instrs[i].op)) {
            emitInstrGang(o, prog.instrs[i], prog, L);
            ++i;
            continue;
        }
        o << "    PG_SIMD for (uint64_t l = 0; l < " << L
          << "u; ++l) {\n";
        for (size_t n = 0; n < kCgenLaneRunStmts && i < hi &&
                           gangSimdTier(prog.instrs[i].op);
             ++n, ++i)
            emitGangLaneStmt(o, prog.instrs[i], L);
        o << "    }\n";
    }
}

/** Straight-line evaluate (programs without an activity plan): the
 *  instruction stream in kChunkInstrs chunks, called in order by
 *  parendi_eval_<p>. */
static void
emitEval(TuWriter &tu, size_t p, const EvalProgram &prog, uint32_t L)
{
    size_t numInstrs = prog.instrs.size();
    size_t numChunks = (numInstrs + kChunkInstrs - 1) / kChunkInstrs;
    for (size_t ck = 0; ck < numChunks; ++ck) {
        std::ostream &o = tu.openChunk(
            "void pe" + std::to_string(p) + "_c" + std::to_string(ck) +
            "(uint64_t *s, uint64_t *const *m)");
        o << "    (void)s;\n    (void)m;\n";
        size_t lo = ck * kChunkInstrs;
        emitRange(o, prog, lo, std::min(lo + kChunkInstrs, numInstrs), L);
        o << "}\n";
        tu.close();
    }
    std::ostream &o = tu.open(false);
    o << "\nextern \"C\" void parendi_eval_" << p
      << "(uint64_t *slots, uint64_t *const *mems)\n{\n";
    if (numChunks == 0)
        o << "    (void)slots;\n    (void)mems;\n";
    for (size_t ck = 0; ck < numChunks; ++ck)
        o << "    pe" << p << "_c" << ck << "(slots, mems);\n";
    o << "}\n";
    tu.close();
}

/**
 * Activity-guarded evaluate (programs with a built plan): the
 * instruction stream with each activity group wrapped in its
 * dirty-byte guard. A group that runs clears its own byte, marks every
 * successor (always a later group, so one forward pass suffices — same
 * invariant as EvalState::evalActive) and accounts
 * (1 << 32) | instrs into the packed return value. Chunked into
 * whole-group chunk functions of up to kCgenActChunkInstrs
 * instructions, or of one larger group.
 */
static void
emitEvalAct(TuWriter &tu, size_t p, const EvalProgram &prog, uint32_t L)
{
    const ActivityPlan &ap = prog.activity;
    const size_t ngroups = ap.numGroups();
    // Chunk k holds groups [firstGroup[k], firstGroup[k + 1]): whole
    // groups while they fit kCgenActChunkInstrs, a larger group alone.
    std::vector<size_t> firstGroup;
    size_t filled = kCgenActChunkInstrs;
    for (size_t g = 0; g < ngroups; ++g) {
        size_t sz = ap.groups[g].endInstr - ap.groups[g].beginInstr;
        if (filled + sz > kCgenActChunkInstrs) {
            firstGroup.push_back(g);
            filled = 0;
        }
        filled += sz;
    }
    const size_t numChunks = firstGroup.size();
    firstGroup.push_back(ngroups);
    for (size_t ck = 0; ck < numChunks; ++ck) {
        std::ostream &o = tu.openChunk(
            "uint64_t pea" + std::to_string(p) + "_c" + std::to_string(ck) +
            "(uint64_t *s, uint64_t *const *m, uint8_t *d)");
        o << "    (void)s;\n    (void)m;\n    uint64_t r = 0;\n";
        for (size_t g = firstGroup[ck]; g < firstGroup[ck + 1]; ++g) {
            const ActivityGroup &ag = ap.groups[g];
            o << "    if (d[" << g << "]) {\n"
              << "    d[" << g << "] = 0;\n";
            emitRange(o, prog, ag.beginInstr, ag.endInstr, L);
            for (uint32_t k = ag.succBegin; k < ag.succEnd; ++k)
                o << "    d[" << ap.succs[k] << "] = 1;\n";
            o << "    r += ((uint64_t)1 << 32) | "
              << (ag.endInstr - ag.beginInstr) << "u;\n"
              << "    }\n";
        }
        o << "    return r;\n}\n";
        tu.close();
    }
    std::ostream &o = tu.open(false);
    o << "\nextern \"C\" uint64_t parendi_eval_act_" << p
      << "(uint64_t *slots, uint64_t *const *mems, uint8_t *dirty)\n{\n";
    if (numChunks == 0) {
        o << "    (void)slots;\n    (void)mems;\n    (void)dirty;\n"
          << "    return 0;\n";
    } else {
        o << "    uint64_t r = 0;\n";
        for (size_t ck = 0; ck < numChunks; ++ck)
            o << "    r += pea" << p << "_c" << ck
              << "(slots, mems, dirty);\n";
        o << "    return r;\n";
    }
    o << "}\n";
    tu.close();
}

/**
 * The unguarded entries of a plan-carrying program, as thin wrappers
 * over its act entries (the only instruction stream it has): evaluate
 * is the guarded sweep with every group dirty — every instruction runs,
 * in order — and latch is the compare-latch into a scratch dirty map.
 * Either may land in another unit than the act entry it calls, so the
 * act entries are declared in the shared header.
 */
static void
emitActWrappers(TuWriter &tu, size_t p, const EvalProgram &prog)
{
    const size_t G = prog.activity.numGroups();
    // A zero-length array is not C++; with no groups the latch never
    // touches its one-byte scratch map.
    const size_t scratch = std::max<size_t>(1, G);
    tu.decls << "extern \"C\" uint64_t parendi_eval_act_" << p
             << "(uint64_t *slots, uint64_t *const *mems, "
                "uint8_t *dirty);\n"
             << "extern \"C\" void parendi_latch_act_" << p
             << "(uint64_t *s, uint8_t *d);\n";

    std::ostream &o = tu.open(false);
    o << "\nextern \"C\" void parendi_eval_" << p
      << "(uint64_t *slots, uint64_t *const *mems)\n{\n";
    if (G == 0) {
        o << "    (void)slots;\n    (void)mems;\n";
    } else {
        o << "    uint8_t d[" << G << "];\n"
          << "    std::memset(d, 1, " << G << ");\n"
          << "    (void)parendi_eval_act_" << p << "(slots, mems, d);\n";
    }
    o << "}\n";
    tu.close();

    std::ostream &l = tu.open(false);
    l << "\nextern \"C\" void parendi_latch_" << p
      << "(uint64_t *s, uint64_t *const *m)\n{\n"
      << "    (void)m;\n"
      << "    uint8_t d[" << scratch << "] = {};\n"
      << "    parendi_latch_act_" << p << "(s, d);\n"
      << "}\n";
    tu.close();
}

size_t
CgenSource::numChunks() const
{
    return static_cast<size_t>(
        std::count_if(functions.begin(), functions.end(),
                      [](const CgenFunction &f) { return f.chunk; }));
}

CgenSource
cgenEmit(const std::vector<const EvalProgram *> &progs, uint32_t lanes)
{
    const uint32_t L = lanes ? lanes : 1;
    TuWriter tu;
    for (size_t p = 0; p < progs.size(); ++p) {
        const EvalProgram &prog = *progs[p];
        // One instruction stream per program: the guarded one when it
        // carries a plan (the unguarded entries wrap it), else the
        // straight-line one with no act entries.
        if (prog.activity.built) {
            emitEvalAct(tu, p, prog, L);
            emitActWrappers(tu, p, prog);
            emitCommit(tu, p, prog, L);
            emitLatchAct(tu, p, prog, L);
        } else {
            emitEval(tu, p, prog, L);
            emitCommit(tu, p, prog, L);
            emitLatch(tu, p, prog, L);
        }
    }

    CgenSource src;
    src.text = kPreamble;
    if (L > 1)
        src.text += kGangPreamble;
    std::string decls = tu.decls.str();
    if (!decls.empty())
        src.text += "\n" + decls;
    src.headerEnd = src.text.size();
    src.text += tu.body.str();
    src.functions = std::move(tu.funcs);
    for (CgenFunction &f : src.functions) {
        f.begin += src.headerEnd;
        f.end += src.headerEnd;
    }
    return src;
}

std::string
cgenEmitSource(const std::vector<const EvalProgram *> &progs,
               uint32_t lanes)
{
    return cgenEmit(progs, lanes).text;
}

std::vector<std::vector<size_t>>
cgenAssignUnits(const std::vector<uint64_t> &weights, size_t units)
{
    units = std::max<size_t>(1, std::min(units, weights.size()));
    std::vector<size_t> order(weights.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return weights[a] > weights[b];
    });
    std::vector<std::vector<size_t>> out(units);
    std::vector<uint64_t> load(units, 0);
    for (size_t f : order) {
        size_t u = static_cast<size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        out[u].push_back(f);
        load[u] += weights[f];
    }
    for (std::vector<size_t> &unit : out)
        std::sort(unit.begin(), unit.end());
    return out;
}

CgenModule::~CgenModule()
{
#if PARENDI_CGEN_HAVE_DLOPEN
    if (handle_)
        dlclose(handle_);
#endif
}

std::shared_ptr<CgenModule>
CgenModule::compile(const std::vector<const EvalProgram *> &progs,
                    const CgenOptions &opt)
{
#if !PARENDI_CGEN_HAVE_DLOPEN
    (void)progs;
    (void)opt;
    warn("cgen: no dynamic loader on this platform; "
         "using the interpreter");
    return nullptr;
#else
    namespace fs = std::filesystem;

    const uint32_t lanes = opt.lanes ? opt.lanes : 1;
    CgenSource src = cgenEmit(progs, lanes);
    std::string cxx = resolveCxx(opt);
    std::string cmd = cxx + " -O2 -fPIC -shared -std=c++17";
    // Gang kernels live or die by the lane loops vectorizing; the .so
    // is compiled on the host that runs it (JIT), so the full native
    // ISA is safe and buys 2-4x wider vectors than baseline x86-64.
    // Scalar builds keep the portable flags (artifact stores may be
    // shared; scalar code gains little from -march).
    if (lanes > 1)
        cmd += " -fopenmp-simd -march=native";
    if (!opt.extraFlags.empty())
        cmd += " " + opt.extraFlags;

    // The lane count and SoA layout version are part of the content
    // key (beyond their effect on the source text), so gang and scalar
    // builds of one design can never collide in a shared store.
    std::string laneTag =
        "lanes=" + std::to_string(lanes) + ";soa=1";
    uint64_t key = cgenHash(src.text + '\x1f' + cmd + '\x1f' + laneTag);
    bool built = false;

    // The split: one unit per core, each holding a deterministic LPT
    // share of the top-level functions. U is a build schedule, not
    // content, so it stays out of the key.
    std::vector<uint64_t> weights;
    weights.reserve(src.functions.size());
    for (const CgenFunction &f : src.functions)
        weights.push_back(f.end - f.begin);
    size_t cores = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::vector<size_t>> units = cgenAssignUnits(
        weights, std::max<size_t>(1, std::min(cores, src.numChunks())));

    // The builder: everything that happens on a cache miss. Every unit
    // compiles concurrently (`cmd -c`), one link makes the object, all
    // under pid-unique names; the object is published with an atomic
    // rename, so concurrent processes racing on the same cache entry
    // never observe a half-written .so.
    auto build = [&](const std::string &so) -> bool {
        std::error_code ec;
        std::string stem = so.size() > 3 ? so.substr(0, so.size() - 3)
                                         : so;
        std::string tmp =
            stem + strprintf(".%ld", static_cast<long>(getpid()));
        std::string soTmp = tmp + ".so";
        std::string linkLog = tmp + ".log";
        const size_t n = units.size();
        auto unitPath = [&](size_t u, const char *ext) {
            return tmp + ".u" + std::to_string(u) + ext;
        };
        // Drop every unit source, object and log (but @p keepLog's).
        auto removeUnits = [&](size_t keepLog) {
            for (size_t u = 0; u < n; ++u) {
                fs::remove(unitPath(u, ".cc"), ec);
                fs::remove(unitPath(u, ".o"), ec);
                if (u != keepLog)
                    fs::remove(unitPath(u, ".log"), ec);
            }
        };

        for (size_t u = 0; u < n; ++u) {
            std::ofstream f(unitPath(u, ".cc"), std::ios::trunc);
            f.write(src.text.data(),
                    static_cast<std::streamsize>(src.headerEnd));
            for (size_t fi : units[u]) {
                const CgenFunction &fn = src.functions[fi];
                f.write(src.text.data() + fn.begin,
                        static_cast<std::streamsize>(fn.end - fn.begin));
            }
            f.flush();
            if (!f) {
                warn("cgen: cannot write %s; using the interpreter",
                     unitPath(u, ".cc").c_str());
                removeUnits(n);
                return false;
            }
        }
        std::vector<pid_t> pids(n);
        for (size_t u = 0; u < n; ++u)
            pids[u] = spawnShell(cmd + " -c -o " + unitPath(u, ".o") +
                                 " " + unitPath(u, ".cc") + " 2> " +
                                 unitPath(u, ".log"));
        size_t failed = n;
        int rc = 0;
        for (size_t u = 0; u < n; ++u) {
            int st = waitShell(pids[u]);
            if (st != 0 && failed == n) {
                failed = u;
                rc = st;
            }
        }
        if (failed != n) {
            std::string log = unitPath(failed, ".log");
            warn("cgen: compile of unit %zu of %zu failed (\"%s\", "
                 "status %d, log %s); using the interpreter",
                 failed, n, cxx.c_str(), rc, log.c_str());
            removeUnits(failed);
            return false;
        }
        std::string objs;
        for (size_t u = 0; u < n; ++u)
            objs += " " + unitPath(u, ".o");
        rc = waitShell(
            spawnShell(cmd + " -o " + soTmp + objs + " 2> " + linkLog));
        removeUnits(n);
        if (rc != 0) {
            warn("cgen: link failed (\"%s\", status %d, log %s); "
                 "using the interpreter",
                 cxx.c_str(), rc, linkLog.c_str());
            fs::remove(soTmp, ec);
            return false;
        }
        fs::rename(soTmp, so, ec);
        if (ec && !fs::exists(so)) {
            warn("cgen: cannot publish %s (%s); using the interpreter",
                 so.c_str(), ec.message().c_str());
            return false;
        }
        // Keep the whole TU next to the object for debugging; drop the
        // (empty on success) link log.
        {
            std::ofstream f(tmp + ".cc", std::ios::trunc);
            f << src.text;
        }
        fs::rename(tmp + ".cc", cgenDebugSourcePath(so), ec);
        fs::remove(linkLog, ec);
        built = true;
        return true;
    };

    std::string so;
    if (opt.store) {
        so = opt.store->acquire(key, build);
    } else {
        std::string dir = resolveBuildDir(opt);
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec) {
            warn("cgen: cannot create build dir %s (%s); "
                 "using the interpreter",
                 dir.c_str(), ec.message().c_str());
            return nullptr;
        }
        DirArtifactCache local(dir, opt.cache);
        so = local.acquire(key, build);
    }
    if (so.empty())
        return nullptr;

    void *handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle) {
        warn("cgen: dlopen %s failed (%s); using the interpreter",
             so.c_str(), dlerror());
        return nullptr;
    }

    std::shared_ptr<CgenModule> mod(new CgenModule());
    mod->handle_ = handle;
    mod->objectPath_ = so;
    mod->numUnits_ = units.size();
    for (size_t i = 0; i < progs.size(); ++i) {
        CgenEntry e;
        struct
        {
            const char *prefix;
            NativeEvalFn *fn;
        } syms[] = {{"parendi_eval_", &e.eval},
                    {"parendi_commit_", &e.commit},
                    {"parendi_latch_", &e.latch}};
        for (auto &[prefix, fn] : syms) {
            std::string sym = prefix + std::to_string(i);
            void *p = dlsym(handle, sym.c_str());
            if (!p) {
                warn("cgen: %s missing symbol %s; "
                     "using the interpreter",
                     so.c_str(), sym.c_str());
                return nullptr;
            }
            *fn = reinterpret_cast<NativeEvalFn>(p);
        }
        if (progs[i]->activity.built) {
            std::string sym = "parendi_eval_act_" + std::to_string(i);
            void *p = dlsym(handle, sym.c_str());
            std::string lsym = "parendi_latch_act_" + std::to_string(i);
            void *lp = dlsym(handle, lsym.c_str());
            if (!p || !lp) {
                warn("cgen: %s missing symbol %s; "
                     "using the interpreter",
                     so.c_str(), (p ? lsym : sym).c_str());
                return nullptr;
            }
            e.evalAct = reinterpret_cast<NativeEvalActFn>(p);
            e.latchAct = reinterpret_cast<NativeLatchActFn>(lp);
        }
        mod->entries_.push_back(e);
    }
    inform("cgen: %zu native kernel(s) %s from %s",
           mod->entries_.size(), built ? "compiled" : "reloaded",
           so.c_str());
    return mod;
#endif
}

bool
cgenAttach(EvalState &state, const EvalProgram &prog,
           const CgenOptions &opt)
{
    // The kernels must be emitted for the layout they will run on.
    CgenOptions o = opt;
    o.lanes = state.lanes();
    auto mod = CgenModule::compile({&prog}, o);
    if (!mod)
        return false;
    const CgenEntry &e = mod->entry(0);
    state.setNativeEval(e.eval, mod, e.commit, e.latch, e.evalAct,
                        e.latchAct);
    return true;
}

size_t
cgenAttachShards(ShardSet &shards, const CgenOptions &opt)
{
    if (shards.size() == 0)
        return 0;
    std::vector<const EvalProgram *> progs;
    progs.reserve(shards.size());
    for (size_t i = 0; i < shards.size(); ++i)
        progs.push_back(&shards.program(i));
    CgenOptions o = opt;
    o.lanes = shards.state(0).lanes();
    auto mod = CgenModule::compile(progs, o);
    if (!mod)
        return 0;
    for (size_t i = 0; i < shards.size(); ++i) {
        // The ShardSet never calls commitWrites() — its commit phase
        // is the cross-shard broadcast plan — but installing the
        // (equivalent) native commit is harmless, and the native latch
        // runs in its latch superstep.
        const CgenEntry &e = mod->entry(i);
        shards.state(i).setNativeEval(e.eval, mod, e.commit, e.latch,
                                      e.evalAct, e.latchAct);
    }
    return shards.size();
}

CgenInterpreter::CgenInterpreter(Netlist nl, const LowerOptions &lower,
                                 const CgenOptions &copt)
    : Interpreter(std::move(nl), lower, copt.lanes ? copt.lanes : 1)
{
    native_ = cgenAttach(*state, prog, copt);
}

} // namespace parendi::rtl
