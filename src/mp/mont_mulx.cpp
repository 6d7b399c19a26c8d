#include "src/mp/mont_mulx.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__)
#include <x86intrin.h>
#endif

namespace hcpp::mp::mulx {

namespace {

// Operands of one kernel call, addressed by the asm through a single base
// register (%rsi) so every other general-purpose register except %rsp and
// %rbp is free for the accumulator.
template <size_t N>
struct Frame {
  const uint64_t* in;  // multiplier limbs of the CIOS and wide-product rows
  uint64_t* out;       // where the fully reduced result goes
  uint64_t a[N];       // a multiplier formed here; the squaring's operand
  uint64_t b[N];       // the multiplicand; the squaring's a << 1 limbs
  uint64_t m[N];
  uint64_t n0inv;
  uint64_t subs;             // conditional subtractions ending a REDC
  uint64_t r[N];             // scratch of the final subtraction
  uint64_t t[3][2 * N + 1];  // wide values: product outputs, REDC inputs
  uint64_t d[N];             // the squaring's limbs of 2a
};

}  // namespace

#if defined(__x86_64__) && defined(__GNUC__)

namespace {

// The accumulator window of row i: N + 2 registers t_0..t_{N+1} holding
// limbs i..i+N+1 of the running value.
#define W0 "%%rcx"
#define W1 "%%rdi"
#define W2 "%%r8"
#define W3 "%%r9"
#define W4 "%%r10"
#define W5 "%%r11"
#define W6 "%%r12"
#define W7 "%%r13"
#define W8 "%%r14"
#define W9 "%%r15"

// A row adds rdx·v into the window as two independent carry chains: the
// product at limb j adds its low half into t_j on OF (ADOX) and its high
// half into t_{j+1} on CF (ADCX), so the MULX of one limb overlaps the adds
// of the last.
#define HCPP_STEP(v, j, tj, tj1)                         \
  "mulxq 8*(" #j ")+%c[" #v "](%%rsi), %%rax, %%rbx\n\t" \
  "adoxq %%rax, " tj "\n\t"                              \
  "adcxq %%rbx, " tj1 "\n\t"

// Folds both chains' carries into the window's top two limbs.
#define HCPP_ROW_END(tn, tn1) \
  "movl $0, %%eax\n\t"        \
  "adcxq %%rax, " tn1 "\n\t"  \
  "adoxq %%rax, " tn "\n\t"   \
  "adoxq %%rax, " tn1 "\n\t"

// HCPP_RUNk: the steps of a row from limb j to limb j + k − 1 (the last
// limb of v), then the fold. Its register list starts at t_j.
#define HCPP_RUN1(v, j, t0, t1, t2) HCPP_STEP(v, j, t0, t1) HCPP_ROW_END(t1, t2)
#define HCPP_RUN2(v, j, t0, t1, ...) \
  HCPP_STEP(v, j, t0, t1) HCPP_RUN1(v, j + 1, t1, __VA_ARGS__)
#define HCPP_RUN3(v, j, t0, t1, ...) \
  HCPP_STEP(v, j, t0, t1) HCPP_RUN2(v, j + 1, t1, __VA_ARGS__)
#define HCPP_RUN4(v, j, t0, t1, ...) \
  HCPP_STEP(v, j, t0, t1) HCPP_RUN3(v, j + 1, t1, __VA_ARGS__)
#define HCPP_RUN5(v, j, t0, t1, ...) \
  HCPP_STEP(v, j, t0, t1) HCPP_RUN4(v, j + 1, t1, __VA_ARGS__)
#define HCPP_RUN6(v, j, t0, t1, ...) \
  HCPP_STEP(v, j, t0, t1) HCPP_RUN5(v, j + 1, t1, __VA_ARGS__)
#define HCPP_RUN7(v, j, t0, t1, ...) \
  HCPP_STEP(v, j, t0, t1) HCPP_RUN6(v, j + 1, t1, __VA_ARGS__)
#define HCPP_RUN8(v, j, t0, t1, ...) \
  HCPP_STEP(v, j, t0, t1) HCPP_RUN7(v, j + 1, t1, __VA_ARGS__)

// A full row over N limbs; the XOR clears CF and OF.
#define HCPP_ROW4(v, ...) "xorl %%eax, %%eax\n\t" HCPP_RUN4(v, 0, __VA_ARGS__)
#define HCPP_ROW8(v, ...) "xorl %%eax, %%eax\n\t" HCPP_RUN8(v, 0, __VA_ARGS__)

// N rows X(ROW, i, window of row i). Each row leaves limb i zero in t_0, or
// stores and zeroes it, so the window shifts up by one limb by renaming: the
// next row passes the list rotated by one, t_0 as the new top. Afterwards
// limbs N..2N−1 sit in OUT and limb 2N in TOP; LOW is the first row's
// t_0..t_{N−1}.
#define HCPP_PAIR4_0(X, ROW) \
  X(ROW, 0, W0, W1, W2, W3, W4, W5) X(ROW, 1, W1, W2, W3, W4, W5, W0)
#define HCPP_PAIR4_1(X, ROW) \
  X(ROW, 2, W2, W3, W4, W5, W0, W1) X(ROW, 3, W3, W4, W5, W0, W1, W2)
#define HCPP_PAIR8_0(X, ROW)                        \
  X(ROW, 0, W0, W1, W2, W3, W4, W5, W6, W7, W8, W9) \
  X(ROW, 1, W1, W2, W3, W4, W5, W6, W7, W8, W9, W0)
#define HCPP_PAIR8_1(X, ROW)                        \
  X(ROW, 2, W2, W3, W4, W5, W6, W7, W8, W9, W0, W1) \
  X(ROW, 3, W3, W4, W5, W6, W7, W8, W9, W0, W1, W2)
#define HCPP_PAIR8_2(X, ROW)                        \
  X(ROW, 4, W4, W5, W6, W7, W8, W9, W0, W1, W2, W3) \
  X(ROW, 5, W5, W6, W7, W8, W9, W0, W1, W2, W3, W4)
#define HCPP_PAIR8_3(X, ROW)                        \
  X(ROW, 6, W6, W7, W8, W9, W0, W1, W2, W3, W4, W5) \
  X(ROW, 7, W7, W8, W9, W0, W1, W2, W3, W4, W5, W6)
#define HCPP_ROWS4(X, ROW) HCPP_PAIR4_0(X, ROW) HCPP_PAIR4_1(X, ROW)
#define HCPP_ROWS8(X, ROW) \
  HCPP_PAIR8_0(X, ROW) HCPP_PAIR8_1(X, ROW) HCPP_PAIR8_2(X, ROW) \
  HCPP_PAIR8_3(X, ROW)
#define HCPP_OUT4 W4, W5, W0, W1
#define HCPP_OUT8 W8, W9, W0, W1, W2, W3, W4, W5
#define HCPP_TOP4 W2
#define HCPP_TOP8 W6
#define HCPP_LOW4 W0, W1, W2, W3
#define HCPP_LOW8 HCPP_LOW4, W4, W5, W6, W7

#define HCPP_ZERO(t) "xorq " t ", " t "\n\t"
#define HCPP_ZERO4                                                   \
  HCPP_ZERO(W0) HCPP_ZERO(W1) HCPP_ZERO(W2) HCPP_ZERO(W3) HCPP_ZERO(W4) \
  HCPP_ZERO(W5)
#define HCPP_ZERO8 \
  HCPP_ZERO4 HCPP_ZERO(W6) HCPP_ZERO(W7) HCPP_ZERO(W8) HCPP_ZERO(W9)

// rdx = in[i], read in place (rax is free at the start of a row).
#define HCPP_IN(i)                     \
  "movq %c[in](%%rsi), %%rax\n\t"      \
  "movq 8*" #i "(%%rax), %%rdx\n\t"
// CIOS step i: t += in[i]·b, then the REDC row.
#define HCPP_CIOS(ROW, i, t0, ...) \
  HCPP_IN(i) ROW(b, t0, __VA_ARGS__) HCPP_REDC_ROW(ROW, i, t0, __VA_ARGS__)
// REDC row: t += u·m with u = t_0·n0inv mod 2^64, which zeroes t_0. The
// n0inv load does not wait for t_0, so only the IMUL is on the chain.
#define HCPP_REDC_ROW(ROW, i, t0, ...)                     \
  "movq %c[inv](%%rsi), %%rdx\n\t"                         \
  "imulq " t0 ", %%rdx\n\t" ROW(m, t0, __VA_ARGS__)
// Wide-product row i: t += in[i]·b. Limb i is then final: it is stored to
// the t slot and its register zeroed.
#define HCPP_WIDE_ROW(ROW, i, t0, ...)                         \
  HCPP_IN(i) ROW(b, t0, __VA_ARGS__)                           \
  "movq " t0 ", 8*" #i "+%c[t](%%rsi)\n\t" HCPP_ZERO(t0)
// Squaring row k at limb 2k of the window: t += a_k·F_k·2^{64k} with
// F_k = a_k + 2·Σ_{j>k} a_j·2^{64(j−k)}, so that a² = Σ_k a_k·F_k·2^{128k}.
// For a < R/2 the limbs of F_k are a_k, e_{k+1} and d_{k+2..N−1}, with
// e_j = a_j << 1 (f->b) and d_j = e_j | a_{j−1} >> 63 (f->d, the limbs of
// 2a): N − k products, and the carries rippled up to window limb N (each
// RIPPLE passes on whichever of CF and OF is set; at most one is).
#define HCPP_SQR_HEAD(k, t0, t1, t2)                                  \
  "movq 8*" #k "+%c[a](%%rsi), %%rdx\n\t"                            \
  "xorl %%eax, %%eax\n\t" HCPP_STEP(a, k, t0, t1) HCPP_STEP(b, k + 1, t1, t2)
#define HCPP_RIPPLE(t) "adcxq %%rax, " t "\n\t" "adoxq %%rax, " t "\n\t"
// N = 8: the row pairs of HCPP_ROWS8 are REDC rows; square row k runs
// before REDC row 2k, which is the first to need limb 2k final.
#define HCPP_SQR8                                                        \
  HCPP_SQR_HEAD(0, W0, W1, W2) HCPP_RUN6(d, 2, W2, W3, W4, W5, W6, W7, W8, W9) \
  HCPP_PAIR8_0(HCPP_REDC_ROW, HCPP_ROW8)                                 \
  HCPP_SQR_HEAD(1, W2, W3, W4) HCPP_RUN5(d, 3, W4, W5, W6, W7, W8, W9, W0) \
  HCPP_PAIR8_1(HCPP_REDC_ROW, HCPP_ROW8)                                 \
  HCPP_SQR_HEAD(2, W4, W5, W6) HCPP_RUN4(d, 4, W6, W7, W8, W9, W0, W1)   \
  HCPP_RIPPLE(W2) HCPP_PAIR8_2(HCPP_REDC_ROW, HCPP_ROW8)                 \
  HCPP_SQR_HEAD(3, W6, W7, W8) HCPP_RUN3(d, 5, W8, W9, W0, W1, W2)       \
  HCPP_RIPPLE(W3) HCPP_RIPPLE(W4) HCPP_PAIR8_3(HCPP_REDC_ROW, HCPP_ROW8) \
  HCPP_SQR_HEAD(4, W8, W9, W0) HCPP_RUN2(d, 6, W0, W1, W2, W3)           \
  HCPP_RIPPLE(W4) HCPP_RIPPLE(W5) HCPP_RIPPLE(W6)                        \
  HCPP_SQR_HEAD(5, W0, W1, W2) HCPP_RUN1(d, 7, W2, W3, W4)               \
  HCPP_RIPPLE(W5) HCPP_RIPPLE(W6)                                        \
  HCPP_SQR_HEAD(6, W2, W3, W4) HCPP_ROW_END(W4, W5) HCPP_RIPPLE(W6)      \
  "movq 8*7+%c[a](%%rsi), %%rdx\n\t"                                   \
  "xorl %%eax, %%eax\n\t" HCPP_STEP(a, 7, W4, W5) HCPP_ROW_END(W5, W6)
#define HCPP_SQR4                                                        \
  HCPP_SQR_HEAD(0, W0, W1, W2) HCPP_RUN2(d, 2, W2, W3, W4, W5)           \
  HCPP_PAIR4_0(HCPP_REDC_ROW, HCPP_ROW4)                                 \
  HCPP_SQR_HEAD(1, W2, W3, W4) HCPP_RUN1(d, 3, W4, W5, W0)               \
  HCPP_PAIR4_1(HCPP_REDC_ROW, HCPP_ROW4)                                 \
  HCPP_SQR_HEAD(2, W4, W5, W0) HCPP_ROW_END(W0, W1) HCPP_RIPPLE(W2)      \
  "movq 8*3+%c[a](%%rsi), %%rdx\n\t"                                   \
  "xorl %%eax, %%eax\n\t" HCPP_STEP(a, 3, W0, W1) HCPP_ROW_END(W1, W2)

// Per-limb operand lists. `mem` is a displacement(base) string, limb j sits
// 8·j bytes above it; HCPP_OP applies a load-type instruction (op mem, t),
// HCPP_ST stores t.
#define HCPP_OP(op, mem, j, t) op " 8*" #j "+" mem ", " t "\n\t"
#define HCPP_ST(op, mem, j, t) "movq " t ", 8*" #j "+" mem "\n\t"
#define HCPP_EACH4(M, op, mem, t0, t1, t2, t3) \
  M(op, mem, 0, t0) M(op, mem, 1, t1) M(op, mem, 2, t2) M(op, mem, 3, t3)
#define HCPP_EACH8(M, op, mem, t0, t1, t2, t3, t4, t5, t6, t7) \
  HCPP_EACH4(M, op, mem, t0, t1, t2, t3)                       \
  M(op, mem, 4, t4) M(op, mem, 5, t5) M(op, mem, 6, t6) M(op, mem, 7, t7)
#define HCPP_APPLY(M, ...) M(__VA_ARGS__)
// M over limbs N..2N of the t slot and the registers OUT, TOP.
#define HCPP_HIGH(N, op, M)                                             \
  HCPP_APPLY(HCPP_EACH##N, M, op, "8*" #N "+%c[t](%%rsi)", HCPP_OUT##N) \
  M(op, "%c[t](%%rsi)", 2 * N, HCPP_TOP##N)

// Conditional subtraction of m from the value t:top, branch-free: store t
// to r, subtract m (top absorbs the borrow), reload r where that borrowed,
// store the result to dst. A single one fully reduces any t:top < 2m.
#define HCPP_REDUCE(EACH, top, r, m, dst, ...)                              \
  EACH(HCPP_ST, , r, __VA_ARGS__) "clc\n\t"                                \
  EACH(HCPP_OP, "sbbq", m, __VA_ARGS__) "sbbq $0, " top "\n\t"             \
  EACH(HCPP_OP, "cmovcq", r, __VA_ARGS__) EACH(HCPP_ST, , dst, __VA_ARGS__)
// The kernels' final subtraction, with f->r as scratch, into f->out.
#define HCPP_FINAL(N)                                                 \
  "movq %c[out](%%rsi), %%rax\n\t"                                  \
  HCPP_APPLY(HCPP_REDUCE, HCPP_EACH##N, HCPP_TOP##N, "%c[r](%%rsi)", \
             "%c[m](%%rsi)", "0(%%rax)", HCPP_OUT##N)

// *f->out = in·b·R^{-1} mod m, for in, b < m.
#define HCPP_MONT_MUL(N) \
  HCPP_ZERO##N HCPP_ROWS##N(HCPP_CIOS, HCPP_ROW##N) HCPP_FINAL(N)
// Slot f->t = in·b (limb 2N zero).
#define HCPP_MUL_WIDE(N)                                  \
  HCPP_ZERO##N HCPP_ROWS##N(HCPP_WIDE_ROW, HCPP_ROW##N) \
  HCPP_HIGH(N, , HCPP_ST)
// *f->out = a²·R^{-1} mod m for a < m < R/2, given f->a = a and e, d
// in f->b and f->d (see HCPP_SQR_HEAD): CIOS order, the square rows
// interleaved with the REDC rows.
#define HCPP_MONT_SQR(N) HCPP_ZERO##N HCPP_SQR##N HCPP_FINAL(N)
// *f->out = T·R^{-1} mod m for the slot's T = t[0..2N] < (f->subs + 1)·m·R:
// N REDC rows over the low half give X = (T_low + u·m)/R ≤ m, then
// X + T_high < (f->subs + 1)·m takes f->subs conditional subtractions
// (each also restores top when it borrows).
#define HCPP_REDC(N)                                                    \
  HCPP_ZERO##N                                                          \
  HCPP_APPLY(HCPP_EACH##N, HCPP_OP, "movq", "%c[t](%%rsi)", HCPP_LOW##N) \
  HCPP_ROWS##N(HCPP_REDC_ROW, HCPP_ROW##N)                              \
  "xorl %%eax, %%eax\n\t" HCPP_HIGH(N, "adcq", HCPP_OP)                 \
  "movq %c[subs](%%rsi), %%rdx\n\t"                                     \
  "1:\n\t"                                                              \
  "movq " HCPP_TOP##N ", %%rbx\n\t" HCPP_FINAL(N)                       \
  "cmovcq %%rbx, " HCPP_TOP##N "\n\t"                                   \
  "decq %%rdx\n\t"                                                      \
  "jnz 1b\n\t"

#define HCPP_CLOBBER4 "rax", "r8", "r9", "r10", "r11", "cc", "memory"
#define HCPP_CLOBBER8 HCPP_CLOBBER4, "r12", "r13", "r14", "r15"
#define HCPP_ASM(BODY, N, S)                                                \
  asm(BODY(N)                                                               \
      :                                                                     \
      : "S"(f), [a] "i"(offsetof(Frame<N>, a)),                             \
        [b] "i"(offsetof(Frame<N>, b)), [m] "i"(offsetof(Frame<N>, m)),     \
        [inv] "i"(offsetof(Frame<N>, n0inv)),                               \
        [subs] "i"(offsetof(Frame<N>, subs)), [r] "i"(offsetof(Frame<N>, r)), \
        [d] "i"(offsetof(Frame<N>, d)), [in] "i"(offsetof(Frame<N>, in)),    \
        [out] "i"(offsetof(Frame<N>, out)),                                 \
        [t] "i"(offsetof(Frame<N>, t) + (S) * sizeof(f->t[0]))             \
      : "rbx", "rcx", "rdx", "rdi", HCPP_CLOBBER##N)
// A kernel on frame f and its wide slot f->t[S], for N = 4 and 8.
#define HCPP_KERNEL(name, BODY)                  \
  template <size_t N, size_t S = 0>              \
  void name(Frame<N>* f) noexcept {              \
    if constexpr (N == 4) HCPP_ASM(BODY, 4, S); \
    else HCPP_ASM(BODY, 8, S);                   \
  }

// r = a + b mod m and r = a − b mod m for a, b < m; r may alias a or b.
#define HCPP_ADD_MOD(EACH, ...)                                             \
  "xorl %%eax, %%eax\n\t" EACH(HCPP_OP, "movq", "0(%[a])", __VA_ARGS__)     \
  EACH(HCPP_OP, "adcq", "0(%[b])", __VA_ARGS__) "adcq $0, %%rax\n\t"       \
  HCPP_REDUCE(EACH, "%%rax", "0(%[r])", "0(%[m])", "0(%[r])", __VA_ARGS__)
#define HCPP_SUB_MOD(EACH, ...)                                             \
  EACH(HCPP_OP, "movq", "0(%[a])", __VA_ARGS__) "clc\n\t"                   \
  EACH(HCPP_OP, "sbbq", "0(%[b])", __VA_ARGS__) "sbbq %%rax, %%rax\n\t"     \
  EACH(HCPP_ST, , "0(%[r])", __VA_ARGS__) "clc\n\t"                         \
  EACH(HCPP_OP, "adcq", "0(%[m])", __VA_ARGS__) "testq %%rax, %%rax\n\t"    \
  EACH(HCPP_OP, "cmovzq", "0(%[r])", __VA_ARGS__)                            \
  EACH(HCPP_ST, , "0(%[r])", __VA_ARGS__)
#define HCPP_REGS4 "%%r8", "%%r9", "%%r10", "%%r11"
#define HCPP_REGS8 HCPP_REGS4, "%%r12", "%%r13", "%%r14", "%%r15"
#define HCPP_MOD_ASM(BODY, N)                         \
  asm(BODY(HCPP_EACH##N, HCPP_REGS##N)                \
      :                                               \
      : [r] "r"(r), [a] "r"(a), [b] "r"(b), [m] "r"(m) \
      : HCPP_CLOBBER##N)

// r = x + y resp. x − y over the 2N + 1 limbs of a wide value (the callers
// keep every result non-negative): one ADC/SBB chain once unrolled.
template <size_t N, bool kSub>
void wide(uint64_t* r, const uint64_t* x, const uint64_t* y) noexcept {
  unsigned char c = 0;
#pragma GCC unroll 17
  for (size_t i = 0; i < 2 * N + 1; ++i) {
    unsigned long long v;
    c = kSub ? _subborrow_u64(c, x[i], y[i], &v)
             : _addcarry_u64(c, x[i], y[i], &v);
    r[i] = v;
  }
}

// add_mod and sub_mod as add_k and sub_k, inlined into the F_{p^2} kernels.
#define HCPP_MOD_KERNEL(name, BODY)                                       \
  template <size_t N>                                                     \
  [[gnu::always_inline]] inline void name(uint64_t* r, const uint64_t* a, \
                                          const uint64_t* b,              \
                                          const uint64_t* m) noexcept {   \
    if constexpr (N == 4) HCPP_MOD_ASM(BODY, 4);                          \
    else HCPP_MOD_ASM(BODY, 8);                                           \
  }

}  // namespace

bool compiled() noexcept { return true; }

#else  // not x86-64 GCC/Clang

// No asm kernel for this target: compiled() says so and the kernels trap —
// MontCtx never selects them when compiled() is false.
#define HCPP_KERNEL(name, BODY)     \
  template <size_t N, size_t S = 0> \
  void name(Frame<N>*) noexcept {   \
    std::abort();                   \
  }
#define HCPP_MOD_KERNEL(name, BODY)                                     \
  template <size_t N>                                                   \
  void name(uint64_t*, const uint64_t*, const uint64_t*,                \
            const uint64_t*) noexcept {                                 \
    std::abort();                                                       \
  }

namespace {
template <size_t N, bool kSub>
void wide(uint64_t*, const uint64_t*, const uint64_t*) noexcept {
  std::abort();
}
}  // namespace

bool compiled() noexcept { return false; }

#endif

namespace {

HCPP_MOD_KERNEL(add_k, HCPP_ADD_MOD)
HCPP_MOD_KERNEL(sub_k, HCPP_SUB_MOD)
HCPP_KERNEL(mont_mul, HCPP_MONT_MUL)
HCPP_KERNEL(mul_wide, HCPP_MUL_WIDE)
HCPP_KERNEL(mont_sqr, HCPP_MONT_SQR)
HCPP_KERNEL(redc, HCPP_REDC)

template <size_t N>
Frame<N> frame(const uint64_t* m, uint64_t n0inv, uint64_t subs = 1) noexcept {
  Frame<N> f;
  std::copy_n(m, N, f.m);
  f.n0inv = n0inv;
  f.subs = subs;
  return f;
}

// r = a·b·R^{-1} through frame f (whose m and n0inv are already set); the
// kernel reads a in place and writes r last, so r may alias a or b.
template <size_t N>
void product(Frame<N>& f, uint64_t* r, const uint64_t* a,
             const uint64_t* b) noexcept {
  f.in = a;
  f.out = r;
  std::copy_n(b, N, f.b);
  mont_mul<N>(&f);
}

// r = a²·R^{-1} through frame f; r may alias a. Under m ≥ R/2 (a may be
// ≥ R/2 too) the square is the CIOS product a·a.
template <size_t N>
void square(Frame<N>& f, uint64_t* r, const uint64_t* a) noexcept {
  if (f.m[N - 1] >> 63 != 0) return product<N>(f, r, a, a);
  for (size_t j = 0; j < N; ++j) {
    f.a[j] = a[j];
    f.b[j] = a[j] << 1;
    f.d[j] = f.b[j] | (j > 0 ? a[j - 1] >> 63 : 0);
  }
  f.out = r;
  mont_sqr<N>(&f);
}

}  // namespace

template <size_t N>
void add_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) noexcept {
  add_k<N>(r, a, b, m);
}

template <size_t N>
void sub_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) noexcept {
  sub_k<N>(r, a, b, m);
}

template <size_t N>
void mul(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* m,
         uint64_t n0inv) noexcept {
  Frame<N> f = frame<N>(m, n0inv);
  product<N>(f, r, a, b);
}

template <size_t N>
void sqr(uint64_t* r, const uint64_t* a, const uint64_t* m,
         uint64_t n0inv) noexcept {
  Frame<N> f = frame<N>(m, n0inv);
  square<N>(f, r, a);
}

// (lo, hi) = (V_e, V_{e+1}) with one frame for the whole ladder and three
// buffers rotated by pointer: x = V_k, y = V_{k+1}, c the next cross term.
template <size_t N>
void lucas(uint64_t* lo, uint64_t* hi, const uint64_t* v1, const uint64_t* two,
           const uint64_t* e, size_t bits, const uint64_t* m,
           uint64_t n0inv) noexcept {
  Frame<N> f = frame<N>(m, n0inv);
  uint64_t buf[3][N];
  uint64_t *x = buf[0], *y = buf[1], *c = buf[2];
  std::copy_n(two, N, x);
  std::copy_n(v1, N, y);
  for (size_t i = bits; i-- > 0;) {
    const bool bit = (e[i / 64] >> (i % 64)) & 1;
    product<N>(f, c, x, y);
    sub_k<N>(c, c, v1, m);
    uint64_t* s = bit ? y : x;  // squared; the other one takes c
    square<N>(f, s, s);
    sub_k<N>(s, s, two, m);
    std::swap(bit ? x : y, c);
  }
  std::copy_n(x, N, lo);
  std::copy_n(y, N, hi);
}

// Karatsuba over wide products t0 = a_re·b_re, t1 = a_im·b_im and
// t2 = s1·s2 of the modular sums s1 = a_re + a_im, s2 = b_re + b_im. With
// w = 2m² − t1 both channels are non-negative and below 3m²:
// re = t0 + w ≡ t0 − t1, im = t2 + (w − t0) ≡ t2 − t0 − t1. The slots:
// t[0] holds t0 then t2 and im, t[1] t1 then w and w − t0, t[2] re.
template <size_t N>
void fp2_mul(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
             const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
             const uint64_t* m, uint64_t n0inv, const uint64_t* mm2,
             uint64_t subs) noexcept {
  Frame<N> f = frame<N>(m, n0inv, subs);
  f.in = ar;
  std::copy_n(br, N, f.b);
  mul_wide<N, 0>(&f);
  f.in = ai;
  std::copy_n(bi, N, f.b);
  mul_wide<N, 1>(&f);
  add_k<N>(f.a, ar, ai, m);  // the last reads of the inputs: the outputs
  add_k<N>(f.b, br, bi, m);  // may alias them
  auto& t = f.t;
  wide<N, true>(t[1], mm2, t[1]);    // w
  wide<N, false>(t[2], t[0], t[1]);  // re
  wide<N, true>(t[1], t[1], t[0]);   // w − t0
  f.out = c_re;
  redc<N, 2>(&f);  // its serial REDC rows overlap the independent product
  f.in = f.a;
  mul_wide<N, 0>(&f);
  wide<N, false>(t[0], t[0], t[1]);  // im
  f.out = c_im;
  redc<N, 0>(&f);
}

// re = (a_re + a_im)(a_re − a_im), im = (2·a_re)·a_im. 2·a_re and a_im
// wait in f.d and the wide slot, which the CIOS product leaves alone, so
// every input is read before an output is written.
template <size_t N>
void fp2_sqr(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
             const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept {
  Frame<N> f = frame<N>(m, n0inv);
  add_k<N>(f.d, ar, ar, m);
  std::copy_n(ai, N, f.t[0]);
  f.in = f.a;
  add_k<N>(f.a, ar, ai, m);
  sub_k<N>(f.b, ar, ai, m);
  f.out = c_re;
  mont_mul<N>(&f);
  f.in = f.d;
  std::copy_n(f.t[0], N, f.b);
  f.out = c_im;
  mont_mul<N>(&f);
}

#define HCPP_INSTANTIATE(N)                                                   \
  template void mul<N>(uint64_t*, const uint64_t*, const uint64_t*,          \
                       const uint64_t*, uint64_t) noexcept;                   \
  template void sqr<N>(uint64_t*, const uint64_t*, const uint64_t*,          \
                       uint64_t) noexcept;                                    \
  template void add_mod<N>(uint64_t*, const uint64_t*, const uint64_t*,      \
                           const uint64_t*) noexcept;                         \
  template void sub_mod<N>(uint64_t*, const uint64_t*, const uint64_t*,      \
                           const uint64_t*) noexcept;                         \
  template void fp2_mul<N>(uint64_t*, uint64_t*, const uint64_t*,            \
                           const uint64_t*, const uint64_t*, const uint64_t*, \
                           const uint64_t*, uint64_t, const uint64_t*,        \
                           uint64_t) noexcept;                                \
  template void fp2_sqr<N>(uint64_t*, uint64_t*, const uint64_t*,            \
                           const uint64_t*, const uint64_t*, uint64_t) noexcept; \
  template void lucas<N>(uint64_t*, uint64_t*, const uint64_t*,              \
                         const uint64_t*, const uint64_t*, size_t,            \
                         const uint64_t*, uint64_t) noexcept;
HCPP_INSTANTIATE(4)
HCPP_INSTANTIATE(8)

}  // namespace hcpp::mp::mulx
