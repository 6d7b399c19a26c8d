#include "src/mp/mont_mulx.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

namespace hcpp::mp::mulx {

#if defined(__x86_64__) && defined(__GNUC__)

namespace {

// Operands of one Montgomery product, addressed by the kernel through a
// single base register (%rsi) so every other general-purpose register except
// %rsp and %rbp is free for the accumulator.
template <size_t N>
struct Frame {
  uint64_t a[N];
  uint64_t b[N];
  uint64_t m[N];
  uint64_t n0inv;
  uint64_t r[N];
};

// CIOS over N limbs keeps an N+2-limb accumulator t[0..N+1] in N+2
// registers. Each outer step i runs two rows with rdx as the multiplier:
// t += a[i]·b, then t += u·m with u = t[0]·n0inv. A row is two independent
// carry chains — low products into t[j] on OF (ADOX), high products into
// t[j+1] on CF (ADCX) — so the MULX of one limb overlaps the adds of the
// last. The reduction row leaves t[0] = 0 in its register; the shift by one
// limb is a rename: the next step passes the register list rotated by one,
// with the zeroed register as the new top limb.
#define HCPP_STEP(v, j, tj, tj1)                       \
  "mulxq 8*" #j "+%c[" #v "](%%rsi), %%rax, %%rbx\n\t" \
  "adoxq %%rax, " tj "\n\t"                            \
  "adcxq %%rbx, " tj1 "\n\t"

// Folds both chains' carries into t[N] and t[N+1].
#define HCPP_ROW_END(tn, tn1) \
  "movl $0, %%eax\n\t"        \
  "adcxq %%rax, " tn1 "\n\t"  \
  "adoxq %%rax, " tn "\n\t"   \
  "adoxq %%rax, " tn1 "\n\t"

// One row over N limbs; the XOR clears CF and OF.
#define HCPP_ROW4(v, t0, t1, t2, t3, t4, t5)                             \
  "xorl %%eax, %%eax\n\t"                                                \
  HCPP_STEP(v, 0, t0, t1) HCPP_STEP(v, 1, t1, t2) HCPP_STEP(v, 2, t2, t3) \
  HCPP_STEP(v, 3, t3, t4) HCPP_ROW_END(t4, t5)
#define HCPP_ROW8(v, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9)             \
  "xorl %%eax, %%eax\n\t"                                                \
  HCPP_STEP(v, 0, t0, t1) HCPP_STEP(v, 1, t1, t2) HCPP_STEP(v, 2, t2, t3) \
  HCPP_STEP(v, 3, t3, t4) HCPP_STEP(v, 4, t4, t5) HCPP_STEP(v, 5, t5, t6) \
  HCPP_STEP(v, 6, t6, t7) HCPP_STEP(v, 7, t7, t8) HCPP_ROW_END(t8, t9)

// One outer CIOS step: multiply row by a[i], then reduction row.
#define HCPP_ITER(ROW, i, t0, ...)                           \
  "movq 8*" #i "(%%rsi), %%rdx\n\t" ROW(b, t0, __VA_ARGS__) \
  "movq " t0 ", %%rdx\n\t"                                   \
  "imulq %c[inv](%%rsi), %%rdx\n\t" ROW(m, t0, __VA_ARGS__)

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

// Conditional subtraction of m from the value t:top < 2m, branch-free: store
// t to r, subtract m (top absorbs the borrow), reload r where that borrowed.
#define HCPP_REDUCE(EACH, top, r, m, ...)                                   \
  EACH(HCPP_ST, , r, __VA_ARGS__) "clc\n\t"                                \
  EACH(HCPP_OP, "sbbq", m, __VA_ARGS__) "sbbq $0, " top "\n\t"             \
  EACH(HCPP_OP, "cmovcq", r, __VA_ARGS__) EACH(HCPP_ST, , r, __VA_ARGS__)

// r = a + b mod m and r = a − b mod m for a, b < m; r may alias a or b.
#define HCPP_ADD_MOD(EACH, ...)                                             \
  "xorl %%eax, %%eax\n\t" EACH(HCPP_OP, "movq", "0(%[a])", __VA_ARGS__)     \
  EACH(HCPP_OP, "adcq", "0(%[b])", __VA_ARGS__) "adcq $0, %%rax\n\t"       \
  HCPP_REDUCE(EACH, "%%rax", "0(%[r])", "0(%[m])", __VA_ARGS__)
#define HCPP_SUB_MOD(EACH, ...)                                             \
  EACH(HCPP_OP, "movq", "0(%[a])", __VA_ARGS__) "clc\n\t"                   \
  EACH(HCPP_OP, "sbbq", "0(%[b])", __VA_ARGS__) "sbbq %%rax, %%rax\n\t"     \
  EACH(HCPP_ST, , "0(%[r])", __VA_ARGS__) "clc\n\t"                         \
  EACH(HCPP_OP, "adcq", "0(%[m])", __VA_ARGS__) "testq %%rax, %%rax\n\t"    \
  EACH(HCPP_OP, "cmovzq", "0(%[r])", __VA_ARGS__)                            \
  EACH(HCPP_ST, , "0(%[r])", __VA_ARGS__)
#define HCPP_REGS4 "%%r8", "%%r9", "%%r10", "%%r11"
#define HCPP_REGS8 HCPP_REGS4, "%%r12", "%%r13", "%%r14", "%%r15"
#define HCPP_CLOBBER4 "rax", "r8", "r9", "r10", "r11", "cc", "memory"
#define HCPP_CLOBBER8 HCPP_CLOBBER4, "r12", "r13", "r14", "r15"
#define HCPP_MOD_ASM(BODY, N)                         \
  asm(BODY(HCPP_EACH##N, HCPP_REGS##N)                \
      :                                               \
      : [r] "r"(r), [a] "r"(a), [b] "r"(b), [m] "r"(m) \
      : HCPP_CLOBBER##N)

#define HCPP_ZERO(t) "xorq " t ", " t "\n\t"

#define HCPP_FRAME_OPERANDS(N)                                         \
  "S"(f), [b] "i"(offsetof(Frame<N>, b)), [m] "i"(offsetof(Frame<N>, m)), \
      [inv] "i"(offsetof(Frame<N>, n0inv)), [r] "i"(offsetof(Frame<N>, r))

// f->r = f->a · f->b · R^{-1} mod f->m, for f->a, f->b < f->m.
template <size_t N>
void mont_mul(Frame<N>* f) noexcept;

template <>
void mont_mul<4>(Frame<4>* f) noexcept {
#define A "%%rcx"
#define B "%%rdi"
#define C "%%r8"
#define D "%%r9"
#define E "%%r10"
#define F "%%r11"
  asm(HCPP_ZERO(A) HCPP_ZERO(B) HCPP_ZERO(C) HCPP_ZERO(D) HCPP_ZERO(E)
      HCPP_ZERO(F)
      HCPP_ITER(HCPP_ROW4, 0, A, B, C, D, E, F)
      HCPP_ITER(HCPP_ROW4, 1, B, C, D, E, F, A)
      HCPP_ITER(HCPP_ROW4, 2, C, D, E, F, A, B)
      HCPP_ITER(HCPP_ROW4, 3, D, E, F, A, B, C)
      HCPP_REDUCE(HCPP_EACH4, C, "%c[r](%%rsi)", "%c[m](%%rsi)", E, F, A, B)
      :
      : HCPP_FRAME_OPERANDS(4)
      : "rbx", "rcx", "rdx", "rdi", HCPP_CLOBBER4);
}

template <>
void mont_mul<8>(Frame<8>* f) noexcept {
#define G "%%r12"
#define H "%%r13"
#define I "%%r14"
#define J "%%r15"
  asm(HCPP_ZERO(A) HCPP_ZERO(B) HCPP_ZERO(C) HCPP_ZERO(D) HCPP_ZERO(E)
      HCPP_ZERO(F) HCPP_ZERO(G) HCPP_ZERO(H) HCPP_ZERO(I) HCPP_ZERO(J)
      HCPP_ITER(HCPP_ROW8, 0, A, B, C, D, E, F, G, H, I, J)
      HCPP_ITER(HCPP_ROW8, 1, B, C, D, E, F, G, H, I, J, A)
      HCPP_ITER(HCPP_ROW8, 2, C, D, E, F, G, H, I, J, A, B)
      HCPP_ITER(HCPP_ROW8, 3, D, E, F, G, H, I, J, A, B, C)
      HCPP_ITER(HCPP_ROW8, 4, E, F, G, H, I, J, A, B, C, D)
      HCPP_ITER(HCPP_ROW8, 5, F, G, H, I, J, A, B, C, D, E)
      HCPP_ITER(HCPP_ROW8, 6, G, H, I, J, A, B, C, D, E, F)
      HCPP_ITER(HCPP_ROW8, 7, H, I, J, A, B, C, D, E, F, G)
      HCPP_REDUCE(HCPP_EACH8, G, "%c[r](%%rsi)", "%c[m](%%rsi)", I, J, A, B,
                  C, D, E, F)
      :
      : HCPP_FRAME_OPERANDS(8)
      : "rbx", "rcx", "rdx", "rdi", HCPP_CLOBBER8);
#undef A
#undef B
#undef C
#undef D
#undef E
#undef F
#undef G
#undef H
#undef I
#undef J
}

template <size_t N>
void add_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) noexcept {
  if constexpr (N == 4) HCPP_MOD_ASM(HCPP_ADD_MOD, 4);
  else HCPP_MOD_ASM(HCPP_ADD_MOD, 8);
}

template <size_t N>
void sub_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) noexcept {
  if constexpr (N == 4) HCPP_MOD_ASM(HCPP_SUB_MOD, 4);
  else HCPP_MOD_ASM(HCPP_SUB_MOD, 8);
}

template <size_t N>
Frame<N> frame(const uint64_t* m, uint64_t n0inv) noexcept {
  Frame<N> f;
  std::copy_n(m, N, f.m);
  f.n0inv = n0inv;
  return f;
}

// r = a·b·R^{-1} through frame f (whose m and n0inv are already set).
template <size_t N>
void product(Frame<N>& f, uint64_t* r, const uint64_t* a,
             const uint64_t* b) noexcept {
  std::copy_n(a, N, f.a);
  std::copy_n(b, N, f.b);
  mont_mul<N>(&f);
  std::copy_n(f.r, N, r);
}

template <size_t N>
void mul(uint64_t* r, const uint64_t* a, const uint64_t* b,
         const uint64_t* m, uint64_t n0inv) noexcept {
  Frame<N> f = frame<N>(m, n0inv);
  product<N>(f, r, a, b);
}

// Karatsuba: re = a_re·b_re − a_im·b_im,
// im = (a_re + a_im)(b_re + b_im) − a_re·b_re − a_im·b_im.
template <size_t N>
void fp2_mul(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
             const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
             const uint64_t* m, uint64_t n0inv) noexcept {
  Frame<N> f = frame<N>(m, n0inv);
  uint64_t v0[N];
  uint64_t v1[N];
  product<N>(f, v0, ar, br);
  product<N>(f, v1, ai, bi);
  add_mod<N>(f.a, ar, ai, m);
  add_mod<N>(f.b, br, bi, m);
  mont_mul<N>(&f);
  sub_mod<N>(c_re, v0, v1, m);
  sub_mod<N>(c_im, f.r, v0, m);
  sub_mod<N>(c_im, c_im, v1, m);
}

// re = (a_re + a_im)(a_re − a_im), im = (2·a_re)·a_im.
template <size_t N>
void fp2_sqr(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
             const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept {
  Frame<N> f = frame<N>(m, n0inv);
  add_mod<N>(f.a, ar, ai, m);
  sub_mod<N>(f.b, ar, ai, m);
  mont_mul<N>(&f);
  std::copy_n(f.r, N, c_re);
  add_mod<N>(f.a, ar, ar, m);
  std::copy_n(ai, N, f.b);
  mont_mul<N>(&f);
  std::copy_n(f.r, N, c_im);
}

}  // namespace

bool compiled() noexcept { return true; }

#else  // not x86-64 GCC/Clang

namespace {

// No asm kernel for this target: compiled() says so and the entry points
// trap — MontCtx never selects them when compiled() is false.
template <size_t N>
void mul(uint64_t*, const uint64_t*, const uint64_t*, const uint64_t*,
         uint64_t) noexcept {
  std::abort();
}
template <size_t N>
void fp2_mul(uint64_t*, uint64_t*, const uint64_t*, const uint64_t*,
             const uint64_t*, const uint64_t*, const uint64_t*,
             uint64_t) noexcept {
  std::abort();
}
template <size_t N>
void fp2_sqr(uint64_t*, uint64_t*, const uint64_t*, const uint64_t*,
             const uint64_t*, uint64_t) noexcept {
  std::abort();
}

}  // namespace

bool compiled() noexcept { return false; }

#endif

void cios_mul4(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, uint64_t n0inv) noexcept {
  mul<4>(r, a, b, m, n0inv);
}
void cios_mul8(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, uint64_t n0inv) noexcept {
  mul<8>(r, a, b, m, n0inv);
}
void fp2_mul4(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
              const uint64_t* m, uint64_t n0inv) noexcept {
  fp2_mul<4>(c_re, c_im, ar, ai, br, bi, m, n0inv);
}
void fp2_mul8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
              const uint64_t* m, uint64_t n0inv) noexcept {
  fp2_mul<8>(c_re, c_im, ar, ai, br, bi, m, n0inv);
}
void fp2_sqr4(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept {
  fp2_sqr<4>(c_re, c_im, ar, ai, m, n0inv);
}
void fp2_sqr8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept {
  fp2_sqr<8>(c_re, c_im, ar, ai, m, n0inv);
}

}  // namespace hcpp::mp::mulx
