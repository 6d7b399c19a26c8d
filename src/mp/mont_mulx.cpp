#include "src/mp/mont_mulx.h"

#include <cstdlib>

#if defined(__x86_64__) && defined(__BMI2__) && defined(__ADX__)
#define HCPP_HAVE_MULX_ADX 1
#include <immintrin.h>
#endif

namespace hcpp::mp::mulx {

#ifdef HCPP_HAVE_MULX_ADX

namespace {

using ull = unsigned long long;

// The algorithms here are limb-for-limb transcriptions of the portable
// kernels in mont.cpp; only the inner multiply-accumulate rows change shape.
// A row "acc[0..N] += x * y[0..N-1]" is computed as two independent carry
// chains — the MULX low products added at offset j and the high products at
// offset j+1 — the dual-chain pattern ADCX/ADOX exist for. GCC 12 does not
// map _addcarry_u64 onto them, though: the Release object holds MULX, ADD/ADC
// and SETC (131 of them) but no ADCX or ADOX, so both chains run through the
// one carry flag and the win over mont.cpp comes from MULX alone.

inline uint64_t add_n(uint64_t* r, const uint64_t* a, const uint64_t* b,
                      size_t n) noexcept {
  unsigned char c = 0;
  for (size_t i = 0; i < n; ++i) {
    c = _addcarry_u64(c, a[i], b[i], reinterpret_cast<ull*>(&r[i]));
  }
  return c;
}

inline uint64_t sub_n(uint64_t* r, const uint64_t* a, const uint64_t* b,
                      size_t n) noexcept {
  unsigned char c = 0;
  for (size_t i = 0; i < n; ++i) {
    c = _subborrow_u64(c, a[i], b[i], reinterpret_cast<ull*>(&r[i]));
  }
  return c;
}

inline bool geq_n(const uint64_t* a, const uint64_t* b, size_t n) noexcept {
  for (size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

inline void wide_add(uint64_t* r, const uint64_t* o, size_t len) noexcept {
  unsigned char c = 0;
  for (size_t i = 0; i < len; ++i) {
    c = _addcarry_u64(c, r[i], o[i], reinterpret_cast<ull*>(&r[i]));
  }
}

inline void wide_sub(uint64_t* r, const uint64_t* o, size_t len) noexcept {
  unsigned char c = 0;
  for (size_t i = 0; i < len; ++i) {
    c = _subborrow_u64(c, r[i], o[i], reinterpret_cast<ull*>(&r[i]));
  }
}

inline void ripple_add(uint64_t* r, uint64_t v, size_t len) noexcept {
  unsigned char c = _addcarry_u64(0, r[0], v, reinterpret_cast<ull*>(&r[0]));
  for (size_t i = 1; c != 0 && i < len; ++i) {
    c = _addcarry_u64(c, r[i], 0, reinterpret_cast<ull*>(&r[i]));
  }
}

// CIOS product, accumulator t[N+2], one conditional final subtraction —
// the same schedule as cios_mul<NF> in mont.cpp.
template <size_t N>
void cios_mul_impl(uint64_t* r, const uint64_t* a, const uint64_t* b,
                   const uint64_t* m, uint64_t n0inv) noexcept {
  uint64_t t[N + 2] = {0};
  for (size_t i = 0; i < N; ++i) {
    // t[0..N+1] += a[i] * b (dual-chain multiply-accumulate).
    {
      ull hi;
      ull lo = _mulx_u64(a[i], b[0], &hi);
      unsigned char cf =
          _addcarry_u64(0, t[0], lo, reinterpret_cast<ull*>(&t[0]));
      unsigned char of = 0;
      for (size_t j = 1; j < N; ++j) {
        ull hi2;
        lo = _mulx_u64(a[i], b[j], &hi2);
        of = _addcarry_u64(of, t[j], hi, reinterpret_cast<ull*>(&t[j]));
        cf = _addcarry_u64(cf, t[j], lo, reinterpret_cast<ull*>(&t[j]));
        hi = hi2;
      }
      of = _addcarry_u64(of, t[N], hi, reinterpret_cast<ull*>(&t[N]));
      cf = _addcarry_u64(cf, t[N], 0, reinterpret_cast<ull*>(&t[N]));
      t[N + 1] = static_cast<uint64_t>(of) + cf;
    }
    // Reduce: u = t[0]·n0inv; t += u·m; shift one limb down (folded into
    // the stores at j-1).
    {
      uint64_t u = t[0] * n0inv;
      ull hi;
      ull discard;
      ull lo = _mulx_u64(u, m[0], &hi);
      unsigned char cf = _addcarry_u64(0, t[0], lo, &discard);  // low limb: 0
      unsigned char of = 0;
      for (size_t j = 1; j < N; ++j) {
        ull hi2;
        lo = _mulx_u64(u, m[j], &hi2);
        uint64_t v = t[j];
        of = _addcarry_u64(of, v, hi, reinterpret_cast<ull*>(&v));
        cf = _addcarry_u64(cf, v, lo, reinterpret_cast<ull*>(&v));
        t[j - 1] = v;
        hi = hi2;
      }
      uint64_t v = t[N];
      of = _addcarry_u64(of, v, hi, reinterpret_cast<ull*>(&v));
      cf = _addcarry_u64(cf, v, 0, reinterpret_cast<ull*>(&v));
      t[N - 1] = v;
      t[N] = t[N + 1] + of + cf;
    }
  }
  if (t[N] != 0 || geq_n(t, m, N)) sub_n(t, t, m, N);
  for (size_t i = 0; i < N; ++i) r[i] = t[i];
}

// Schoolbook wide product r[0..2N) = a·b.
template <size_t N>
void mul_wide_impl(uint64_t* r, const uint64_t* a,
                   const uint64_t* b) noexcept {
  for (size_t i = 0; i < 2 * N; ++i) r[i] = 0;
  for (size_t i = 0; i < N; ++i) {
    ull hi;
    ull lo = _mulx_u64(a[i], b[0], &hi);
    unsigned char cf =
        _addcarry_u64(0, r[i], lo, reinterpret_cast<ull*>(&r[i]));
    unsigned char of = 0;
    for (size_t j = 1; j < N; ++j) {
      ull hi2;
      lo = _mulx_u64(a[i], b[j], &hi2);
      of = _addcarry_u64(of, r[i + j], hi, reinterpret_cast<ull*>(&r[i + j]));
      cf = _addcarry_u64(cf, r[i + j], lo, reinterpret_cast<ull*>(&r[i + j]));
      hi = hi2;
    }
    r[i + N] = hi + of + cf;  // r[i+N] was zero; hi ≤ 2^64−2, no overflow
  }
}

// Montgomery reduction of the wide accumulator t[0..2N+2); result to r.
template <size_t N>
void redc_wide_impl(uint64_t* r, uint64_t* t, const uint64_t* m,
                    uint64_t n0inv) noexcept {
  constexpr size_t kWide = 2 * N + 2;
  for (size_t i = 0; i < N; ++i) {
    uint64_t u = t[i] * n0inv;
    ull hi;
    ull lo = _mulx_u64(u, m[0], &hi);
    unsigned char cf =
        _addcarry_u64(0, t[i], lo, reinterpret_cast<ull*>(&t[i]));
    unsigned char of = 0;
    for (size_t j = 1; j < N; ++j) {
      ull hi2;
      lo = _mulx_u64(u, m[j], &hi2);
      of = _addcarry_u64(of, t[i + j], hi, reinterpret_cast<ull*>(&t[i + j]));
      cf = _addcarry_u64(cf, t[i + j], lo, reinterpret_cast<ull*>(&t[i + j]));
      hi = hi2;
    }
    ripple_add(t + i + N, hi + of + cf, kWide - i - N);
  }
  while (t[2 * N] != 0 || geq_n(t + N, m, N)) {
    uint64_t borrow = sub_n(t + N, t + N, m, N);
    t[2 * N] -= borrow;
  }
  for (size_t i = 0; i < N; ++i) r[i] = t[N + i];
}

// Wide product of (n+1)-limb sums, mirroring mul_wide_sum<NF>.
template <size_t N>
void mul_wide_sum_impl(uint64_t* t, const uint64_t* s, uint64_t carry_s,
                       const uint64_t* d, uint64_t carry_d) noexcept {
  mul_wide_impl<N>(t, s, d);
  t[2 * N] = 0;
  t[2 * N + 1] = 0;
  if (carry_s != 0) {
    uint64_t c = add_n(t + N, t + N, d, N);
    ripple_add(t + 2 * N, c, 2);
  }
  if (carry_d != 0) {
    uint64_t c = add_n(t + N, t + N, s, N);
    ripple_add(t + 2 * N, c, 2);
  }
  if ((carry_s & carry_d) != 0) ripple_add(t + 2 * N, 1, 2);
}

template <size_t N>
void fp2_mul_mulx(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
                  const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
                  const uint64_t* m, uint64_t n0inv,
                  const uint64_t* mm2) noexcept {
  constexpr size_t kWide = 2 * N + 2;
  uint64_t t0[kWide] = {0};
  uint64_t t1[kWide] = {0};
  uint64_t t2[kWide];
  mul_wide_impl<N>(t0, ar, br);
  mul_wide_impl<N>(t1, ai, bi);
  uint64_t s1[N];
  uint64_t s2[N];
  uint64_t c1 = add_n(s1, ar, ai, N);
  uint64_t c2 = add_n(s2, br, bi, N);
  mul_wide_sum_impl<N>(t2, s1, c1, s2, c2);
  wide_sub(t2, t0, kWide);
  wide_sub(t2, t1, kWide);
  wide_add(t0, mm2, kWide);
  wide_sub(t0, t1, kWide);
  redc_wide_impl<N>(c_re, t0, m, n0inv);
  redc_wide_impl<N>(c_im, t2, m, n0inv);
}

template <size_t N>
void fp2_sqr_mulx(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
                  const uint64_t* ai, const uint64_t* m,
                  uint64_t n0inv) noexcept {
  constexpr size_t kWide = 2 * N + 2;
  uint64_t s1[N];
  uint64_t s2[N];
  uint64_t diff[N];
  uint64_t c1 = add_n(s1, ar, ai, N);
  sub_n(diff, m, ai, N);
  uint64_t c2 = add_n(s2, ar, diff, N);
  uint64_t t[kWide];
  mul_wide_sum_impl<N>(t, s1, c1, s2, c2);
  redc_wide_impl<N>(c_re, t, m, n0inv);
  uint64_t t3[kWide] = {0};
  mul_wide_impl<N>(t3, ar, ai);
  uint64_t carry = 0;
  for (size_t i = 0; i < 2 * N + 1; ++i) {
    uint64_t next = t3[i] >> 63;
    t3[i] = (t3[i] << 1) | carry;
    carry = next;
  }
  redc_wide_impl<N>(c_im, t3, m, n0inv);
}

}  // namespace

bool compiled() noexcept { return true; }

void cios_mul4(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, uint64_t n0inv) noexcept {
  cios_mul_impl<4>(r, a, b, m, n0inv);
}
void cios_mul8(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, uint64_t n0inv) noexcept {
  cios_mul_impl<8>(r, a, b, m, n0inv);
}
void fp2_mul4(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
              const uint64_t* m, uint64_t n0inv,
              const uint64_t* mm2) noexcept {
  fp2_mul_mulx<4>(c_re, c_im, ar, ai, br, bi, m, n0inv, mm2);
}
void fp2_mul8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
              const uint64_t* m, uint64_t n0inv,
              const uint64_t* mm2) noexcept {
  fp2_mul_mulx<8>(c_re, c_im, ar, ai, br, bi, m, n0inv, mm2);
}
void fp2_sqr4(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept {
  fp2_sqr_mulx<4>(c_re, c_im, ar, ai, m, n0inv);
}
void fp2_sqr8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept {
  fp2_sqr_mulx<8>(c_re, c_im, ar, ai, m, n0inv);
}

#else  // !HCPP_HAVE_MULX_ADX

// Built without BMI2/ADX: compiled() says so and the kernels are traps —
// MontCtx never selects this path when compiled() is false.
bool compiled() noexcept { return false; }

void cios_mul4(uint64_t*, const uint64_t*, const uint64_t*, const uint64_t*,
               uint64_t) noexcept {
  std::abort();
}
void cios_mul8(uint64_t*, const uint64_t*, const uint64_t*, const uint64_t*,
               uint64_t) noexcept {
  std::abort();
}
void fp2_mul4(uint64_t*, uint64_t*, const uint64_t*, const uint64_t*,
              const uint64_t*, const uint64_t*, const uint64_t*, uint64_t,
              const uint64_t*) noexcept {
  std::abort();
}
void fp2_mul8(uint64_t*, uint64_t*, const uint64_t*, const uint64_t*,
              const uint64_t*, const uint64_t*, const uint64_t*, uint64_t,
              const uint64_t*) noexcept {
  std::abort();
}
void fp2_sqr4(uint64_t*, uint64_t*, const uint64_t*, const uint64_t*,
              const uint64_t*, uint64_t) noexcept {
  std::abort();
}
void fp2_sqr8(uint64_t*, uint64_t*, const uint64_t*, const uint64_t*,
              const uint64_t*, uint64_t) noexcept {
  std::abort();
}

#endif  // HCPP_HAVE_MULX_ADX

}  // namespace hcpp::mp::mulx
