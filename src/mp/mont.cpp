#include "src/mp/mont.h"

#include <stdexcept>
#include <vector>

#include "src/mp/dispatch.h"
#include "src/mp/safegcd.h"
#include "src/obs/metrics.h"

namespace hcpp::mp {

using uint128 = unsigned __int128;

namespace {

// Whether the fixed-width MULX/ADX kernels are usable on this host. Sampled
// once per MontCtx construction so a context keeps one kernel for its whole
// lifetime (HCPP_FORCE_GENERIC toggles only affect contexts built after a
// refresh_dispatch()).
bool mulx_available() noexcept {
  return mulx::compiled() && cpu_features().bmi2 && cpu_features().adx &&
         !force_generic();
}

// Whether the IFMA lane kernels are usable, sampled like mulx_available().
bool ifma_available() noexcept {
  return ifma::compiled() && cpu_features().avx512ifma && !force_generic();
}

// -m^{-1} mod 2^64 via Newton iteration (m odd).
uint64_t neg_inv64(uint64_t m) noexcept {
  uint64_t x = m;  // 3-bit-correct seed: m * m ≡ 1 (mod 8) for odd m
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;  // doubles correct bits
  return ~x + 1;  // -(m^{-1})
}

// Every kernel below is templated on NF, the compile-time limb count of the
// hot parameter sets (4 for the 256-bit test modulus, 8 for the 512-bit
// production one). NF = 0 selects the generic instantiation whose loop
// bounds come from the runtime argument — the fallback for odd widths such
// as the 150/160-bit scalar fields. With NF fixed the compiler fully
// unrolls the limb loops and keeps the accumulator window in registers.
template <size_t NF>
constexpr size_t width(size_t n_rt) noexcept {
  return NF == 0 ? n_rt : NF;
}

// Runs slow(NF), the portable kernel unrolled for NF = n at n = 4 and 8,
// else the runtime-width loop (NF = 0), with NF a std::integral_constant.
template <typename Slow>
void portable(size_t n, Slow&& slow) {
  switch (n) {
    case 4: return slow(std::integral_constant<size_t, 4>{});
    case 8: return slow(std::integral_constant<size_t, 8>{});
    default: return slow(std::integral_constant<size_t, 0>{});
  }
}

// n-limb helpers (loop bounds constant-fold in the fixed-width kernels).
inline uint64_t add_n(uint64_t* r, const uint64_t* a, const uint64_t* b,
                      size_t n) noexcept {
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint128 s = static_cast<uint128>(a[i]) + b[i] + carry;
    r[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  return carry;
}

inline uint64_t sub_n(uint64_t* r, const uint64_t* a, const uint64_t* b,
                      size_t n) noexcept {
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    uint128 d = static_cast<uint128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>((d >> 64) & 1);
  }
  return borrow;
}

inline bool geq_n(const uint64_t* a, const uint64_t* b, size_t n) noexcept {
  for (size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// r = a + b mod m and r = a − b mod m over n limbs, for a, b < m.
template <size_t NF>
void add_mod_n(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  if (add_n(r, a, b, n) != 0 || geq_n(r, m, n)) sub_n(r, r, m, n);
}

template <size_t NF>
void sub_mod_n(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  if (sub_n(r, a, b, n) != 0) add_n(r, r, m, n);
}

// CIOS Montgomery product over n limbs: r = a·b·R^{-1} mod m, with
// a, b < m < R = 2^{64n}. The interleaved reduction keeps the accumulator
// within n+2 limbs and the result needs at most one final subtraction.
template <size_t NF>
void cios_mul(uint64_t* r, const uint64_t* a, const uint64_t* b,
              const uint64_t* m, uint64_t n0inv, size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  constexpr size_t kAcc = (NF == 0 ? kLimbs : NF) + 2;
  uint64_t t[kAcc] = {0};
  for (size_t i = 0; i < n; ++i) {
    // t += a[i] * b
    uint64_t carry = 0;
    for (size_t j = 0; j < n; ++j) {
      uint128 cur = static_cast<uint128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    uint128 s = static_cast<uint128>(t[n]) + carry;
    t[n] = static_cast<uint64_t>(s);
    t[n + 1] = static_cast<uint64_t>(s >> 64);
    // Reduce: u = t[0] * n0inv mod 2^64; t += u*m; t >>= 64
    uint64_t u = t[0] * n0inv;
    uint128 cur = static_cast<uint128>(u) * m[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < n; ++j) {
      cur = static_cast<uint128>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    s = static_cast<uint128>(t[n]) + carry;
    t[n - 1] = static_cast<uint64_t>(s);
    t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
  }
  if (t[n] != 0 || geq_n(t, m, n)) sub_n(t, t, m, n);
  for (size_t i = 0; i < n; ++i) r[i] = t[i];
}

// Schoolbook wide product r[0..2n) = a·b of two n-limb operands.
template <size_t NF>
void mul_wide_n(uint64_t* r, const uint64_t* a, const uint64_t* b,
                size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  for (size_t i = 0; i < 2 * n; ++i) r[i] = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < n; ++j) {
      uint128 cur = static_cast<uint128>(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    r[i + n] = carry;
  }
}

// r[0..len) += o[0..len) (no carry out by the callers' range contracts).
inline void wide_add(uint64_t* r, const uint64_t* o, size_t len) noexcept {
  uint64_t carry = 0;
  for (size_t i = 0; i < len; ++i) {
    uint128 s = static_cast<uint128>(r[i]) + o[i] + carry;
    r[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
}

// r[0..len) -= o[0..len); callers guarantee r >= o.
inline void wide_sub(uint64_t* r, const uint64_t* o, size_t len) noexcept {
  uint64_t borrow = 0;
  for (size_t i = 0; i < len; ++i) {
    uint128 d = static_cast<uint128>(r[i]) - o[i] - borrow;
    r[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>((d >> 64) & 1);
  }
}

// Adds `v` into r[0..len) starting at r[0], rippling the carry upward.
inline void ripple_add(uint64_t* r, uint64_t v, size_t len) noexcept {
  uint64_t carry = v;
  for (size_t i = 0; carry != 0 && i < len; ++i) {
    uint128 s = static_cast<uint128>(r[i]) + carry;
    r[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
}

// Montgomery reduction of a wide accumulator t[0..2n+2) with value
// T < c·m·R for a small constant c (the lazy-reduction channels stay below
// 5m^2 < 5mR): r = T·R^{-1} mod m, fully reduced to [0, m). The reduced
// value is < (c+1)·m, so the tail loop runs at most a handful of times.
template <size_t NF>
void redc_wide(uint64_t* r, uint64_t* t, const uint64_t* m, uint64_t n0inv,
               size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  const size_t wide = 2 * n + 2;
  for (size_t i = 0; i < n; ++i) {
    uint64_t u = t[i] * n0inv;
    uint64_t carry = 0;
    for (size_t j = 0; j < n; ++j) {
      uint128 cur = static_cast<uint128>(u) * m[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    for (size_t j = i + n; carry != 0 && j < wide; ++j) {
      uint128 s = static_cast<uint128>(t[j]) + carry;
      t[j] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
  }
  // Result lives in t[n..2n] (t[2n+1] is zero: the value is < (c+1)·m).
  while (t[2 * n] != 0 || geq_n(t + n, m, n)) {
    uint64_t borrow = sub_n(t + n, t + n, m, n);
    t[2 * n] -= borrow;
  }
  for (size_t i = 0; i < n; ++i) r[i] = t[n + i];
}

constexpr size_t kWide = 2 * kLimbs + 2;

// Wide product of the (n+1)-limb sums (s, carry_s)·(d, carry_d) used by the
// Karatsuba cross term: t = s·d + carry_s·d·2^{64n} + carry_d·s·2^{64n}
// + carry_s·carry_d·2^{128n}. Sums are < 2m < 2^{64n+1}, so the carries are
// single bits and the product fits 2n+1 limbs.
template <size_t NF>
void mul_wide_sum(uint64_t* t, const uint64_t* s, uint64_t carry_s,
                  const uint64_t* d, uint64_t carry_d, size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  mul_wide_n<NF>(t, s, d, n);
  t[2 * n] = 0;
  t[2 * n + 1] = 0;
  if (carry_s != 0) {
    uint64_t c = add_n(t + n, t + n, d, n);
    ripple_add(t + 2 * n, c, 2);
  }
  if (carry_d != 0) {
    uint64_t c = add_n(t + n, t + n, s, n);
    ripple_add(t + 2 * n, c, 2);
  }
  if ((carry_s & carry_d) != 0) ripple_add(t + 2 * n, 1, 2);
}

// Lazy-reduction Karatsuba product over F_m[i]/(i^2+1):
//   re = a_re·b_re − a_im·b_im,  im = (a_re+a_im)(b_re+b_im) − t0 − t1.
// Three wide products and two Montgomery reductions; the re channel is made
// subtraction-free by the 2m^2 bias (t0 + 2m^2 − t1 ∈ (0, 3m^2]), the im
// channel is exact and non-negative by construction (< 2m^2).
template <size_t NF>
void fp2_mul_impl(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
                  const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
                  const uint64_t* m, uint64_t n0inv, const uint64_t* mm2,
                  size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  const size_t wide = 2 * n + 2;
  uint64_t t0[kWide] = {0};
  uint64_t t1[kWide] = {0};
  uint64_t t2[kWide];
  mul_wide_n<NF>(t0, ar, br, n);
  mul_wide_n<NF>(t1, ai, bi, n);
  uint64_t s1[kLimbs] = {0};
  uint64_t s2[kLimbs] = {0};
  uint64_t c1 = add_n(s1, ar, ai, n);
  uint64_t c2 = add_n(s2, br, bi, n);
  mul_wide_sum<NF>(t2, s1, c1, s2, c2, n);
  // im = t2 − t0 − t1 (exact: equals a_re·b_im + a_im·b_re ≥ 0).
  wide_sub(t2, t0, wide);
  wide_sub(t2, t1, wide);
  // re = t0 + 2m^2 − t1 ∈ (0, 3m^2].
  wide_add(t0, mm2, wide);
  wide_sub(t0, t1, wide);
  redc_wide<NF>(c_re, t0, m, n0inv, n);
  redc_wide<NF>(c_im, t2, m, n0inv, n);
}

// Lazy squaring: re = (a_re+a_im)·(a_re + (m − a_im)) ≡ a_re² − a_im²
// (< 4m², subtraction-free), im = 2·a_re·a_im (< 2m²).
template <size_t NF>
void fp2_sqr_impl(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
                  const uint64_t* ai, const uint64_t* m, uint64_t n0inv,
                  size_t n_rt) noexcept {
  const size_t n = width<NF>(n_rt);
  uint64_t s1[kLimbs] = {0};
  uint64_t s2[kLimbs] = {0};
  uint64_t diff[kLimbs];
  uint64_t c1 = add_n(s1, ar, ai, n);
  sub_n(diff, m, ai, n);  // m − a_im ∈ (0, m], no borrow
  uint64_t c2 = add_n(s2, ar, diff, n);
  uint64_t t[kWide];
  mul_wide_sum<NF>(t, s1, c1, s2, c2, n);
  uint64_t t3[kWide] = {0};
  mul_wide_n<NF>(t3, ar, ai, n);
  // Double in place: 2·a_re·a_im < 2m² fits 2n+1 limbs.
  uint64_t carry = 0;
  for (size_t i = 0; i < 2 * n + 1; ++i) {
    uint64_t next = t3[i] >> 63;
    t3[i] = (t3[i] << 1) | carry;
    carry = next;
  }
  redc_wide<NF>(c_re, t, m, n0inv, n);  // the inputs are read: may alias
  redc_wide<NF>(c_im, t3, m, n0inv, n);
}

}  // namespace

MontCtx::MontCtx(const U512& modulus) : m_(modulus) {
  if (!m_.is_odd() || m_.bit_length() < 2) {
    throw std::invalid_argument("MontCtx: modulus must be odd and > 2");
  }
  n_ = (m_.bit_length() + 63) / 64;
  n0inv_ = neg_inv64(m_.w[0]);
  mulx_ = (n_ == 4 || n_ == 8) && mulx_available() ? n_ : 0;
  // R mod m with R = 2^{64n}: take (R − 1) mod m (all-ones over the active
  // limbs) then add 1 (mod m).
  U512 r_minus1;
  for (size_t i = 0; i < n_; ++i) r_minus1.w[i] = ~0ull;
  one_ = add_mod(mod(r_minus1, m_), U512::from_u64(1), m_);
  // R^2 mod m by repeated doubling of R mod m, 64n times.
  U512 r2 = one_;
  for (size_t i = 0; i < 64 * n_; ++i) r2 = add_mod(r2, r2, m_);
  r2_ = r2;
  r3_ = mul(r2_, r2_);  // R^2·R^2·R^{-1} = R^3
  // 2·m^2, the wide bias constant of fp2_mul.
  U1024 m2;
  mul_wide(m2, m_, m_);
  uint64_t carry = 0;
  for (size_t i = 0; i < 2 * kLimbs; ++i) {
    mm2_[i] = (m2[i] << 1) | carry;
    carry = m2[i] >> 63;
  }
  mm2_[2 * kLimbs] = carry;
  mm2_[2 * kLimbs + 1] = 0;
  // ⌈3m/R⌉ or one more, from the top limb: 3m/R < 3·(m_top + 1)/2^64.
  fp2_subs_ = static_cast<uint64_t>(
                  (static_cast<uint128>(m_.w[n_ - 1]) * 3 + 3) >> 64) + 1;
  // The lane domain R' = 2^(52L) of the IFMA kernels: L = 10 radix-2^52
  // limbs at n = 8, 5 at n = 4, so R'/R = 2^(52L − 64n) and 4m < R' (one
  // conditional subtraction finishes every lane reduction).
  if (n_ == 4 || n_ == 8) {
    lane_.limbs = n_ == 8 ? 10 : 5;
    lane_.n0 = n0inv_ & ((1ull << 52) - 1);
    lane_.m = m_;
    lane_.from_lane = one_;
    const size_t shift = 52 * lane_.limbs - 64 * n_;
    U512 x = one_;
    for (size_t i = 0; i < shift; ++i) x = add_mod(x, x, m_);
    lane_.one = x;  // R'
    for (size_t i = 0; i < shift; ++i) x = add_mod(x, x, m_);
    lane_.to_lane = x;  // R'·R'/R
    lanes_ = ifma_available();
  }
}

U512 MontCtx::to_mont(const U512& a) const {
  // The n-limb kernels ignore limbs above the active width, so reduce any
  // out-of-range input the slow way first (parameter setup, hash outputs).
  if (!(a < m_)) return mul(mod(a, m_), r2_);
  return mul(a, r2_);
}

U512 MontCtx::from_mont(const U512& a) const noexcept {
  return mul(a, U512::from_u64(1));
}

void MontCtx::portable_mul(U512& r, const U512& a,
                           const U512& b) const noexcept {
  portable(n_, [&](auto NF) {
    cios_mul<NF>(r.w.data(), a.w.data(), b.w.data(), m_.w.data(), n0inv_, n_);
  });
}

void MontCtx::portable_add(U512& r, const U512& a,
                           const U512& b) const noexcept {
  portable(n_, [&](auto NF) {
    add_mod_n<NF>(r.w.data(), a.w.data(), b.w.data(), m_.w.data(), n_);
  });
}

void MontCtx::portable_sub(U512& r, const U512& a,
                           const U512& b) const noexcept {
  portable(n_, [&](auto NF) {
    sub_mod_n<NF>(r.w.data(), a.w.data(), b.w.data(), m_.w.data(), n_);
  });
}

U512 MontCtx::pow(const U512& base, const U512& exp) const noexcept {
  // Fixed 4-bit windows: 15 precomputed odd-and-even multiples trade the
  // bit-at-a-time multiply (one per set bit, ~n/2) for one multiply per
  // window (~n/4), at four squarings per window either way. Windows are
  // 4-bit-aligned, so they never straddle a 64-bit limb.
  size_t nbits = exp.bit_length();
  if (nbits == 0) return one_;
  U512 table[16];
  table[1] = base;
  for (size_t i = 2; i < 16; ++i) table[i] = mul(table[i - 1], base);
  U512 result = one_;
  bool started = false;
  for (size_t wi = (nbits + 3) / 4; wi-- > 0;) {
    if (started) {
      result = sqr(sqr(sqr(sqr(result))));
    }
    uint64_t d = (exp.w[(4 * wi) / 64] >> ((4 * wi) % 64)) & 15;
    if (d != 0) {
      result = started ? mul(result, table[d]) : table[d];
      started = true;
    }
  }
  return started ? result : one_;
}

U512 MontCtx::inv(const U512& a) const {
  obs::count(obs::kFieldInv);
  if (a.is_zero()) throw std::domain_error("MontCtx::inv: zero input");
  // a is xR; the divstep inverse gives (xR)^{-1} = x^{-1}R^{-1}; one
  // Montgomery product with R^3 lands on x^{-1}R.
  U512 r = mul(safegcd_inv(a, m_), r3_);
  // Self-check, which also rejects a non-invertible a (composite modulus):
  // (xR)(x^{-1}R)R^{-1} = R.
  if (mul(a, r) != one_) {
    throw std::domain_error("MontCtx::inv: not invertible");
  }
  return r;
}

void MontCtx::batch_inv(std::span<U512> xs) const {
  if (xs.empty()) return;
  // Prefix products pre[i] = xs[0]·…·xs[i-1] (Montgomery form), one shared
  // inversion of the total product, then peel inverses off backwards.
  std::vector<U512> pre(xs.size());
  U512 acc = one_;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i].is_zero()) throw std::domain_error("batch_inv: zero element");
    pre[i] = acc;
    acc = mul(acc, xs[i]);
  }
  U512 t = inv(acc);
  for (size_t i = xs.size(); i-- > 0;) {
    U512 orig = xs[i];
    xs[i] = mul(t, pre[i]);
    t = mul(t, orig);
  }
}

void MontCtx::fp2_mul(U512& c_re, U512& c_im, const U512& a_re,
                      const U512& a_im, const U512& b_re,
                      const U512& b_im) const noexcept {
  uint64_t *r0 = c_re.w.data(), *r1 = c_im.w.data();
  const uint64_t *ar = a_re.w.data(), *ai = a_im.w.data(),
                 *br = b_re.w.data(), *bi = b_im.w.data(), *m = m_.w.data();
  kernel(
      [&](auto N) {
        mulx::fp2_mul<N>(r0, r1, ar, ai, br, bi, m, n0inv_, mm2_.data(),
                         fp2_subs_);
      },
      [&] {
        portable(n_, [&](auto NF) {
          fp2_mul_impl<NF>(r0, r1, ar, ai, br, bi, m, n0inv_, mm2_.data(), n_);
        });
      },
      c_re, c_im);
}

void MontCtx::fp2_sqr(U512& c_re, U512& c_im, const U512& a_re,
                      const U512& a_im) const noexcept {
  uint64_t *r0 = c_re.w.data(), *r1 = c_im.w.data();
  const uint64_t *ar = a_re.w.data(), *ai = a_im.w.data(), *m = m_.w.data();
  kernel([&](auto N) { mulx::fp2_sqr<N>(r0, r1, ar, ai, m, n0inv_); },
         [&] {
           portable(n_, [&](auto NF) {
             fp2_sqr_impl<NF>(r0, r1, ar, ai, m, n0inv_, n_);
           });
         },
         c_re, c_im);
}

void MontCtx::lucas(U512& lo, U512& hi, const U512& v1,
                    const U512& e) const noexcept {
  const U512 two = add(one_, one_);
  kernel(
      [&](auto N) {
        mulx::lucas<N>(lo.w.data(), hi.w.data(), v1.w.data(), two.w.data(),
                       e.w.data(), e.bit_length(), m_.w.data(), n0inv_);
      },
      [&] {  // the same ladder on the portable kernels
        U512 buf[3] = {two, v1, {}};
        U512 *x = &buf[0], *y = &buf[1], *c = &buf[2];
        for (size_t i = e.bit_length(); i-- > 0;) {
          const bool bit = e.bit(i);
          portable_mul(*c, *x, *y);
          portable_sub(*c, *c, v1);
          U512* s = bit ? y : x;  // squared; the other one takes c
          portable_mul(*s, *s, *s);
          portable_sub(*s, *s, two);
          std::swap(bit ? x : y, c);
        }
        lo = *x;
        hi = *y;
      },
      lo, hi);
}

const char* mont_kernel_name() noexcept {
  return mulx_available() ? "mulx-adx" : "generic";
}

const char* lane_kernel_name() noexcept {
  return ifma_available() ? "avx512ifma" : "none";
}

}  // namespace hcpp::mp
