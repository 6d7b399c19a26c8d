#include "src/mp/mont_ifma.h"

#include <type_traits>
#include <utility>

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512IFMA__)
#define HCPP_HAVE_IFMA 1
// GCC 12's _mm512_undefined_* are written `__m512i __Y = __Y;`, and every
// shift and gather inlined from them warns -Wuninitialized or
// -Wmaybe-uninitialized. The pragma covers the header only, so this file's
// own code still warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace hcpp::mp::ifma {

#ifdef HCPP_HAVE_IFMA

namespace {

constexpr uint64_t kMask52 = (1ull << 52) - 1;

// Eight lanes of an L-limb radix-2^52 number. Every limb is below 2^52:
// VPMADD52 reads only the low 52 bits of its multiplicands.
template <size_t L>
struct Num {
  __m512i v[L];
};

// The 2L columns of a product, or of a sum of products awaiting one
// reduction, unnormalized: a product adds at most 2L terms below 2^52 to a
// column, so the few products a reduction takes, and the reduction, stay
// far below 2^64. The kernels that fill a Wide are unrolled in full so
// that its columns stay in zmm registers.
template <size_t L>
struct Wide {
  __m512i v[2 * L];
};

// 64-bit words an L-limb residue spans (its value is below 2^(64·words)).
template <size_t L>
constexpr size_t kWords = 52 * L / 64;

inline __m512i shr(__m512i x, uint64_t s) {
  return _mm512_srlv_epi64(x, _mm512_set1_epi64(static_cast<int64_t>(s)));
}
inline __m512i shl(__m512i x, uint64_t s) {
  return _mm512_sllv_epi64(x, _mm512_set1_epi64(static_cast<int64_t>(s)));
}

// Limb j of a in radix 2^52.
uint64_t limb52(const U512& a, size_t j) {
  const size_t bit = 52 * j, k = bit / 64, s = bit % 64;
  uint64_t x = a.w[k] >> s;
  if (s > 12 && k + 1 < kLimbs) x |= a.w[k + 1] << (64 - s);
  return x & kMask52;
}

template <size_t L>
Num<L> broadcast(const U512& a) {
  Num<L> r;
  for (size_t j = 0; j < L; ++j) {
    r.v[j] = _mm512_set1_epi64(static_cast<int64_t>(limb52(a, j)));
  }
  return r;
}

// Radix change of eight lanes' 64-bit words w[0..kWords) to 52-bit limbs.
template <size_t L>
Num<L> from_words(const __m512i* w) {
  const __m512i mask = _mm512_set1_epi64(kMask52);
  Num<L> r;
  for (size_t j = 0; j < L; ++j) {
    const size_t bit = 52 * j, k = bit / 64, s = bit % 64;
    __m512i x = shr(w[k], s);
    if (s > 12 && k + 1 < kWords<L>) {
      x = _mm512_or_si512(x, shl(w[k + 1], 64 - s));
    }
    r.v[j] = _mm512_and_si512(x, mask);
  }
  return r;
}

template <size_t L>
void to_words(__m512i* w, const Num<L>& a) {
  for (size_t k = 0; k < kWords<L>; ++k) {
    __m512i x = _mm512_setzero_si512();
    for (size_t j = 0; j < L; ++j) {
      const size_t lo = 52 * j;
      if (lo + 52 <= 64 * k || lo >= 64 * (k + 1)) continue;
      x = _mm512_or_si512(
          x, lo >= 64 * k ? shl(a.v[j], lo - 64 * k) : shr(a.v[j], 64 * k - lo));
    }
    w[k] = x;
  }
}

// Lane l of the result is the residue at p[l].
template <size_t L>
Num<L> load(const U512* const* p) {
  __m512i w[kWords<L>];
  for (size_t k = 0; k < kWords<L>; ++k) {
    w[k] = _mm512_set_epi64(
        static_cast<int64_t>(p[7]->w[k]), static_cast<int64_t>(p[6]->w[k]),
        static_cast<int64_t>(p[5]->w[k]), static_cast<int64_t>(p[4]->w[k]),
        static_cast<int64_t>(p[3]->w[k]), static_cast<int64_t>(p[2]->w[k]),
        static_cast<int64_t>(p[1]->w[k]), static_cast<int64_t>(p[0]->w[k]));
  }
  return from_words<L>(w);
}

// Writes lanes 0..lanes−1 of a to p[l], all eight words (the ones above
// the residue's width zeroed, as MontCtx leaves them).
template <size_t L>
void store(U512* const* p, size_t lanes, const Num<L>& a) {
  __m512i w[kWords<L>];
  to_words<L>(w, a);
  alignas(64) uint64_t t[kWords<L>][kLanes];
  for (size_t k = 0; k < kWords<L>; ++k) _mm512_store_si512(t[k], w[k]);
  for (size_t l = 0; l < lanes; ++l) {
    for (size_t k = 0; k < kLimbs; ++k) p[l]->w[k] = k < kWords<L> ? t[k][l] : 0;
  }
}

// The 52-bit limbs of eight lanes' words at base + offs[l] bytes: one
// gather per word.
template <size_t L>
Num<L> gather(const uint64_t* base, __m512i offs) {
  __m512i w[kWords<L>];
  for (size_t k = 0; k < kWords<L>; ++k) {
    w[k] = _mm512_i64gather_epi64(offs, static_cast<const void*>(base + k), 1);
  }
  return from_words<L>(w);
}

// F_p in the lanes. Between products a value is kept below 2m, not m:
// every reduction skips its final subtraction, sums and differences fold
// by 2m, and a kernel subtracts m once (reduce) where it writes its
// outputs. Every reduction input is below 16m² (fp2_sqr's is the widest),
// and R' = 2^(52L) ≥ 16·2^(64·kWords) > 16m on both sets (2^260 against a
// 255-bit m, 2^520 against a 511-bit one), so every reduction lands below
// 2m.
template <size_t L>
struct Field {
  Num<L> m, m2, one, two, to_lane, from_lane;  // m2 = 2m
  __m512i n0;

  explicit Field(const Consts& c)
      : m(broadcast<L>(c.m)),
        one(broadcast<L>(c.one)),
        to_lane(broadcast<L>(c.to_lane)),
        from_lane(broadcast<L>(c.from_lane)),
        n0(_mm512_set1_epi64(static_cast<int64_t>(c.n0))) {
    add_raw(m2, m, m);
    add(two, one, one);
  }

  // t += a·b: the low halves of limb products land in column i+j, the high
  // halves in column i+j+1.
  static void mul_acc(Wide<L>& t, const Num<L>& a, const Num<L>& b) {
#pragma GCC unroll 10
    for (size_t i = 0; i < L; ++i) {
#pragma GCC unroll 10
      for (size_t j = 0; j < L; ++j) {
        t.v[i + j] = _mm512_madd52lo_epu64(t.v[i + j], a.v[i], b.v[j]);
        t.v[i + j + 1] = _mm512_madd52hi_epu64(t.v[i + j + 1], a.v[i], b.v[j]);
      }
    }
  }

  // t = a², the columns of t unset on entry: each cross product once, every
  // column doubled, then the squares (L(L+1)/2 limb products against the
  // L² of mul_acc).
  static void sqr_wide(Wide<L>& t, const Num<L>& a) {
    const __m512i zero = _mm512_setzero_si512();
#pragma GCC unroll 20
    for (__m512i& x : t.v) x = zero;
#pragma GCC unroll 10
    for (size_t i = 0; i < L; ++i) {
#pragma GCC unroll 10
      for (size_t j = i + 1; j < L; ++j) {
        t.v[i + j] = _mm512_madd52lo_epu64(t.v[i + j], a.v[i], a.v[j]);
        t.v[i + j + 1] = _mm512_madd52hi_epu64(t.v[i + j + 1], a.v[i], a.v[j]);
      }
    }
#pragma GCC unroll 20
    for (__m512i& x : t.v) x = _mm512_add_epi64(x, x);
#pragma GCC unroll 10
    for (size_t i = 0; i < L; ++i) {
      t.v[2 * i] = _mm512_madd52lo_epu64(t.v[2 * i], a.v[i], a.v[i]);
      t.v[2 * i + 1] = _mm512_madd52hi_epu64(t.v[2 * i + 1], a.v[i], a.v[i]);
    }
  }

  // r ≡ t·R'^(−1) mod m with r < t/R' + m (below 2m for t < R'·m), for
  // an integer t ≥ 0. Row i clears column i with q = t_i·n0 and moves its
  // carry into column i+1.
  void redc(Num<L>& r, Wide<L>& t) const {
    const __m512i zero = _mm512_setzero_si512();
#pragma GCC unroll 10
    for (size_t i = 0; i < L; ++i) {
      const __m512i q = _mm512_madd52lo_epu64(zero, t.v[i], n0);
#pragma GCC unroll 10
      for (size_t j = 0; j < L; ++j) {
        t.v[i + j] = _mm512_madd52lo_epu64(t.v[i + j], q, m.v[j]);
        t.v[i + j + 1] = _mm512_madd52hi_epu64(t.v[i + j + 1], q, m.v[j]);
      }
      t.v[i + 1] = _mm512_add_epi64(t.v[i + 1], _mm512_srli_epi64(t.v[i], 52));
    }
    const __m512i mask = _mm512_set1_epi64(kMask52);
    __m512i c = zero;
#pragma GCC unroll 10
    for (size_t j = 0; j < L; ++j) {
      const __m512i x = _mm512_add_epi64(t.v[L + j], c);
      r.v[j] = _mm512_and_si512(x, mask);
      c = _mm512_srli_epi64(x, 52);
    }
  }

  // r = r − k where r ≥ k, per lane; r < 2k.
  static void cond_sub(Num<L>& r, const Num<L>& k) {
    const __m512i mask = _mm512_set1_epi64(kMask52);
    const __m512i zero = _mm512_setzero_si512();
    Num<L> s;
    __m512i b = zero;  // 0 or −1
    for (size_t j = 0; j < L; ++j) {
      const __m512i x =
          _mm512_add_epi64(_mm512_sub_epi64(r.v[j], k.v[j]), b);
      s.v[j] = _mm512_and_si512(x, mask);
      b = _mm512_srai_epi64(x, 52);
    }
    const __mmask8 ge = _mm512_cmpeq_epi64_mask(b, zero);
    for (size_t j = 0; j < L; ++j) {
      r.v[j] = _mm512_mask_mov_epi64(r.v[j], ge, s.v[j]);
    }
  }

  // r = a + b, carried but not reduced (a + b < 2^(52L)).
  static void add_raw(Num<L>& r, const Num<L>& a, const Num<L>& b) {
    const __m512i mask = _mm512_set1_epi64(kMask52);
    __m512i c = _mm512_setzero_si512();
    for (size_t j = 0; j < L; ++j) {
      const __m512i x = _mm512_add_epi64(_mm512_add_epi64(a.v[j], b.v[j]), c);
      r.v[j] = _mm512_and_si512(x, mask);
      c = _mm512_srli_epi64(x, 52);
    }
  }

  // r = a − b mod 2^(52L); returns the borrow out (0 or −1 per lane).
  static __m512i sub_raw(Num<L>& r, const Num<L>& a, const Num<L>& b) {
    const __m512i mask = _mm512_set1_epi64(kMask52);
    __m512i c = _mm512_setzero_si512();
    for (size_t j = 0; j < L; ++j) {
      const __m512i x = _mm512_add_epi64(_mm512_sub_epi64(a.v[j], b.v[j]), c);
      r.v[j] = _mm512_and_si512(x, mask);
      c = _mm512_srai_epi64(x, 52);
    }
    return c;
  }

  // The fully reduced residue [0, m) of a value below 2m.
  void reduce(Num<L>& r) const { cond_sub(r, m); }

  // a + b, below 2m for a, b < 2m.
  void add(Num<L>& r, const Num<L>& a, const Num<L>& b) const {
    add_raw(r, a, b);
    cond_sub(r, m2);
  }

  // a − b, plus 2m in the lanes that borrowed (the carry out of that sum
  // cancels the borrow); below 2m for a, b < 2m.
  void sub(Num<L>& r, const Num<L>& a, const Num<L>& b) const {
    const __m512i borrow = sub_raw(r, a, b);
    Num<L> fix;
    for (size_t j = 0; j < L; ++j) {
      fix.v[j] = _mm512_and_si512(m2.v[j], borrow);
    }
    add_raw(r, r, fix);
  }

  void neg(Num<L>& r, const Num<L>& a) const {
    Num<L> zero;
    for (__m512i& x : zero.v) x = _mm512_setzero_si512();
    sub(r, zero, a);
  }

  // r ≡ a·b·R'^(−1), below 2m for a, b < 2m. One product and its
  // reduction, the unit every lane kernel calls, kept out of line so that
  // its unrolled body is emitted once per width.
  [[gnu::noinline]] void mul(Num<L>& r, const Num<L>& a,
                             const Num<L>& b) const {
    Wide<L> t{};
    mul_acc(t, a, b);
    redc(r, t);
  }

  // r ≡ a²·R'^(−1), below 2m for a < 2m.
  [[gnu::noinline]] void sqr(Num<L>& r, const Num<L>& a) const {
    Wide<L> t;
    sqr_wide(t, a);
    redc(r, t);
  }

  // (a0 + a1·i)² = (a0 + a1)(a0 − a1) + 2·a0·a1·i, the first factor pair
  // kept non-negative as (a0 + a1)·(a0 + 2m − a1) < 16m². The two products
  // run one after the other, so one Wide is live at a time.
  void fp2_sqr(Num<L>& a0, Num<L>& a1) const {
    Num<L> s, d, tw;
    add_raw(s, a0, a1);
    sub_raw(d, m2, a1);
    add_raw(d, d, a0);
    add_raw(tw, a1, a1);
    mul(a1, a0, tw);
    mul(a0, s, d);
  }

  // A line's real part l0 = c1·x + c0 for x in R'·R'/R (c1 in R, c0 in
  // R', both below m): c0 enters the upper columns as c0·R', and for x < 2m
  // the result is below 2m²/R' + 2m < 3m, which line_mul takes as it is.
  [[gnu::noinline]] void line_value(Num<L>& l0, const Num<L>& c0,
                                    const Num<L>& c1, const Num<L>& x) const {
    Wide<L> t{};
    mul_acc(t, c1, x);
#pragma GCC unroll 10
    for (size_t j = 0; j < L; ++j) {
      t.v[L + j] = _mm512_add_epi64(t.v[L + j], c0.v[j]);
    }
    redc(l0, t);
  }

  // g = (f0 + f1·i)(l0 + y·i) with ny = 2m − y ≡ −y: Re = f0·l0 + f1·ny
  // and Im = f0·y + f1·l0, each two products under one reduction. For
  // f0, f1, y < 2m and l0 < 3m (line_value) both are below 10m².
  [[gnu::noinline]] void line_mul(Num<L>& g0, Num<L>& g1, const Num<L>& f0,
                                  const Num<L>& f1, const Num<L>& l0,
                                  const Num<L>& y, const Num<L>& ny) const {
    Wide<L> t{};
    mul_acc(t, f0, l0);
    mul_acc(t, f1, ny);
    redc(g0, t);
    Wide<L> u{};
    mul_acc(u, f0, y);
    mul_acc(u, f1, l0);
    redc(g1, u);
  }
};

// Lane l takes p[l] for l < n, else p[0].
template <typename T>
void spread(const T** out, const T* p, size_t n) {
  for (size_t l = 0; l < kLanes; ++l) out[l] = p + (l < n ? l : 0);
}

template <size_t L>
void apply_impl(const Consts& c, Op op, size_t lanes, U512* r, const U512* a,
                const U512* b) {
  const Field<L> f(c);
  const U512 *pa[kLanes], *pb[kLanes];
  spread(pa, a, lanes);
  spread(pb, b != nullptr ? b : a, lanes);
  const Num<L> x = load<L>(pa), y = load<L>(pb);
  Num<L> z;
  switch (op) {
    case Op::kMul: f.mul(z, x, y); break;
    case Op::kSqr: f.sqr(z, x); break;
    case Op::kAdd: f.add(z, x, y); break;
    case Op::kSub: f.sub(z, x, y); break;
    case Op::kToLane: f.mul(z, x, f.to_lane); break;
    case Op::kFromLane: f.mul(z, x, f.from_lane); break;
  }
  f.reduce(z);
  U512* pr[kLanes];
  for (size_t l = 0; l < kLanes; ++l) pr[l] = r + (l < lanes ? l : 0);
  store<L>(pr, lanes, z);
}

template <size_t L>
void miller_step_impl(const Consts& c, size_t lanes, const MillerStep& s) {
  const Field<L> f(c);
  auto in = [&](const U512* p) {
    const U512* pp[kLanes];
    spread(pp, p, lanes);
    return load<L>(pp);
  };
  Num<L> f0 = in(s.f0), f1 = in(s.f1), ny, l0, g0, g1;
  const Num<L> y = in(s.y);
  f.fp2_sqr(f0, f1);
  Field<L>::sub_raw(ny, f.m2, y);
  f.line_value(l0, in(s.c0), in(s.c1), in(s.x));
  f.line_mul(g0, g1, f0, f1, l0, y, ny);
  f.reduce(g0);
  f.reduce(g1);
  U512 *p0[kLanes], *p1[kLanes];
  for (size_t l = 0; l < lanes; ++l) {
    p0[l] = s.re + l;
    p1[l] = s.im + l;
  }
  store<L>(p0, lanes, g0);
  store<L>(p1, lanes, g1);
}

template <size_t L>
void miller_impl(const Consts& c, std::span<const int8_t> digits,
                 size_t stride, size_t c1_offset,
                 std::span<const uint8_t> ident,
                 std::span<const MillerLane> lanes) {
  const Field<L> f(c);
  const size_t n = lanes.size();
  const U512 *pxq[kLanes], *pyq[kLanes];
  alignas(64) int64_t offs[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    const MillerLane& ln = lanes[l < n ? l : 0];
    pxq[l] = ln.xq;
    pyq[l] = ln.yq;
    offs[l] = static_cast<int64_t>(reinterpret_cast<uintptr_t>(ln.c0) -
                                   reinterpret_cast<uintptr_t>(lanes[0].c0));
  }
  const __m512i voffs = _mm512_load_si512(offs);
  // The line's c1 meets x_Q·R'²/R, so c1·R · x_Q·R'²/R · R'^(−1) lands in
  // R' (c1 is never converted); c0 is cached in R' by the precomp.
  Num<L> x, y, ny;
  f.mul(x, load<L>(pxq), f.to_lane);
  f.mul(x, x, f.to_lane);
  f.mul(y, load<L>(pyq), f.to_lane);
  Field<L>::sub_raw(ny, f.m2, y);  // 2m − y_Q ∈ (0, 2m]: keeps f1·(−y_Q) ≥ 0
  Num<L> f0 = f.one, f1;
  for (__m512i& v : f1.v) v = _mm512_setzero_si512();
  const __mmask8 live = static_cast<__mmask8>((1u << n) - 1);
  size_t k = 0;
  auto line = [&] {
    const __mmask8 id = ident[k];
    const uint64_t* base = lanes[0].c0 + k * stride;
    ++k;
    if ((id & live) == live) return;
    const Num<L> c0 = gather<L>(base, voffs);
    const Num<L> c1 = gather<L>(base + c1_offset, voffs);
    Num<L> l0;
    f.line_value(l0, c0, c1, x);
    Num<L> g0, g1;
    f.line_mul(g0, g1, f0, f1, l0, y, ny);
    for (size_t j = 0; j < L; ++j) {  // a lane whose line is 1 keeps f
      f0.v[j] = _mm512_mask_mov_epi64(g0.v[j], id, f0.v[j]);
      f1.v[j] = _mm512_mask_mov_epi64(g1.v[j], id, f1.v[j]);
    }
  };
  for (size_t i = 1; i < digits.size(); ++i) {
    f.fp2_sqr(f0, f1);
    line();
    if (digits[i] != 0) line();
  }
  f.mul(f0, f0, f.from_lane);
  f.mul(f1, f1, f.from_lane);
  f.reduce(f0);
  f.reduce(f1);
  U512 *pre[kLanes], *pim[kLanes];
  for (size_t l = 0; l < n; ++l) {
    pre[l] = lanes[l].re;
    pim[l] = lanes[l].im;
  }
  store<L>(pre, n, f0);
  store<L>(pim, n, f1);
}

template <size_t L>
void fe_denominator_impl(const Consts& c, size_t lanes, const U512* re,
                         const U512* im, U512* d) {
  const Field<L> f(c);
  const U512 *pre[kLanes], *pim[kLanes];
  spread(pre, re, lanes);
  spread(pim, im, lanes);
  Num<L> f0, f1, norm, f01;
  f.mul(f0, load<L>(pre), f.to_lane);
  f.mul(f1, load<L>(pim), f.to_lane);
  Wide<L> t{};
  Field<L>::mul_acc(t, f0, f0);
  Field<L>::mul_acc(t, f1, f1);
  f.redc(norm, t);
  f.mul(f01, f0, f1);
  f.add(f01, f01, f01);
  f.add(f01, f01, f01);
  f.mul(f01, f01, norm);
  f.mul(f01, f01, f.from_lane);
  f.reduce(f01);
  U512* pd[kLanes];
  for (size_t l = 0; l < lanes; ++l) pd[l] = d + l;
  store<L>(pd, lanes, f01);
}

template <size_t L>
void fe_finish_impl(const Consts& c, size_t lanes, const U512* re,
                    const U512* im, const U512* d_inv, const U512& e,
                    U512* g_re, U512* g_im) {
  const Field<L> f(c);
  const U512 *pre[kLanes], *pim[kLanes], *pdi[kLanes];
  spread(pre, re, lanes);
  spread(pim, im, lanes);
  spread(pdi, d_inv, lanes);
  Num<L> f0, f1, di;
  f.mul(f0, load<L>(pre), f.to_lane);
  f.mul(f1, load<L>(pim), f.to_lane);
  f.mul(di, load<L>(pdi), f.to_lane);
  // conj(f)² = (f0² − f1²) − 2·f0·f1·i and N(f) = f0² + f1² (fe_finish).
  Num<L> sq0, sq1, c2re, c2im, norm, tmp;
  f.sqr(sq0, f0);
  f.sqr(sq1, f1);
  f.sub(c2re, sq0, sq1);
  f.add(norm, sq0, sq1);
  f.mul(tmp, f0, f1);
  f.add(tmp, tmp, tmp);
  f.neg(c2im, tmp);
  // 1/N(f) = −2·Im(conj(f)²)·d_inv, t = conj(f)²/N(f), 1/(2·Im t) =
  // −N(f)²·d_inv.
  Num<L> inv_norm, t0, t1, inv_2b;
  f.add(tmp, c2im, c2im);
  f.neg(tmp, tmp);
  f.mul(inv_norm, tmp, di);
  f.mul(t0, c2re, inv_norm);
  f.mul(t1, c2im, inv_norm);
  f.sqr(tmp, norm);
  f.mul(tmp, tmp, di);
  f.neg(inv_2b, tmp);
  // The Lucas ladder of MontCtx::lucas; e's bits are the same in every lane.
  Num<L> v1, buf[3];
  f.add(v1, t0, t0);
  buf[0] = f.two;
  buf[1] = v1;
  Num<L> *lo = &buf[0], *hi = &buf[1], *cc = &buf[2];
  for (size_t i = e.bit_length(); i-- > 0;) {
    const bool bit = e.bit(i);
    f.mul(*cc, *lo, *hi);
    f.sub(*cc, *cc, v1);
    Num<L>* s = bit ? hi : lo;
    f.sqr(*s, *s);
    f.sub(*s, *s, f.two);
    std::swap(bit ? lo : hi, cc);
  }
  // t^e = lo·(Im t·inv_2b) + (Re t·lo − hi)·inv_2b·i (Fp2::pow_unitary).
  Num<L> g0, g1;
  f.mul(tmp, t1, inv_2b);
  f.mul(g0, *lo, tmp);
  f.mul(tmp, t0, *lo);
  f.sub(tmp, tmp, *hi);
  f.mul(g1, tmp, inv_2b);
  f.mul(g0, g0, f.from_lane);
  f.mul(g1, g1, f.from_lane);
  f.reduce(g0);
  f.reduce(g1);
  U512 *p0[kLanes], *p1[kLanes];
  for (size_t l = 0; l < lanes; ++l) {
    p0[l] = g_re + l;
    p1[l] = g_im + l;
  }
  store<L>(p0, lanes, g0);
  store<L>(p1, lanes, g1);
}

// Runs body(L) for the consts' limb count, L = 5 or 10.
template <typename Body>
void by_width(const Consts& c, Body&& body) {
  if (c.limbs == 10) {
    body(std::integral_constant<size_t, 10>{});
  } else {
    body(std::integral_constant<size_t, 5>{});
  }
}

}  // namespace

bool compiled() noexcept { return true; }

void apply(const Consts& c, Op op, size_t lanes, U512* r, const U512* a,
           const U512* b) noexcept {
  by_width(c, [&](auto L) { apply_impl<L>(c, op, lanes, r, a, b); });
}

void miller_step(const Consts& c, size_t lanes,
                 const MillerStep& s) noexcept {
  by_width(c, [&](auto L) { miller_step_impl<L>(c, lanes, s); });
}

void miller(const Consts& c, std::span<const int8_t> digits, size_t stride,
            size_t c1_offset, std::span<const uint8_t> ident,
            std::span<const MillerLane> lanes) noexcept {
  by_width(c, [&](auto L) {
    miller_impl<L>(c, digits, stride, c1_offset, ident, lanes);
  });
}

void fe_denominator(const Consts& c, size_t lanes, const U512* re,
                    const U512* im, U512* d) noexcept {
  by_width(c, [&](auto L) { fe_denominator_impl<L>(c, lanes, re, im, d); });
}

void fe_finish(const Consts& c, size_t lanes, const U512* re, const U512* im,
               const U512* d_inv, const U512& e, U512* g_re,
               U512* g_im) noexcept {
  by_width(c, [&](auto L) {
    fe_finish_impl<L>(c, lanes, re, im, d_inv, e, g_re, g_im);
  });
}

#else  // no IFMA in this build: compiled() is false and nothing else runs

bool compiled() noexcept { return false; }
void apply(const Consts&, Op, size_t, U512*, const U512*,
           const U512*) noexcept {}
void miller_step(const Consts&, size_t, const MillerStep&) noexcept {}
void miller(const Consts&, std::span<const int8_t>, size_t, size_t,
            std::span<const uint8_t>, std::span<const MillerLane>) noexcept {}
void fe_denominator(const Consts&, size_t, const U512*, const U512*,
                    U512*) noexcept {}
void fe_finish(const Consts&, size_t, const U512*, const U512*, const U512*,
               const U512&, U512*, U512*) noexcept {}

#endif

}  // namespace hcpp::mp::ifma
