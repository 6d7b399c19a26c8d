#include "src/mp/safegcd.h"

namespace hcpp::mp {

namespace {

using int128 = __int128;

constexpr uint64_t kM62 = ~0ull >> 2;
// Signed-62 limbs needed for a 512-bit modulus: the Bézout coefficients live
// in (−2m, m), so L limbs must cover bits(m) + 2 bits.
constexpr size_t kMaxLimbs62 = (kBits + 2 + 61) / 62;

// A value as L limbs of 62 bits, least significant first: limbs 0..L−2 in
// [0, 2^62), the top limb signed.
struct Signed62 {
  int64_t v[kMaxLimbs62];
};

Signed62 to_signed62(const U512& a, size_t len) noexcept {
  Signed62 r{};
  for (size_t i = 0; i < len; ++i) {
    const size_t bit = 62 * i;
    const size_t w = bit / 64;
    const size_t sh = bit % 64;
    uint64_t limb = a.w[w] >> sh;
    if (sh > 2 && w + 1 < kLimbs) limb |= a.w[w + 1] << (64 - sh);
    r.v[i] = static_cast<int64_t>(limb & kM62);
  }
  return r;
}

// Inverse of to_signed62 for a value in [0, 2^512) whose limbs are all in
// [0, 2^62).
U512 from_signed62(const Signed62& a, size_t len) noexcept {
  U512 r;
  for (size_t i = 0; i < len; ++i) {
    const size_t bit = 62 * i;
    const size_t w = bit / 64;
    const size_t sh = bit % 64;
    const uint64_t limb = static_cast<uint64_t>(a.v[i]);
    r.w[w] |= limb << sh;
    if (sh > 2 && w + 1 < kLimbs) r.w[w + 1] |= limb >> (64 - sh);
  }
  return r;
}

// The transition matrix of 62 divsteps: 2^62·[f'; g'] = [u v; q r]·[f; g].
struct Trans {
  int64_t u, v, q, r;
};

// 62 divsteps on the low 64 bits of (f, g), skipping runs of zero bits of g
// at once and cancelling up to 6 (eta < 0) or 4 (eta ≥ 0) low bits of g per
// step. eta = −delta. Returns the new eta.
int64_t divsteps_62(int64_t eta, uint64_t f0, uint64_t g0, Trans& t) noexcept {
  uint64_t u = 1, v = 0, q = 0, r = 1;
  uint64_t f = f0, g = g0;
  int i = 62;
  for (;;) {
    // The sentinel bit caps the zero count at the divsteps still owed.
    const int zeros = __builtin_ctzll(g | (~0ull << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // g is odd now. A negative eta swaps the roles: (f, g) ← (g, −f).
    int limit;
    uint64_t w;
    if (eta < 0) {
      eta = -eta;
      uint64_t tmp = f;
      f = g;
      g = 0 - tmp;
      tmp = u;
      u = q;
      q = 0 - tmp;
      tmp = v;
      v = r;
      r = 0 - tmp;
      // Cancel up to min(eta + 1, i, 6) low bits of g with a multiple of f.
      limit = static_cast<int>(eta) + 1 > i ? i : static_cast<int>(eta) + 1;
      const uint64_t mask = (~0ull >> (64 - limit)) & 63u;
      w = (f * g * (f * f - 2)) & mask;
    } else {
      limit = static_cast<int>(eta) + 1 > i ? i : static_cast<int>(eta) + 1;
      const uint64_t mask = (~0ull >> (64 - limit)) & 15u;
      w = f + (((f + 1) & 4) << 1);  // f^{-1} mod 16
      w = (0 - w * g) & mask;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t.u = static_cast<int64_t>(u);
  t.v = static_cast<int64_t>(v);
  t.q = static_cast<int64_t>(q);
  t.r = static_cast<int64_t>(r);
  return eta;
}

// (d, e) ← t·(d, e) / 2^62 mod m, keeping both in (−2m, m): multiples of m
// chosen with m^{-1} mod 2^62 make the low 62 bits of each sum vanish.
void update_de(Signed62& d, Signed62& e, const Trans& t, const Signed62& m,
               uint64_t m_inv62, size_t len) noexcept {
  const int64_t sd = d.v[len - 1] >> 63;
  const int64_t se = e.v[len - 1] >> 63;
  int64_t md = (t.u & sd) + (t.v & se);
  int64_t me = (t.q & sd) + (t.r & se);
  int128 cd = static_cast<int128>(t.u) * d.v[0] +
              static_cast<int128>(t.v) * e.v[0];
  int128 ce = static_cast<int128>(t.q) * d.v[0] +
              static_cast<int128>(t.r) * e.v[0];
  md -= static_cast<int64_t>((m_inv62 * static_cast<uint64_t>(cd) +
                              static_cast<uint64_t>(md)) &
                             kM62);
  me -= static_cast<int64_t>((m_inv62 * static_cast<uint64_t>(ce) +
                              static_cast<uint64_t>(me)) &
                             kM62);
  cd += static_cast<int128>(m.v[0]) * md;
  ce += static_cast<int128>(m.v[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (size_t i = 1; i < len; ++i) {
    cd += static_cast<int128>(t.u) * d.v[i] +
          static_cast<int128>(t.v) * e.v[i] +
          static_cast<int128>(m.v[i]) * md;
    ce += static_cast<int128>(t.q) * d.v[i] +
          static_cast<int128>(t.r) * e.v[i] +
          static_cast<int128>(m.v[i]) * me;
    d.v[i - 1] = static_cast<int64_t>(cd) & static_cast<int64_t>(kM62);
    e.v[i - 1] = static_cast<int64_t>(ce) & static_cast<int64_t>(kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[len - 1] = static_cast<int64_t>(cd);
  e.v[len - 1] = static_cast<int64_t>(ce);
}

// (f, g) ← t·(f, g) / 2^62 over the low `len` limbs (exact division).
void update_fg(Signed62& f, Signed62& g, const Trans& t, size_t len) noexcept {
  int128 cf = static_cast<int128>(t.u) * f.v[0] +
              static_cast<int128>(t.v) * g.v[0];
  int128 cg = static_cast<int128>(t.q) * f.v[0] +
              static_cast<int128>(t.r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (size_t i = 1; i < len; ++i) {
    cf += static_cast<int128>(t.u) * f.v[i] +
          static_cast<int128>(t.v) * g.v[i];
    cg += static_cast<int128>(t.q) * f.v[i] +
          static_cast<int128>(t.r) * g.v[i];
    f.v[i - 1] = static_cast<int64_t>(cf) & static_cast<int64_t>(kM62);
    g.v[i - 1] = static_cast<int64_t>(cg) & static_cast<int64_t>(kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[len - 1] = static_cast<int64_t>(cf);
  g.v[len - 1] = static_cast<int64_t>(cg);
}

// Brings d from (−2m, m) to [0, m), negating it first when `sign` < 0.
void normalize(Signed62& d, int64_t sign, const Signed62& m,
               size_t len) noexcept {
  const int64_t m62 = static_cast<int64_t>(kM62);
  // Add m if negative, then negate if asked: (−2m, m) → (−m, m).
  int64_t cond_add = d.v[len - 1] >> 63;
  const int64_t cond_negate = sign >> 63;
  for (size_t i = 0; i < len; ++i) {
    d.v[i] += m.v[i] & cond_add;
    d.v[i] = (d.v[i] ^ cond_negate) - cond_negate;
  }
  for (size_t i = 0; i + 1 < len; ++i) {
    d.v[i + 1] += d.v[i] >> 62;
    d.v[i] &= m62;
  }
  // Add m once more if still negative: (−m, m) → [0, m).
  cond_add = d.v[len - 1] >> 63;
  for (size_t i = 0; i < len; ++i) d.v[i] += m.v[i] & cond_add;
  for (size_t i = 0; i + 1 < len; ++i) {
    d.v[i + 1] += d.v[i] >> 62;
    d.v[i] &= m62;
  }
}

// m^{-1} mod 2^62 for odd m, by Newton iteration (each step doubles the
// number of correct low bits, from 3).
uint64_t inv62(uint64_t m) noexcept {
  uint64_t x = m;
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return x & kM62;
}

}  // namespace

U512 safegcd_inv(const U512& a, const U512& m) noexcept {
  const size_t len_full = (m.bit_length() + 2 + 61) / 62;
  const Signed62 mod62 = to_signed62(m, len_full);
  const uint64_t m_inv62 = inv62(m.w[0]);
  // Invariants (mod m): d·a ≡ f and e·a ≡ g, with f odd throughout.
  Signed62 d{};
  Signed62 e{};
  e.v[0] = 1;
  Signed62 f = mod62;
  Signed62 g = to_signed62(a, len_full);
  size_t len = len_full;  // active limbs of f and g, which only shrink
  int64_t eta = -1;
  for (;;) {
    Trans t;
    eta = divsteps_62(eta, static_cast<uint64_t>(f.v[0]),
                      static_cast<uint64_t>(g.v[0]), t);
    update_de(d, e, t, mod62, m_inv62, len_full);
    update_fg(f, g, t, len);
    if (g.v[0] == 0) {
      int64_t any = 0;
      for (size_t i = 1; i < len; ++i) any |= g.v[i];
      if (any == 0) break;  // g = 0: f = ±gcd(a, m)
    }
    // Drop the top limb of f and g once both are 0 or −1 there, folding its
    // sign into the limb below.
    const int64_t fn = f.v[len - 1];
    const int64_t gn = g.v[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(f.v[len - 2]) |
                                          (static_cast<uint64_t>(fn) << 62));
      g.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(g.v[len - 2]) |
                                          (static_cast<uint64_t>(gn) << 62));
      --len;
    }
  }
  // f = ±1 for an invertible a, so d = ±a^{-1}: the sign of f fixes it.
  normalize(d, f.v[len - 1], mod62, len_full);
  return from_signed62(d, len_full);
}

}  // namespace hcpp::mp
