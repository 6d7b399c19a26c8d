// Differential tests for the runtime-dispatched vectorized kernels: the
// same binary runs each case twice — HCPP_FORCE_GENERIC off (the host's
// fastest variant: MULX/ADX Montgomery, 4-way AVX2 ChaCha20, SHA-NI
// SHA-256) and on (the
// portable oracle) — and every output must be byte/limb-identical. On hosts
// without the CPU extensions both runs take the generic path and the tests
// degrade to self-consistency checks, so the suite passes everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "src/cipher/chacha20.h"
#include "src/cipher/drbg.h"
#include "src/curve/params.h"
#include "src/hash/hmac.h"
#include "src/hash/sha256.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"
#include "src/mp/u512.h"
#include "tests/force_generic.h"

namespace hcpp {
namespace {

// ---- ChaCha20: dispatched bulk kernel vs the one-block scalar core ---------

std::array<uint8_t, 32> test_key() {
  std::array<uint8_t, 32> k{};
  for (size_t i = 0; i < k.size(); ++i) k[i] = static_cast<uint8_t>(7 * i + 3);
  return k;
}

std::array<uint8_t, 12> test_nonce() {
  std::array<uint8_t, 12> n{};
  for (size_t i = 0; i < n.size(); ++i) n[i] = static_cast<uint8_t>(0xA0 + i);
  return n;
}

/// The independent oracle: keystream assembled one block at a time through
/// chacha20_block, which never dispatches to the SIMD path.
Bytes blockwise_keystream(const std::array<uint8_t, 32>& key,
                          const std::array<uint8_t, 12>& nonce,
                          uint32_t counter, size_t len) {
  Bytes out(len);
  std::array<uint8_t, 64> block{};
  size_t off = 0;
  while (off < len) {
    cipher::chacha20_block(key, nonce, counter++, block);
    size_t n = std::min<size_t>(64, len - off);
    std::copy_n(block.begin(), n, out.begin() + off);
    off += n;
  }
  return out;
}

// Lengths straddling the 4-block (256-byte) SIMD granularity: short tail
// only, exact single block, one short of the SIMD width, exactly one SIMD
// batch, batch + tail, several batches + odd tail.
const size_t kLengths[] = {13, 64, 192, 255, 256, 320, 517, 1024, 1037};

TEST(DispatchChaCha, XorMatchesBlockwiseOracleBothVariants) {
  auto key = test_key();
  auto nonce = test_nonce();
  cipher::Drbg rng(to_bytes("dispatch-chacha-xor"));
  for (bool forced : {false, true}) {
    ForceGenericGuard guard(forced);
    for (size_t len : kLengths) {
      Bytes plain = rng.bytes(len);
      Bytes expected = blockwise_keystream(key, nonce, 5, len);
      for (size_t i = 0; i < len; ++i) expected[i] ^= plain[i];
      Bytes data = plain;
      cipher::chacha20_xor(key, nonce, 5, data);
      EXPECT_EQ(data, expected) << "len=" << len << " forced=" << forced;
    }
  }
}

TEST(DispatchChaCha, KeystreamMatchesBlockwiseOracleBothVariants) {
  auto key = test_key();
  auto nonce = test_nonce();
  for (bool forced : {false, true}) {
    ForceGenericGuard guard(forced);
    for (size_t len : kLengths) {
      Bytes expected = blockwise_keystream(key, nonce, 0, len);
      Bytes got(len);
      cipher::chacha20_keystream(key, nonce, 0, got);
      EXPECT_EQ(got, expected) << "len=" << len << " forced=" << forced;
    }
  }
}

TEST(DispatchChaCha, CounterWrapMatchesScalarSemantics) {
  // Starting at 0xFFFFFFFE the 32-bit block counter wraps to 0 inside a
  // 4-block SIMD batch; the scalar loop wraps the same way (uint32_t ++).
  auto key = test_key();
  auto nonce = test_nonce();
  const size_t len = 6 * 64;
  Bytes expected = blockwise_keystream(key, nonce, 0xFFFFFFFEu, len);
  for (bool forced : {false, true}) {
    ForceGenericGuard guard(forced);
    Bytes got(len);
    cipher::chacha20_keystream(key, nonce, 0xFFFFFFFEu, got);
    EXPECT_EQ(got, expected) << "forced=" << forced;
    Bytes data(len, 0);
    cipher::chacha20_xor(key, nonce, 0xFFFFFFFEu, data);
    EXPECT_EQ(data, expected) << "forced=" << forced;
  }
}

TEST(DispatchChaCha, DrbgStreamIdenticalAcrossVariants) {
  // The DRBG's 4-block refill must not change the byte stream, including
  // across its key ratchet; pull an awkward mix of read sizes.
  const size_t kReads[] = {1, 31, 64, 200, 256, 333, 7};
  std::vector<Bytes> fast;
  {
    ForceGenericGuard guard(false);
    cipher::Drbg d(to_bytes("dispatch-drbg"));
    for (size_t n : kReads) fast.push_back(d.bytes(n));
  }
  {
    ForceGenericGuard guard(true);
    cipher::Drbg d(to_bytes("dispatch-drbg"));
    for (size_t i = 0; i < std::size(kReads); ++i) {
      EXPECT_EQ(d.bytes(kReads[i]), fast[i]) << "read #" << i;
    }
  }
}

TEST(DispatchChaCha, KernelNameReflectsForcedGeneric) {
  {
    ForceGenericGuard guard(true);
    EXPECT_STREQ(cipher::chacha20_kernel_name(), "generic");
    EXPECT_STREQ(mp::mont_kernel_name(), "generic");
  }
  ForceGenericGuard guard(false);
  // Unforced, the name must agree with what the CPU supports.
  if (mp::cpu_features().avx2) {
    EXPECT_STREQ(cipher::chacha20_kernel_name(), "avx2");
  } else {
    EXPECT_STREQ(cipher::chacha20_kernel_name(), "generic");
  }
  if (mp::cpu_features().bmi2 && mp::cpu_features().adx) {
    EXPECT_STREQ(mp::mont_kernel_name(), "mulx-adx");
  } else {
    EXPECT_STREQ(mp::mont_kernel_name(), "generic");
  }
}

// ---- Montgomery: MULX/ADX contexts vs forced-generic contexts --------------
//
// The MULX/ADCX/ADOX kernels are hand-written carry chains, so they are
// checked on 10^5 seeded random operand pairs per width plus every pair of
// adversarial operands, with outputs aliasing inputs, and with both outcomes
// of the CIOS final conditional subtraction observed.

mp::U512 random_residue(cipher::Drbg& rng, const mp::U512& m) {
  mp::U512 x;
  Bytes b = rng.bytes(64);
  x = mp::U512::from_bytes_be(b);
  return mp::mod(x, m);
}

constexpr int kRandomPairs = 100000;

struct WidthModulus {
  const char* name;
  mp::U512 m;
  int random_pairs = kRandomPairs;
};

std::vector<WidthModulus> width_moduli() {
  return {
      {"test-256", curve::params(curve::ParamSet::kTest).p},
      {"production-512", curve::params(curve::ParamSet::kProduction).p},
  };
}

/// The deployed moduli, plus moduli whose high limbs are all ones: under
/// those the asm rows' rare carries (t[N] overflowing into t[N+1], the final
/// subtraction's top borrow) happen on ordinary operands. Any odd modulus is
/// a valid MontCtx.
std::vector<WidthModulus> kernel_moduli() {
  std::vector<WidthModulus> ms = width_moduli();
  for (size_t n : {4, 8}) {
    mp::U512 ones;
    for (size_t i = 0; i < n; ++i) ones.w[i] = ~0ull;
    mp::U512 top = ones;
    top.w[0] = 0x9E3779B97F4A7C15ull;
    top.w[1] = 0x0123456789ABCDEFull;
    ms.push_back({n == 4 ? "ones-256" : "ones-512", ones, kRandomPairs / 10});
    ms.push_back(
        {n == 4 ? "top-ones-256" : "top-ones-512", top, kRandomPairs / 10});
    // The widest modulus the MULX squaring takes (it needs m < R/2; wider
    // ones square through the CIOS product).
    mp::U512 half = mp::shr1(ones);
    ms.push_back(
        {n == 4 ? "half-ones-256" : "half-ones-512", half, kRandomPairs / 10});
  }
  return ms;
}

/// splitmix64: seeded bulk operands (the DRBG would dominate the runtime).
struct SplitMix {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

/// Uniform-ish residue < m: random limbs cut to m's bit length (< 2m), then
/// one conditional subtraction.
mp::U512 fast_residue(SplitMix& g, const mp::U512& m) {
  mp::U512 x;
  size_t bits = m.bit_length();
  for (size_t i = 0; i * 64 < bits; ++i) x.w[i] = g.next();
  if (bits % 64 != 0) x.w[bits / 64] &= (1ull << (bits % 64)) - 1;
  if (!(x < m)) mp::sub(x, x, m);
  return x;
}

/// 0, 1, R mod m, m − 1, m − (R mod m), and for every limb boundary k the
/// residues 2^{64k} − 1 and ⌊m / 2^{64k}⌋·2^{64k} − 1, whose low k limbs
/// are all ones.
std::vector<mp::U512> adversarial(const mp::MontCtx& ctx) {
  const mp::U512& m = ctx.modulus();
  const mp::U512 one = mp::U512::from_u64(1);
  std::vector<mp::U512> xs = {mp::U512{}, one, ctx.one(),
                              mp::sub_mod(mp::U512{}, one, m),
                              mp::sub_mod(mp::U512{}, ctx.one(), m)};
  for (size_t k = 1; k < ctx.limbs(); ++k) {
    mp::U512 low;
    for (size_t i = 0; i < k; ++i) low.w[i] = ~0ull;
    mp::U512 high = m;
    for (size_t i = 0; i < k; ++i) high.w[i] = 0;
    mp::sub(high, high, one);
    xs.push_back(low);
    xs.push_back(high);
  }
  return xs;
}

/// Whether CIOS took its final subtraction for r = a·b·R^{-1}: before it the
/// kernel holds t = (a·b + q·m)/R with 0 ≤ q < R, so t·R ≥ a·b, while
/// r = t − m gives r·R = a·b − (R − q)·m < a·b. Hence: subtracted iff
/// r·R < a·b.
bool took_final_subtraction(const mp::U512& a, const mp::U512& b,
                            const mp::U512& r, size_t n) {
  mp::U1024 ab;
  mp::mul_wide(ab, a, b);
  mp::U1024 rr{};
  for (size_t i = 0; i < n; ++i) rr[n + i] = r.w[i];
  for (size_t i = ab.size(); i-- > 0;) {
    if (rr[i] != ab[i]) return rr[i] < ab[i];
  }
  return false;
}

/// A fast (dispatched) and a forced-generic context for one modulus.
struct CtxPair {
  mp::MontCtx fast;
  mp::MontCtx slow;
};

CtxPair ctx_pair(const mp::U512& m) {
  ForceGenericGuard fast_env(false);
  mp::MontCtx fast(m);
  ForceGenericGuard slow_env(true);
  return {fast, mp::MontCtx(m)};
}

TEST(DispatchMont, MulSqrPowMatchForcedGeneric) {
  cipher::Drbg rng(to_bytes("dispatch-mont"));
  for (const WidthModulus& wc : kernel_moduli()) {
    SCOPED_TRACE(wc.name);
    auto [fast, slow] = ctx_pair(wc.m);
    EXPECT_STREQ(slow.kernel_name(), "generic");
    size_t mismatches = 0;
    size_t subtracted = 0;
    size_t kept = 0;
    size_t sqr_subtracted = 0;  // the same two outcomes for the squaring
    size_t sqr_kept = 0;
    auto check = [&](const mp::U512& a, const mp::U512& b) {
      mp::U512 r = fast.mul(a, b);
      mp::U512 s = fast.sqr(a);
      if (r != slow.mul(a, b) || s != slow.sqr(a) || !(r < wc.m) ||
          !(s < wc.m)) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << "a=" << a.to_hex() << " b=" << b.to_hex();
        }
      }
      (took_final_subtraction(a, b, r, fast.limbs()) ? subtracted : kept)++;
      (took_final_subtraction(a, a, s, fast.limbs()) ? sqr_subtracted
                                                      : sqr_kept)++;
    };
    const std::vector<mp::U512> adv = adversarial(fast);
    for (const mp::U512& a : adv) {
      for (const mp::U512& b : adv) check(a, b);
    }
    SplitMix g{0x5EED0000u + fast.limbs()};
    for (int i = 0; i < wc.random_pairs; ++i) {
      mp::U512 a = fast_residue(g, wc.m);
      check(a, fast_residue(g, wc.m));
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(subtracted, 0u);
    EXPECT_GT(kept, 0u);
    EXPECT_GT(sqr_subtracted, 0u);
    EXPECT_GT(sqr_kept, 0u);

    // pow and the to/from-Montgomery conversions ride on mul.
    std::vector<mp::U512> xs = adv;
    for (int i = 0; i < 8; ++i) xs.push_back(random_residue(rng, wc.m));
    for (size_t i = 0; i + 1 < xs.size(); ++i) {
      const mp::U512& a = xs[i];
      const mp::U512& b = xs[i + 1];
      EXPECT_EQ(fast.pow(a, b), slow.pow(a, b));
      EXPECT_EQ(fast.to_mont(a), slow.to_mont(a));
      EXPECT_EQ(fast.from_mont(a), slow.from_mont(a));
    }
  }
}

TEST(DispatchMont, Fp2KernelsMatchForcedGeneric) {
  for (const WidthModulus& wc : kernel_moduli()) {
    SCOPED_TRACE(wc.name);
    auto [fast, slow] = ctx_pair(wc.m);
    size_t mismatches = 0;
    // Outcomes of the Karatsuba sum a_re + a_im (wraps past m or not) and
    // difference a_re − a_im (borrows or not), so both branches of the
    // kernels' modular add and subtract run.
    size_t sum_wraps = 0, sum_fits = 0, diff_borrows = 0, diff_fits = 0;
    // Whether the lazy product's a_re·b_re − a_im·b_im is negative before
    // its 2m^2 bias, so a missing bias shows.
    size_t re_negative = 0, re_nonnegative = 0;
    auto check = [&](const mp::U512& ar, const mp::U512& ai,
                     const mp::U512& br, const mp::U512& bi, bool alias) {
      mp::U512 fr, fi, sr, si, qr, qi, tr, ti;
      fast.fp2_mul(fr, fi, ar, ai, br, bi);
      slow.fp2_mul(sr, si, ar, ai, br, bi);
      fast.fp2_sqr(qr, qi, ar, ai);
      slow.fp2_sqr(tr, ti, ar, ai);
      bool ok = fr == sr && fi == si && qr == tr && qi == ti && fr < wc.m &&
                fi < wc.m && qr < wc.m && qi < wc.m;
      if (alias) {  // outputs aliasing the first operand, the second, both
        mp::U512 xr = ar, xi = ai;
        fast.fp2_mul(xr, xi, xr, xi, br, bi);
        ok = ok && xr == fr && xi == fi;
        mp::U512 yr = br, yi = bi;
        fast.fp2_mul(yr, yi, ar, ai, yr, yi);
        ok = ok && yr == fr && yi == fi;
        xr = ar, xi = ai;
        fast.fp2_sqr(xr, xi, xr, xi);
        ok = ok && xr == qr && xi == qi;
        xr = ar, xi = ai;
        fast.fp2_mul(xr, xi, xr, xi, xr, xi);
        ok = ok && xr == qr && xi == qi;
      }
      if (!ok && mismatches++ == 0) {
        ADD_FAILURE() << "a=(" << ar.to_hex() << ", " << ai.to_hex()
                      << ") b=(" << br.to_hex() << ", " << bi.to_hex() << ")";
      }
      mp::U512 t;
      (mp::add(t, ar, ai) != 0 || !(t < wc.m) ? sum_wraps : sum_fits)++;
      (ar < ai ? diff_borrows : diff_fits)++;
      mp::U1024 t0, t1;
      mp::mul_wide(t0, ar, br);
      mp::mul_wide(t1, ai, bi);
      (std::lexicographical_compare(t0.rbegin(), t0.rend(), t1.rbegin(),
                                    t1.rend())
           ? re_negative
           : re_nonnegative)++;
    };
    const std::vector<mp::U512> adv = adversarial(fast);
    const mp::U512 top = mp::sub_mod(mp::U512{}, mp::U512::from_u64(1), wc.m);
    for (const mp::U512& x : adv) {
      for (const mp::U512& y : adv) {
        check(x, y, y, x, true);
        check(x, y, top, top, true);
      }
    }
    SplitMix g{0xF2F20000u + fast.limbs()};
    for (int i = 0; i < wc.random_pairs; ++i) {
      mp::U512 ar = fast_residue(g, wc.m);
      mp::U512 ai = fast_residue(g, wc.m);
      mp::U512 br = fast_residue(g, wc.m);
      check(ar, ai, br, fast_residue(g, wc.m), i % 16 == 0);
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(sum_wraps, 0u);
    EXPECT_GT(sum_fits, 0u);
    EXPECT_GT(diff_borrows, 0u);
    EXPECT_GT(diff_fits, 0u);
    EXPECT_GT(re_negative, 0u);
    EXPECT_GT(re_nonnegative, 0u);
  }
}

TEST(DispatchMont, AddSubNegMatchForcedGeneric) {
  for (const WidthModulus& wc : kernel_moduli()) {
    SCOPED_TRACE(wc.name);
    auto [fast, slow] = ctx_pair(wc.m);
    size_t mismatches = 0;
    // a + b past 2^{64n} (only the full-width moduli allow it), a + b in
    // [m, 2^{64n}), a + b < m; a − b borrowing or not.
    size_t top_carry = 0, wraps = 0, fits = 0, borrows = 0, no_borrow = 0;
    auto check = [&](const mp::U512& a, const mp::U512& b) {
      mp::U512 s = fast.add(a, b);
      mp::U512 d = fast.sub(a, b);
      mp::U512 n = fast.sub(mp::U512{}, a);  // Fp::neg
      bool ok = s == slow.add(a, b) && d == slow.sub(a, b) &&
                n == slow.sub(mp::U512{}, a) && s < wc.m && d < wc.m &&
                n < wc.m;
      mp::U512 aa = a, bb = b;  // outputs aliasing the inputs
      aa = fast.add(aa, b);
      bb = fast.sub(a, bb);
      ok = ok && aa == s && bb == d;
      if (!ok && mismatches++ == 0) {
        ADD_FAILURE() << "a=" << a.to_hex() << " b=" << b.to_hex();
      }
      mp::U512 t;
      uint64_t carry = 0;
      for (size_t i = 0; i < fast.limbs(); ++i) {  // a + b over n limbs
        unsigned __int128 v = static_cast<unsigned __int128>(a.w[i]) + b.w[i] +
                              carry;
        t.w[i] = static_cast<uint64_t>(v);
        carry = static_cast<uint64_t>(v >> 64);
      }
      (carry != 0 ? top_carry : !(t < wc.m) ? wraps : fits)++;
      (a < b ? borrows : no_borrow)++;
    };
    const std::vector<mp::U512> adv = adversarial(fast);
    for (const mp::U512& a : adv) {
      for (const mp::U512& b : adv) check(a, b);
    }
    SplitMix g{0xADD50000u + fast.limbs()};
    for (int i = 0; i < wc.random_pairs; ++i) {
      mp::U512 a = fast_residue(g, wc.m);
      check(a, fast_residue(g, wc.m));
    }
    EXPECT_EQ(mismatches, 0u);
    if (wc.m.bit_length() == 64 * fast.limbs()) {
      EXPECT_GT(top_carry, 0u);
    }
    EXPECT_GT(wraps, 0u);
    EXPECT_GT(fits, 0u);
    EXPECT_GT(borrows, 0u);
    EXPECT_GT(no_borrow, 0u);
  }
}

TEST(DispatchMont, BatchInvAndInvMatchForcedGeneric) {
  cipher::Drbg rng(to_bytes("dispatch-mont-inv"));
  for (const WidthModulus& wc : width_moduli()) {
    SCOPED_TRACE(wc.name);
    auto [fast, slow] = ctx_pair(wc.m);
    std::vector<mp::U512> xs;
    for (int i = 0; i < 16; ++i) {
      mp::U512 x = random_residue(rng, wc.m);
      if (x.is_zero()) x = fast.one();
      xs.push_back(x);
    }
    std::vector<mp::U512> fast_xs = xs;
    std::vector<mp::U512> slow_xs = xs;
    fast.batch_inv(fast_xs);
    slow.batch_inv(slow_xs);
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(fast_xs[i], slow_xs[i]) << "slot " << i;
      EXPECT_EQ(fast.inv(xs[i]), slow.inv(xs[i])) << "slot " << i;
    }
  }
}

/// The oracle of MontCtx::lucas, by a route of its own: with the matrix
/// M = [[v1, −1], [1, 0]], (V_{k+1}, V_k) = M^k·(v1, 2), and M^e comes from
/// square-and-multiply over ctx's Montgomery products.
std::pair<mp::U512, mp::U512> lucas_by_matrix(const mp::MontCtx& ctx,
                                              const mp::U512& v1,
                                              const mp::U512& e) {
  using Mat = std::array<mp::U512, 4>;  // row-major 2×2
  auto prod = [&ctx](const Mat& x, const Mat& y) {
    auto dot = [&](const mp::U512& a, const mp::U512& b, const mp::U512& c,
                   const mp::U512& d) {
      return ctx.add(ctx.mul(a, b), ctx.mul(c, d));
    };
    return Mat{dot(x[0], y[0], x[1], y[2]), dot(x[0], y[1], x[1], y[3]),
               dot(x[2], y[0], x[3], y[2]), dot(x[2], y[1], x[3], y[3])};
  };
  const mp::U512 zero;
  const Mat step = {v1, ctx.sub(zero, ctx.one()), ctx.one(), zero};
  Mat acc = {ctx.one(), zero, zero, ctx.one()};
  for (size_t i = e.bit_length(); i-- > 0;) {
    acc = prod(acc, acc);
    if (e.bit(i)) acc = prod(acc, step);
  }
  const mp::U512 two = ctx.add(ctx.one(), ctx.one());
  const Mat col = prod(acc, Mat{v1, zero, two, zero});
  return {col[2], col[0]};  // (V_e, V_{e+1})
}

// The final exponentiation's ladder: the MULX body against the portable
// twin, and both against the matrix oracle, over every kernel modulus (the
// full-width ones square through the product) and the exponents 0, 1, 2,
// the production cofactor, all ones and random ones.
TEST(DispatchMont, LucasLadderMatchesForcedGeneric) {
  cipher::Drbg rng(to_bytes("dispatch-mont-lucas"));
  mp::U512 ones;
  for (uint64_t& w : ones.w) w = ~0ull;
  std::vector<mp::U512> exps = {
      mp::U512{}, mp::U512::from_u64(1), mp::U512::from_u64(2),
      curve::params(curve::ParamSet::kProduction).cofactor, ones};
  for (int i = 0; i < 3; ++i) exps.push_back(random_residue(rng, ones));
  for (const WidthModulus& wc : kernel_moduli()) {
    SCOPED_TRACE(wc.name);
    auto [fast, slow] = ctx_pair(wc.m);
    std::vector<mp::U512> v1s = adversarial(fast);
    for (int i = 0; i < 4; ++i) v1s.push_back(random_residue(rng, wc.m));
    size_t mismatches = 0;
    for (const mp::U512& v1 : v1s) {
      for (const mp::U512& e : exps) {
        mp::U512 lo, hi, slo, shi;
        fast.lucas(lo, hi, v1, e);
        slow.lucas(slo, shi, v1, e);
        const auto [want_lo, want_hi] = lucas_by_matrix(slow, v1, e);
        if ((lo != slo || hi != shi || lo != want_lo || hi != want_hi) &&
            mismatches++ == 0) {
          ADD_FAILURE() << "v1=" << v1.to_hex() << " e=" << e.to_hex();
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// ---- SHA-256: SHA-NI kernel vs the portable compression function ---------
//
// Every SHA-256 caller (HMAC, the PRF/PRP stack, AEAD, HKDF, frame checksums,
// ledger hashes) goes through Sha256::update/finish, so these cases drive
// that one entry under both kernels: known answers, random messages fed in
// random chunks (aligned and unaligned block runs), every length across the
// one- and two-block padding, and a copied mid-state as HmacKey keeps it.

std::string hex(const hash::Digest& d) {
  return hex_encode(BytesView(d.data(), d.size()));
}

TEST(DispatchSha256, KnownAnswersBothVariants) {
  for (bool forced : {false, true}) {
    ForceGenericGuard guard(forced);
    SCOPED_TRACE(hash::sha256_kernel_name());
    EXPECT_EQ(
        hex(hash::sha256(Bytes{})),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        hex(hash::sha256(to_bytes("abc"))),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        hex(hash::sha256(to_bytes(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    hash::Sha256 h;
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(
        hex(h.finish()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    // RFC 4231 cases 1, 2 and 6 (key longer than a block).
    EXPECT_EQ(
        hex_encode(hash::hmac_sha256(Bytes(20, 0x0b), to_bytes("Hi There"))),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(
        hex_encode(hash::hmac_sha256(
            to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    EXPECT_EQ(
        hex_encode(hash::hmac_sha256(
            Bytes(131, 0xaa),
            to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  }
}

Bytes splitmix_bytes(SplitMix& g, size_t len) {
  Bytes out(len);
  for (uint8_t& b : out) b = static_cast<uint8_t>(g.next());
  return out;
}

TEST(DispatchSha256, RandomChunkedMessagesMatchAcrossVariants) {
  SplitMix g{0x5A256u};
  int mismatches = 0;
  for (int m = 0; m < 10000; ++m) {
    Bytes msg = splitmix_bytes(g, g.next() % 1001);
    // Random split points, shared by both variants.
    std::vector<size_t> cuts;
    for (size_t at = 0; at < msg.size();) {
      at = std::min(msg.size(), at + 1 + g.next() % 200);
      cuts.push_back(at);
    }
    hash::Digest digests[2];
    hash::Digest one_shot{};
    for (bool forced : {false, true}) {
      ForceGenericGuard guard(forced);
      hash::Sha256 h;
      size_t from = 0;
      for (size_t to : cuts) {
        h.update(BytesView(msg).subspan(from, to - from));
        from = to;
      }
      digests[forced] = h.finish();
      if (forced) one_shot = hash::sha256(msg);
    }
    if ((digests[0] != digests[1] || digests[1] != one_shot) &&
        mismatches++ == 0) {
      ADD_FAILURE() << "message #" << m << " of " << msg.size() << " bytes";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(DispatchSha256, EveryLengthAcrossThePaddingBlocks) {
  SplitMix g{0x0B10C5u};
  Bytes msg = splitmix_bytes(g, 130);
  Bytes all_digests;
  for (size_t len = 0; len <= msg.size(); ++len) {
    BytesView m = BytesView(msg).subspan(0, len);
    hash::Digest fast, slow;
    {
      ForceGenericGuard guard(false);
      fast = hash::sha256(m);
    }
    {
      ForceGenericGuard guard(true);
      slow = hash::sha256(m);
    }
    EXPECT_EQ(fast, slow) << "len=" << len;
    all_digests.insert(all_digests.end(), slow.begin(), slow.end());
  }
  // SHA-256 of the 131 digests, computed independently (Python hashlib), so
  // a padding bug shared by both kernels cannot pass either.
  EXPECT_EQ(
      hex(hash::sha256(all_digests)),
      "12e4961fc8ec376f1ed1391f44715223cc940badb8ac1d825e1ecd7c90fbef99");
}

TEST(DispatchSha256, CopiedMidStateContinuesUnderEitherKernel) {
  // HmacKey's shape: absorb one key block, copy the midstate, finish the
  // copies on short messages — here with the prefix and the continuation
  // each run on either kernel.
  SplitMix g{0x11D57A7Eu};
  Bytes block = splitmix_bytes(g, 64);
  Bytes prefix_tail = splitmix_bytes(g, 23);
  for (size_t len : {0, 9, 55, 56, 64, 100}) {
    Bytes msg = splitmix_bytes(g, len);
    std::vector<hash::Digest> digests;
    for (bool prefix_forced : {false, true}) {
      hash::Sha256 mid;
      {
        ForceGenericGuard guard(prefix_forced);
        mid.update(block);
        mid.update(prefix_tail);
      }
      for (bool rest_forced : {false, true}) {
        ForceGenericGuard guard(rest_forced);
        hash::Sha256 copy = mid;
        copy.update(msg);
        digests.push_back(copy.finish());
      }
    }
    for (const hash::Digest& d : digests) {
      EXPECT_EQ(d, digests.front()) << "len=" << len;
    }
    EXPECT_EQ(digests.front(),
              hash::sha256(concat(block, prefix_tail, msg)));
  }
}

TEST(DispatchSha256, KernelNameReflectsForcedGeneric) {
  {
    ForceGenericGuard guard(true);
    EXPECT_STREQ(hash::sha256_kernel_name(), "generic");
  }
  ForceGenericGuard guard(false);
  EXPECT_STREQ(hash::sha256_kernel_name(),
               mp::cpu_features().sha ? "sha-ni" : "generic");
}

}  // namespace
}  // namespace hcpp
