// Differential tests for the width-aware Montgomery engine: every MontCtx
// operation is checked against the plain mp::mod-based reference arithmetic
// at both deployed widths (n = 4 for the 256-bit test prime, n = 8 for the
// 512-bit production prime), on random, boundary and all-high-limb inputs.
// The lazy-reduction fp2_mul/fp2_sqr kernels and batch_inv are covered here
// too, independently of the Fp/Fp2 wrappers. The divstep inversion is
// checked against the mp::inv_mod oracle at every width it runs at.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/cipher/drbg.h"
#include "src/curve/params.h"
#include "src/mp/mont.h"
#include "src/mp/prime.h"
#include "src/mp/u512.h"

namespace hcpp::mp {
namespace {

cipher::Drbg test_rng(std::string_view tag) {
  return cipher::Drbg(to_bytes(tag));
}

const U512& modulus_for(curve::ParamSet set) {
  return curve::params(set).p;
}

struct WidthCase {
  const char* name;
  U512 m;
  size_t expect_limbs;
};

std::vector<WidthCase> width_cases() {
  return {
      {"test-256", modulus_for(curve::ParamSet::kTest), 4},
      {"production-512", modulus_for(curve::ParamSet::kProduction), 8},
  };
}

// Interesting operand values for a modulus m: boundaries plus patterns that
// stress the carry chains of the fixed-width kernels.
std::vector<U512> boundary_values(const U512& m, size_t n) {
  U512 m_minus1;
  sub(m_minus1, m, U512::from_u64(1));
  U512 high;  // all active limbs saturated, reduced into range
  for (size_t i = 0; i < n; ++i) high.w[i] = ~0ull;
  high = mod(high, m);
  U512 top_limb;  // only the top active limb set
  top_limb.w[n - 1] = ~0ull;
  top_limb = mod(top_limb, m);
  return {U512{}, U512::from_u64(1), U512::from_u64(2), m_minus1, high,
          top_limb};
}

TEST(MontCtx, LimbCountFollowsModulusWidth) {
  for (const WidthCase& wc : width_cases()) {
    EXPECT_EQ(MontCtx(wc.m).limbs(), wc.expect_limbs) << wc.name;
  }
  // Odd widths fall through to the generic kernel.
  EXPECT_EQ(MontCtx(U512::from_u64(0xffffffffffffffc5ull)).limbs(), 1u);
  EXPECT_EQ(MontCtx(curve::params(curve::ParamSet::kTest).q).limbs(), 3u);
}

TEST(MontCtx, RoundTripAndMulMatchReference) {
  for (const WidthCase& wc : width_cases()) {
    MontCtx mont(wc.m);
    auto rng = test_rng("mont-mul");
    std::vector<U512> pool = boundary_values(wc.m, wc.expect_limbs);
    for (int i = 0; i < 40; ++i) {
      pool.push_back(random_below(wc.m, rng));
    }
    for (const U512& a : pool) {
      EXPECT_EQ(mont.from_mont(mont.to_mont(a)), a) << wc.name;
      for (const U512& b : pool) {
        U512 got =
            mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b)));
        EXPECT_EQ(got, mul_mod(a, b, wc.m)) << wc.name;
      }
    }
  }
}

TEST(MontCtx, ToMontReducesOutOfRangeInput) {
  for (const WidthCase& wc : width_cases()) {
    MontCtx mont(wc.m);
    // Values ≥ m (including limbs above the active width for the 256-bit
    // set) must be reduced, not truncated, on entry.
    U512 big;
    big.w.fill(~0ull);
    EXPECT_EQ(mont.from_mont(mont.to_mont(big)), mod(big, wc.m)) << wc.name;
    EXPECT_EQ(mont.from_mont(mont.to_mont(wc.m)), U512{}) << wc.name;
  }
}

TEST(MontCtx, AddSubSqrMatchReference) {
  for (const WidthCase& wc : width_cases()) {
    MontCtx mont(wc.m);
    auto rng = test_rng("mont-addsub");
    std::vector<U512> pool = boundary_values(wc.m, wc.expect_limbs);
    for (int i = 0; i < 40; ++i) pool.push_back(random_below(wc.m, rng));
    for (const U512& a : pool) {
      EXPECT_EQ(mont.from_mont(mont.sqr(mont.to_mont(a))),
                mul_mod(a, a, wc.m))
          << wc.name;
      for (const U512& b : pool) {
        EXPECT_EQ(mont.add(a, b), add_mod(a, b, wc.m)) << wc.name;
        EXPECT_EQ(mont.sub(a, b), sub_mod(a, b, wc.m)) << wc.name;
      }
    }
  }
}

TEST(MontCtx, PowMatchesSquareAndMultiply) {
  for (const WidthCase& wc : width_cases()) {
    MontCtx mont(wc.m);
    auto rng = test_rng("mont-pow");
    for (int i = 0; i < 10; ++i) {
      U512 base = random_below(wc.m, rng);
      U512 e = random_bits(96, rng);
      // Plain square-and-multiply over mul_mod as the oracle.
      U512 want = U512::from_u64(1);
      for (size_t bit = e.bit_length(); bit-- > 0;) {
        want = mul_mod(want, want, wc.m);
        if (e.bit(bit)) want = mul_mod(want, base, wc.m);
      }
      EXPECT_EQ(mont.from_mont(mont.pow(mont.to_mont(base), e)), want)
          << wc.name;
    }
    // Edge exponents.
    U512 base = random_below(wc.m, rng);
    EXPECT_EQ(mont.pow(mont.to_mont(base), U512{}), mont.one()) << wc.name;
    EXPECT_EQ(mont.from_mont(mont.pow(mont.to_mont(base), U512::from_u64(1))),
              base)
        << wc.name;
  }
}

// Every modulus width the divstep inversion runs at: both field primes
// (n = 4, 8), both scalar-field primes (n = 3), a one-limb prime, and the
// 512-bit prime 2^512 − 569, whose top limb is all ones.
std::vector<WidthCase> inv_cases() {
  U512 top_ones;
  top_ones.w.fill(~0ull);
  sub(top_ones, top_ones, U512::from_u64(568));  // 2^512 − 569
  std::vector<WidthCase> cases = width_cases();
  cases.push_back({"test-q", curve::params(curve::ParamSet::kTest).q, 3});
  cases.push_back(
      {"production-q", curve::params(curve::ParamSet::kProduction).q, 3});
  cases.push_back({"one-limb", U512::from_u64(0xffffffffffffffc5ull), 1});
  cases.push_back({"512-all-ones-top", top_ones, 8});
  return cases;
}

// Differential check of the divstep MontCtx::inv against the binary
// extended Euclid oracle mp::inv_mod. inv() maps a raw residue a to
// a^{-1}R^2, so two Montgomery reductions recover the plain inverse.
TEST(MontCtx, InvMatchesInvMod) {
  for (const WidthCase& wc : inv_cases()) {
    MontCtx mont(wc.m);
    ASSERT_EQ(mont.limbs(), wc.expect_limbs) << wc.name;
    auto rng = test_rng("mont-inv");
    ASSERT_TRUE(is_probable_prime(wc.m, rng)) << wc.name;
    U512 half;  // (m + 1) / 2
    add(half, wc.m, U512::from_u64(1));
    half = shr1(half);
    U512 m_minus1;
    sub(m_minus1, wc.m, U512::from_u64(1));
    std::vector<U512> pool = boundary_values(wc.m, wc.expect_limbs);
    for (const U512& v : {U512::from_u64(1), U512::from_u64(2), m_minus1,
                          half, mont.one()}) {
      pool.push_back(v);
    }
    for (size_t k = 1; k < wc.m.bit_length(); ++k) {
      U512 pow2;
      pow2.w[k / 64] = 1ull << (k % 64);
      pool.push_back(pow2);
    }
    for (int i = 0; i < 10000; ++i) pool.push_back(random_below(wc.m, rng));
    for (const U512& a : pool) {
      if (a.is_zero()) continue;
      EXPECT_EQ(mont.from_mont(mont.from_mont(mont.inv(a))), inv_mod(a, wc.m))
          << wc.name << " a=" << a.to_hex();
    }
    EXPECT_THROW((void)mont.inv(U512{}), std::domain_error) << wc.name;
  }
}

// Under a composite odd modulus a shared factor has no inverse: inv() must
// throw instead of returning the garbage the divsteps end on, while
// coprime inputs still match the oracle.
TEST(MontCtx, InvThrowsOnNonInvertibleInput) {
  const curve::CurveCtx& test = curve::params(curve::ParamSet::kTest);
  U512 small_composite = U512::from_u64(3 * 5 * 7 * 0x1fffffffffffull);
  U1024 wide;
  mul_wide(wide, test.p, test.q);
  U512 pq;  // 406 bits, 7 limbs
  for (size_t i = 0; i < kLimbs; ++i) pq.w[i] = wide[i];
  struct Case {
    U512 m;
    std::vector<U512> shared, coprime;
  };
  U512 five_q = mul_mod(test.q, U512::from_u64(5), pq);
  const Case cases[] = {
      {small_composite,
       {U512::from_u64(3), U512::from_u64(35), U512::from_u64(21 * 12345)},
       {U512::from_u64(2), U512::from_u64(11)}},
      {pq, {test.q, five_q, test.p}, {U512::from_u64(2), test.gx}},
  };
  for (const Case& c : cases) {
    MontCtx mont(c.m);
    for (const U512& a : c.shared) {
      EXPECT_THROW((void)mont.inv(a), std::domain_error) << a.to_hex();
    }
    for (const U512& a : c.coprime) {
      EXPECT_EQ(mont.from_mont(mont.from_mont(mont.inv(a))), inv_mod(a, c.m));
    }
    EXPECT_THROW((void)mont.inv(U512{}), std::domain_error);
  }
}

TEST(MontCtx, BatchInvMatchesPerElementInv) {
  for (const WidthCase& wc : width_cases()) {
    MontCtx mont(wc.m);
    auto rng = test_rng("mont-batch-inv");
    for (size_t count : {1u, 2u, 7u, 64u}) {
      std::vector<U512> xs;
      for (size_t i = 0; i < count; ++i) {
        U512 v = random_below(wc.m, rng);
        if (v.is_zero()) v = U512::from_u64(1);
        xs.push_back(mont.to_mont(v));
      }
      std::vector<U512> want;
      want.reserve(xs.size());
      for (const U512& x : xs) want.push_back(mont.inv(x));
      mont.batch_inv(xs);
      EXPECT_EQ(xs, want) << wc.name << " count=" << count;
    }
    // Empty span is a no-op.
    std::vector<U512> empty;
    mont.batch_inv(empty);
    EXPECT_TRUE(empty.empty());
  }
}

TEST(MontCtx, BatchInvThrowsOnZeroWithoutModifying) {
  const U512& m = modulus_for(curve::ParamSet::kTest);
  MontCtx mont(m);
  std::vector<U512> xs = {mont.to_mont(U512::from_u64(3)), U512{},
                          mont.to_mont(U512::from_u64(5))};
  std::vector<U512> before = xs;
  EXPECT_THROW(mont.batch_inv(xs), std::domain_error);
  EXPECT_EQ(xs, before);  // same contract as per-element inv()
}

// Reference F_{p^2} multiplication from first principles on plain values.
void ref_fp2_mul(U512& re, U512& im, const U512& ar, const U512& ai,
                 const U512& br, const U512& bi, const U512& m) {
  re = sub_mod(mul_mod(ar, br, m), mul_mod(ai, bi, m), m);
  im = add_mod(mul_mod(ar, bi, m), mul_mod(ai, br, m), m);
}

TEST(MontCtx, Fp2MulMatchesReference) {
  for (const WidthCase& wc : width_cases()) {
    MontCtx mont(wc.m);
    auto rng = test_rng("mont-fp2");
    std::vector<U512> pool = boundary_values(wc.m, wc.expect_limbs);
    for (int i = 0; i < 12; ++i) pool.push_back(random_below(wc.m, rng));
    for (size_t i = 0; i + 3 < pool.size(); ++i) {
      const U512 &ar = pool[i], &ai = pool[i + 1], &br = pool[i + 2],
                 &bi = pool[i + 3];
      U512 want_re, want_im;
      ref_fp2_mul(want_re, want_im, ar, ai, br, bi, wc.m);
      U512 got_re, got_im;
      mont.fp2_mul(got_re, got_im, mont.to_mont(ar), mont.to_mont(ai),
                   mont.to_mont(br), mont.to_mont(bi));
      EXPECT_EQ(mont.from_mont(got_re), want_re) << wc.name;
      EXPECT_EQ(mont.from_mont(got_im), want_im) << wc.name;
      // Squaring path, same operands.
      ref_fp2_mul(want_re, want_im, ar, ai, ar, ai, wc.m);
      mont.fp2_sqr(got_re, got_im, mont.to_mont(ar), mont.to_mont(ai));
      EXPECT_EQ(mont.from_mont(got_re), want_re) << wc.name;
      EXPECT_EQ(mont.from_mont(got_im), want_im) << wc.name;
    }
  }
}

TEST(MontCtx, Fp2OutputsAliasInputsSafely) {
  const U512& m = modulus_for(curve::ParamSet::kTest);
  MontCtx mont(m);
  auto rng = test_rng("mont-fp2-alias");
  U512 ar = mont.to_mont(random_below(m, rng));
  U512 ai = mont.to_mont(random_below(m, rng));
  U512 want_re, want_im;
  mont.fp2_mul(want_re, want_im, ar, ai, ar, ai);
  U512 x = ar, y = ai;
  mont.fp2_mul(x, y, x, y, x, y);  // outputs alias all inputs
  EXPECT_EQ(x, want_re);
  EXPECT_EQ(y, want_im);
  x = ar;
  y = ai;
  mont.fp2_sqr(x, y, x, y);
  EXPECT_EQ(x, want_re);
  EXPECT_EQ(y, want_im);
}

TEST(MontCtx, RejectsBadModulus) {
  EXPECT_THROW(MontCtx(U512::from_u64(8)), std::invalid_argument);  // even
  EXPECT_THROW(MontCtx(U512::from_u64(1)), std::invalid_argument);
  EXPECT_THROW(MontCtx(U512{}), std::invalid_argument);
}

}  // namespace
}  // namespace hcpp::mp
