// Unit and property tests for the 512-bit multiprecision layer: plain
// arithmetic, Montgomery contexts, inversion and primality testing.
#include <gtest/gtest.h>

#include "src/cipher/drbg.h"
#include "src/mp/mont.h"
#include "src/mp/prime.h"
#include "src/mp/u512.h"
#include "tests/oracle/oracle.h"

namespace hcpp::mp {
namespace {

cipher::Drbg test_rng(std::string_view tag) {
  return cipher::Drbg(to_bytes(tag));
}

TEST(U512, HexRoundTrip) {
  U512 v = U512::from_hex("deadbeef0123456789");
  EXPECT_EQ(v.to_hex(), "deadbeef0123456789");
  EXPECT_EQ(U512::from_u64(0).to_hex(), "00");
  EXPECT_EQ(U512::from_u64(255).to_hex(), "ff");
}

TEST(U512, BytesRoundTrip) {
  U512 v = U512::from_hex("0102030405060708090a");
  Bytes be = v.to_bytes_be();
  EXPECT_EQ(be.size(), 64u);
  EXPECT_EQ(U512::from_bytes_be(be), v);
  EXPECT_EQ(hex_encode(v.to_bytes_be_trimmed()), "0102030405060708090a");
}

TEST(U512, FromHexRejectsBadInput) {
  EXPECT_THROW(U512::from_hex("xy"), std::invalid_argument);
  EXPECT_THROW(U512::from_hex(std::string(129, 'a')), std::invalid_argument);
}

TEST(U512, Comparison) {
  U512 small = U512::from_u64(5);
  U512 big = U512::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(small, U512::from_u64(5));
}

TEST(U512, BitLength) {
  EXPECT_EQ(U512{}.bit_length(), 0u);
  EXPECT_EQ(U512::from_u64(1).bit_length(), 1u);
  EXPECT_EQ(U512::from_u64(255).bit_length(), 8u);
  EXPECT_EQ(U512::from_hex("1" + std::string(32, '0')).bit_length(), 129u);
}

TEST(U512, AddSubCarryBorrow) {
  U512 max;
  max.w.fill(~0ull);
  U512 r;
  EXPECT_EQ(add(r, max, U512::from_u64(1)), 1u);  // wraps with carry
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(sub(r, U512{}, U512::from_u64(1)), 1u);  // borrows
  EXPECT_EQ(r, max);
}

TEST(U512, AddSubInverse) {
  auto rng = test_rng("addsub");
  for (int i = 0; i < 50; ++i) {
    U512 a = random_bits(500, rng);
    U512 b = random_bits(490, rng);
    U512 sum, back;
    add(sum, a, b);
    sub(back, sum, b);
    EXPECT_EQ(back, a);
  }
}

TEST(U512, MulWideMatchesSmallCases) {
  U1024 wide;
  mul_wide(wide, U512::from_u64(0xffffffffffffffffull),
           U512::from_u64(0xffffffffffffffffull));
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(wide[0], 1u);
  EXPECT_EQ(wide[1], 0xfffffffffffffffeull);
  for (size_t i = 2; i < wide.size(); ++i) EXPECT_EQ(wide[i], 0u);
}

TEST(U512, ModBasics) {
  EXPECT_EQ(mod(U512::from_u64(17), U512::from_u64(5)), U512::from_u64(2));
  EXPECT_EQ(mod(U512::from_u64(4), U512::from_u64(5)), U512::from_u64(4));
  EXPECT_THROW(mod(U512::from_u64(1), U512{}), std::domain_error);
}

TEST(U512, MulModAgainstSmallModel) {
  auto rng = test_rng("mulmod");
  for (int i = 0; i < 100; ++i) {
    uint64_t a = rng.u64() % 100000;
    uint64_t b = rng.u64() % 100000;
    uint64_t m = 2 + rng.u64() % 100000;
    U512 r = mul_mod(U512::from_u64(a), U512::from_u64(b), U512::from_u64(m));
    EXPECT_EQ(r, U512::from_u64((a * b) % m));
  }
}

TEST(U512, ShiftHelpers) {
  U512 v = U512::from_hex("8000000000000001");
  EXPECT_EQ(shl1(v), U512::from_hex("10000000000000002"));
  EXPECT_EQ(shr1(v), U512::from_hex("4000000000000000"));
  // Carry-in lands in the top bit.
  U512 r = shr1_carry(U512{}, 1);
  EXPECT_EQ(r.bit_length(), 512u);
}

TEST(U512, DivModReconstruction) {
  auto rng = test_rng("divmod");
  for (int i = 0; i < 60; ++i) {
    U512 a = random_bits(20 + (static_cast<size_t>(rng.u64()) % 480), rng);
    U512 m = random_bits(1 + (static_cast<size_t>(rng.u64()) % 400), rng);
    if (m.is_zero()) continue;
    DivMod dm = divmod(a, m);
    EXPECT_LT(dm.remainder, m);
    // a == q*m + r
    U1024 wide;
    mul_wide(wide, dm.quotient, m);
    bool high_zero = true;
    for (size_t l = kLimbs; l < 2 * kLimbs; ++l) high_zero &= (wide[l] == 0);
    ASSERT_TRUE(high_zero);  // quotient*m fits: it is <= a
    U512 qm;
    for (size_t l = 0; l < kLimbs; ++l) qm.w[l] = wide[l];
    U512 back;
    EXPECT_EQ(add(back, qm, dm.remainder), 0u);
    EXPECT_EQ(back, a);
  }
  EXPECT_THROW(divmod(U512::from_u64(1), U512{}), std::domain_error);
}

TEST(U512, DivModSmallCases) {
  DivMod dm = divmod(U512::from_u64(17), U512::from_u64(5));
  EXPECT_EQ(dm.quotient, U512::from_u64(3));
  EXPECT_EQ(dm.remainder, U512::from_u64(2));
  dm = divmod(U512::from_u64(4), U512::from_u64(9));
  EXPECT_EQ(dm.quotient, U512::from_u64(0));
  EXPECT_EQ(dm.remainder, U512::from_u64(4));
  dm = divmod(U512::from_u64(100), U512::from_u64(10));
  EXPECT_EQ(dm.quotient, U512::from_u64(10));
  EXPECT_TRUE(dm.remainder.is_zero());
}

TEST(U512, ModWideMatchesCompositionIdentity) {
  // For wide = a·b: wide mod m must equal ((a mod m)·(b mod m)) mod m.
  auto rng = test_rng("modwide");
  for (int i = 0; i < 40; ++i) {
    U512 a = random_bits(500, rng);
    U512 b = random_bits(480, rng);
    U512 m = random_bits(100 + (static_cast<size_t>(rng.u64()) % 300), rng);
    U1024 wide;
    mul_wide(wide, a, b);
    U512 direct = mod_wide(wide, m);
    U512 stepwise = mul_mod(mod(a, m), mod(b, m), m);
    EXPECT_EQ(direct, stepwise);
  }
}

TEST(U512, InvModProperty) {
  auto rng = test_rng("invmod");
  U512 m = generate_prime(128, rng);
  for (int i = 0; i < 25; ++i) {
    U512 a = random_below(m, rng);
    if (a.is_zero()) continue;
    U512 inv = inv_mod(a, m);
    EXPECT_EQ(mul_mod(a, inv, m), U512::from_u64(1));
  }
}

TEST(U512, InvModRejectsNonInvertible) {
  EXPECT_THROW(inv_mod(U512::from_u64(6), U512::from_u64(9)),
               std::domain_error);
  EXPECT_THROW(inv_mod(U512{}, U512::from_u64(9)), std::domain_error);
  EXPECT_THROW(inv_mod(U512::from_u64(3), U512::from_u64(8)),
               std::domain_error);  // even modulus... 8 is even
}

class MontParam : public ::testing::TestWithParam<size_t> {};

TEST_P(MontParam, MulMatchesGenericModMul) {
  auto rng = test_rng("mont-" + std::to_string(GetParam()));
  U512 m = generate_prime(GetParam(), rng);
  MontCtx ctx(m);
  for (int i = 0; i < 20; ++i) {
    U512 a = random_below(m, rng);
    U512 b = random_below(m, rng);
    U512 via_mont = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
    EXPECT_EQ(via_mont, mul_mod(a, b, m));
  }
}

TEST_P(MontParam, PowMatchesRepeatedMul) {
  auto rng = test_rng("montpow-" + std::to_string(GetParam()));
  U512 m = generate_prime(GetParam(), rng);
  MontCtx ctx(m);
  U512 a = random_below(m, rng);
  U512 am = ctx.to_mont(a);
  // a^5 two ways.
  U512 p5 = ctx.pow(am, U512::from_u64(5));
  U512 manual = ctx.mul(ctx.mul(ctx.mul(ctx.mul(am, am), am), am), am);
  EXPECT_EQ(p5, manual);
  // Fermat: a^(m-1) = 1 for prime m, a != 0.
  if (!a.is_zero()) {
    U512 m_minus1;
    sub(m_minus1, m, U512::from_u64(1));
    EXPECT_EQ(ctx.pow(am, m_minus1), ctx.one());
  }
}

TEST_P(MontParam, WindowedPowMatchesBitwiseSquareAndMultiply) {
  // pow uses a 4-bit fixed window; check it against a plain left-to-right
  // square-and-multiply oracle on random bases and exponent widths.
  auto rng = test_rng("montpow-window-" + std::to_string(GetParam()));
  U512 m = generate_prime(GetParam(), rng);
  MontCtx ctx(m);
  for (int i = 0; i < 8; ++i) {
    U512 a = random_below(m, rng);
    U512 e = random_bits(1 + (static_cast<size_t>(rng.u64()) % 512), rng);
    U512 am = ctx.to_mont(a);
    U512 acc = ctx.one();
    for (size_t b = e.bit_length(); b-- > 0;) {
      acc = ctx.mul(acc, acc);
      if ((e.w[b / 64] >> (b % 64)) & 1) acc = ctx.mul(acc, am);
    }
    EXPECT_EQ(ctx.pow(am, e), acc);
  }
  // Edge exponents around the window boundaries.
  U512 am = ctx.to_mont(random_below(m, rng));
  for (uint64_t e : {0ull, 1ull, 15ull, 16ull, 17ull, 255ull, 256ull}) {
    U512 acc = ctx.one();
    for (uint64_t k = 0; k < e; ++k) acc = ctx.mul(acc, am);
    EXPECT_EQ(ctx.pow(am, U512::from_u64(e)), acc);
  }
}

TEST_P(MontParam, InverseInMontgomeryDomain) {
  auto rng = test_rng("montinv-" + std::to_string(GetParam()));
  U512 m = generate_prime(GetParam(), rng);
  MontCtx ctx(m);
  for (int i = 0; i < 10; ++i) {
    U512 a = random_below(m, rng);
    if (a.is_zero()) continue;
    U512 am = ctx.to_mont(a);
    EXPECT_EQ(ctx.mul(am, ctx.inv(am)), ctx.one());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MontParam,
                         ::testing::Values(65, 128, 255, 256, 384, 510));

TEST(Mont, RejectsEvenModulus) {
  EXPECT_THROW(MontCtx(U512::from_u64(100)), std::invalid_argument);
  EXPECT_THROW(MontCtx(U512::from_u64(1)), std::invalid_argument);
}

TEST(Prime, KnownPrimesAndComposites) {
  auto rng = test_rng("prime-known");
  EXPECT_TRUE(is_probable_prime(U512::from_u64(2), rng));
  EXPECT_TRUE(is_probable_prime(U512::from_u64(3), rng));
  EXPECT_TRUE(is_probable_prime(U512::from_u64(65537), rng));
  // 2^127 - 1 is a Mersenne prime.
  U512 m127 = U512::from_hex("7fffffffffffffffffffffffffffffff");
  EXPECT_TRUE(is_probable_prime(m127, rng));
  EXPECT_FALSE(is_probable_prime(U512::from_u64(1), rng));
  EXPECT_FALSE(is_probable_prime(U512::from_u64(0), rng));
  EXPECT_FALSE(is_probable_prime(U512::from_u64(65539ull * 65521ull), rng));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(is_probable_prime(U512::from_u64(561), rng));
}

TEST(Prime, GeneratedPrimesHaveRequestedWidth) {
  auto rng = test_rng("prime-gen");
  for (size_t bits : {64u, 100u, 150u}) {
    U512 p = generate_prime(bits, rng);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

TEST(Prime, RandomBelowIsInRange) {
  auto rng = test_rng("below");
  U512 bound = U512::from_hex("10000000000000000000001");
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(random_below(bound, rng), bound);
  }
  EXPECT_THROW(random_below(U512{}, rng), std::invalid_argument);
}

TEST(Prime, RandomBitsSetsTopBit) {
  auto rng = test_rng("bits");
  for (size_t bits : {1u, 7u, 64u, 65u, 512u}) {
    U512 v = random_bits(bits, rng);
    EXPECT_EQ(v.bit_length(), bits);
  }
  EXPECT_THROW(random_bits(0, rng), std::invalid_argument);
  EXPECT_THROW(random_bits(513, rng), std::invalid_argument);
}

}  // namespace
}  // namespace hcpp::mp
