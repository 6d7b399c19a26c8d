// Group-law and encoding tests for the supersingular curve G1.
#include <gtest/gtest.h>

#include "src/cipher/drbg.h"
#include "src/curve/params.h"
#include "src/mp/prime.h"
#include "src/obs/metrics.h"

namespace hcpp::curve {
namespace {

const CurveCtx& ctx() { return params(ParamSet::kTest); }

TEST(Curve, ParamsAreConsistent) {
  const CurveCtx& c = ctx();
  // p ≡ 3 (mod 4)
  EXPECT_EQ(c.p.w[0] & 3, 3u);
  // q · cofactor == p + 1
  mp::U1024 wide;
  mp::mul_wide(wide, c.q, c.cofactor);
  mp::U512 prod;
  for (size_t i = 0; i < mp::kLimbs; ++i) prod.w[i] = wide[i];
  mp::U512 p_plus1;
  mp::add(p_plus1, c.p, mp::U512::from_u64(1));
  EXPECT_EQ(prod, p_plus1);
}

TEST(Curve, GeneratorOnCurveWithOrderQ) {
  Point g = generator(ctx());
  EXPECT_TRUE(on_curve(ctx(), g));
  EXPECT_FALSE(g.infinity);
  EXPECT_TRUE(mul(ctx(), g, ctx().q).infinity);
  EXPECT_FALSE(mul(ctx(), g, mp::U512::from_u64(1)).infinity);
}

TEST(Curve, GroupLaws) {
  cipher::Drbg rng(to_bytes("curve-laws"));
  Point g = generator(ctx());
  Point p = mul(ctx(), g, random_scalar(ctx(), rng));
  Point q = mul(ctx(), g, random_scalar(ctx(), rng));
  Point r = mul(ctx(), g, random_scalar(ctx(), rng));
  // Commutativity and associativity.
  EXPECT_EQ(add(ctx(), p, q), add(ctx(), q, p));
  EXPECT_EQ(add(ctx(), add(ctx(), p, q), r), add(ctx(), p, add(ctx(), q, r)));
  // Identity and inverse.
  EXPECT_EQ(add(ctx(), p, Point::at_infinity()), p);
  EXPECT_TRUE(add(ctx(), p, negate(p)).infinity);
  // Doubling matches addition with itself.
  EXPECT_EQ(dbl(ctx(), p), add(ctx(), p, p));
}

TEST(Curve, ScalarMulMatchesRepeatedAddition) {
  Point g = generator(ctx());
  Point acc = Point::at_infinity();
  for (uint64_t k = 0; k <= 8; ++k) {
    EXPECT_EQ(mul(ctx(), g, mp::U512::from_u64(k)), acc) << "k=" << k;
    acc = add(ctx(), acc, g);
  }
}

TEST(Curve, ScalarMulDistributes) {
  cipher::Drbg rng(to_bytes("curve-dist"));
  Point g = generator(ctx());
  mp::U512 a = random_scalar(ctx(), rng);
  mp::U512 b = random_scalar(ctx(), rng);
  mp::U512 ab = mp::add_mod(a, b, ctx().q);
  EXPECT_EQ(mul(ctx(), g, ab),
            add(ctx(), mul(ctx(), g, a), mul(ctx(), g, b)));
  // (a·b)·G == a·(b·G)
  mp::U512 prod = mp::mul_mod(a, b, ctx().q);
  EXPECT_EQ(mul(ctx(), g, prod), mul(ctx(), mul(ctx(), g, b), a));
}

TEST(Curve, MulByZeroAndInfinity) {
  Point g = generator(ctx());
  EXPECT_TRUE(mul(ctx(), g, mp::U512{}).infinity);
  EXPECT_TRUE(mul(ctx(), Point::at_infinity(), mp::U512::from_u64(5)).infinity);
}

TEST(Curve, HashToPointLandsInSubgroup) {
  for (const char* id : {"alice", "bob", "dr-carol", ""}) {
    Point h = hash_to_point(ctx(), to_bytes(id));
    EXPECT_TRUE(on_curve(ctx(), h));
    EXPECT_FALSE(h.infinity);
    EXPECT_TRUE(mul(ctx(), h, ctx().q).infinity);
  }
}

TEST(Curve, HashToPointIsDeterministicAndSeparated) {
  Point a1 = hash_to_point(ctx(), to_bytes("alice"));
  Point a2 = hash_to_point(ctx(), to_bytes("alice"));
  Point b = hash_to_point(ctx(), to_bytes("bob"));
  Point a_other_tag = hash_to_point(ctx(), to_bytes("alice"), "other-tag");
  EXPECT_EQ(a1, a2);
  EXPECT_FALSE(a1 == b);
  EXPECT_FALSE(a1 == a_other_tag);
}

TEST(Curve, HashToScalarInRange) {
  for (const char* kw : {"day:2011-04-12", "x", ""}) {
    mp::U512 s = hash_to_scalar(ctx(), to_bytes(kw));
    EXPECT_FALSE(s.is_zero());
    EXPECT_LT(s, ctx().q);
  }
}

TEST(Curve, PointSerializationRoundTrip) {
  cipher::Drbg rng(to_bytes("curve-ser"));
  Point p = mul(ctx(), generator(ctx()), random_scalar(ctx(), rng));
  Bytes enc = point_to_bytes(p);
  EXPECT_EQ(enc.size(), 1u + 128u);
  EXPECT_EQ(point_from_bytes(ctx(), enc), p);
  // Infinity encodes to a single byte.
  Bytes inf = point_to_bytes(Point::at_infinity());
  EXPECT_EQ(inf.size(), 1u);
  EXPECT_TRUE(point_from_bytes(ctx(), inf).infinity);
}

TEST(Curve, PointDeserializationRejectsGarbage) {
  EXPECT_THROW(point_from_bytes(ctx(), Bytes{}), std::invalid_argument);
  Bytes bad(1 + 128, 0x01);
  EXPECT_THROW(point_from_bytes(ctx(), bad), std::invalid_argument);
  // Off-curve point: valid layout, wrong y.
  Point p = generator(ctx());
  Bytes enc = point_to_bytes(p);
  enc.back() ^= 1;
  EXPECT_THROW(point_from_bytes(ctx(), enc), std::invalid_argument);
}

TEST(Curve, WnafMatchesDoubleAndAdd) {
  cipher::Drbg rng(to_bytes("curve-wnaf"));
  Point g = generator(ctx());
  for (int i = 0; i < 10; ++i) {
    mp::U512 k = random_scalar(ctx(), rng);
    EXPECT_EQ(mul_wnaf(ctx(), g, k), mul(ctx(), g, k));
  }
  // Edge scalars.
  for (uint64_t k : {0ull, 1ull, 2ull, 15ull, 16ull, 17ull, 255ull}) {
    EXPECT_EQ(mul_wnaf(ctx(), g, mp::U512::from_u64(k)),
              mul(ctx(), g, mp::U512::from_u64(k)))
        << "k=" << k;
  }
  EXPECT_TRUE(mul_wnaf(ctx(), Point::at_infinity(), mp::U512::from_u64(3))
                  .infinity);
}

TEST(Curve, Mul2MatchesTwoMulsAndAdd) {
  for (ParamSet set : {ParamSet::kTest, ParamSet::kProduction}) {
    const CurveCtx& c = params(set);
    cipher::Drbg rng(to_bytes("curve-mul2-" + c.name));
    Point p = mul_generator(c, random_scalar(c, rng));
    Point q = mul_generator(c, random_scalar(c, rng));
    auto oracle = [&c](const Point& x, const mp::U512& a, const Point& y,
                       const mp::U512& b) {
      return add(c, mul(c, x, a), mul(c, y, b));
    };
    for (int i = 0; i < 4; ++i) {
      mp::U512 a = random_scalar(c, rng);
      mp::U512 b = random_scalar(c, rng);
      EXPECT_EQ(mul2(c, p, a, q, b), oracle(p, a, q, b)) << c.name;
    }
    const mp::U512 zero;
    const mp::U512 k = random_scalar(c, rng);
    const Point inf = Point::at_infinity();
    // Zero scalars and infinite points drop their term.
    EXPECT_EQ(mul2(c, p, zero, q, k), mul(c, q, k));
    EXPECT_EQ(mul2(c, p, k, q, zero), mul(c, p, k));
    EXPECT_TRUE(mul2(c, p, zero, q, zero).infinity);
    EXPECT_EQ(mul2(c, inf, k, q, k), mul(c, q, k));
    EXPECT_TRUE(mul2(c, inf, k, inf, k).infinity);
    // P == Q: the two terms collide and must double, not cancel.
    mp::U512 b = random_scalar(c, rng);
    EXPECT_EQ(mul2(c, p, k, p, b), oracle(p, k, p, b));
    EXPECT_EQ(mul2(c, p, k, p, k), mul(c, p, mp::add_mod(k, k, c.q)));
    // a·P = −b·Q: the sum is the identity.
    EXPECT_TRUE(mul2(c, p, k, negate(p), k).infinity);
    mp::U512 two_k = mp::add_mod(k, k, c.q);
    EXPECT_TRUE(mul2(c, p, two_k, negate(mul(c, p, mp::U512::from_u64(2))), k)
                    .infinity);
  }
}

// An on-curve point whose order divides the cofactor (not q).
Point small_order_point(const CurveCtx& c, RandomSource& rng) {
  for (;;) {
    field::Fp x(&c.fp, mp::random_below(c.p, rng));
    std::optional<field::Fp> y = (x.sqr() * x + x).sqrt();
    if (!y.has_value()) continue;
    Point low = mul(c, Point{x, *y, false}, c.q);
    if (!low.infinity) return low;
  }
}

TEST(Curve, CheckedPointMemoAcceptsOnlySubgroupPoints) {
  const CurveCtx& c = ctx();
  cipher::Drbg rng(to_bytes("curve-checked"));
  Point good = mul_generator(c, random_scalar(c, rng));
  Bytes good_enc = point_to_bytes(good);
  Point low = small_order_point(c, rng);
  ASSERT_TRUE(on_curve(c, low));
  Bytes low_enc = point_to_bytes(low);
  Bytes off_enc = good_enc;
  off_enc.back() ^= 1;
  const Bytes inf_enc = point_to_bytes(Point::at_infinity());
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  // Rejections are never memoised: the second call checks and rejects again.
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(checked_point_from_bytes(c, good_enc), good) << round;
    EXPECT_THROW(checked_point_from_bytes(c, low_enc), std::invalid_argument)
        << round;
    EXPECT_THROW(checked_point_from_bytes(c, off_enc), std::invalid_argument)
        << round;
    EXPECT_THROW(checked_point_from_bytes(c, inf_enc), std::invalid_argument)
        << round;
  }
  obs::attach(previous);
  EXPECT_EQ(reg.counter(obs::kCheckedPointMemoHits), 1u);  // good, round 2
  EXPECT_EQ(reg.counter(obs::kCheckedPointMemoMisses), 7u);
}

TEST(Curve, FixedBaseGeneratorMatchesGeneric) {
  cipher::Drbg rng(to_bytes("curve-fixedbase"));
  Point g = generator(ctx());
  for (int i = 0; i < 10; ++i) {
    mp::U512 k = random_scalar(ctx(), rng);
    EXPECT_EQ(mul_generator(ctx(), k), mul(ctx(), g, k));
  }
  EXPECT_TRUE(mul_generator(ctx(), mp::U512{}).infinity);
  EXPECT_EQ(mul_generator(ctx(), mp::U512::from_u64(1)), g);
  EXPECT_EQ(mul_generator(ctx(), ctx().q), Point::at_infinity());
  // Full-width scalars exercise every window.
  mp::U512 huge;
  huge.w.fill(0xfedcba9876543210ull);
  EXPECT_EQ(mul_generator(ctx(), huge), mul(ctx(), g, huge));
}

TEST(Curve, CompressedSerializationRoundTrip) {
  cipher::Drbg rng(to_bytes("curve-compress"));
  for (int i = 0; i < 8; ++i) {
    Point p = mul(ctx(), generator(ctx()), random_scalar(ctx(), rng));
    Bytes enc = point_to_bytes_compressed(p);
    EXPECT_EQ(enc.size(), 1u + 64u);  // half the uncompressed payload
    EXPECT_EQ(point_from_bytes_compressed(ctx(), enc), p);
  }
  Bytes inf = point_to_bytes_compressed(Point::at_infinity());
  EXPECT_EQ(inf.size(), 1u);
  EXPECT_TRUE(point_from_bytes_compressed(ctx(), inf).infinity);
}

TEST(Curve, CompressedRejectsNonPoints) {
  EXPECT_THROW(point_from_bytes_compressed(ctx(), Bytes{}),
               std::invalid_argument);
  Bytes bad(65, 0x00);
  bad[0] = 7;  // invalid flag
  EXPECT_THROW(point_from_bytes_compressed(ctx(), bad),
               std::invalid_argument);
  // An x with no square y: flip x until decompression fails.
  cipher::Drbg rng(to_bytes("curve-compress-bad"));
  int rejections = 0;
  for (int i = 0; i < 32 && rejections == 0; ++i) {
    Bytes candidate(65);
    candidate[0] = 2;
    Bytes x = mp::mod(mp::random_below(ctx().p, rng), ctx().p).to_bytes_be();
    std::copy(x.begin(), x.end(), candidate.begin() + 1);
    try {
      (void)point_from_bytes_compressed(ctx(), candidate);
    } catch (const std::invalid_argument&) {
      ++rejections;
    }
  }
  EXPECT_GT(rejections, 0);  // ~half of x values are non-residues
}

TEST(Curve, CompressedPreservesYParityChoice) {
  cipher::Drbg rng(to_bytes("curve-parity"));
  Point p = mul(ctx(), generator(ctx()), random_scalar(ctx(), rng));
  Point minus_p = negate(p);
  Bytes enc_p = point_to_bytes_compressed(p);
  Bytes enc_m = point_to_bytes_compressed(minus_p);
  EXPECT_NE(enc_p[0], enc_m[0]);  // parities differ, x identical
  EXPECT_TRUE(std::equal(enc_p.begin() + 1, enc_p.end(), enc_m.begin() + 1));
  EXPECT_EQ(point_from_bytes_compressed(ctx(), enc_m), minus_p);
}

TEST(Curve, RandomScalarNonzeroBelowQ) {
  cipher::Drbg rng(to_bytes("curve-scalar"));
  for (int i = 0; i < 50; ++i) {
    mp::U512 k = random_scalar(ctx(), rng);
    EXPECT_FALSE(k.is_zero());
    EXPECT_LT(k, ctx().q);
  }
}

TEST(Curve, FreshParameterGeneration) {
  cipher::Drbg rng(to_bytes("fresh-params"));
  GeneratedParams gp = generate_params(80, 160, rng);
  auto fresh = make_curve(gp, "tiny-test-curve");
  Point g = generator(*fresh);
  EXPECT_TRUE(on_curve(*fresh, g));
  EXPECT_TRUE(mul(*fresh, g, fresh->q).infinity);
}

TEST(Curve, MakeCurveRejectsWrongOrder) {
  cipher::Drbg rng(to_bytes("fresh-params-2"));
  GeneratedParams gp = generate_params(80, 160, rng);
  GeneratedParams bad = gp;
  // Claim a different (still dividing nothing) group order.
  bad.q = mp::generate_prime(80, rng);
  EXPECT_THROW(make_curve(bad, "bad"), std::invalid_argument);
}

}  // namespace
}  // namespace hcpp::curve
