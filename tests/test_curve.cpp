// Group-law and encoding tests for the supersingular curve G1.
#include <gtest/gtest.h>

#include <vector>

#include "src/cipher/drbg.h"
#include "src/curve/params.h"
#include "src/mp/prime.h"
#include "src/obs/metrics.h"
#include "tests/oracle/oracle.h"

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

// Binary double-and-add over the affine group law: the independent oracle
// for mul's wNAF pass.
Point mul_binary(const CurveCtx& c, const Point& a, const mp::U512& k) {
  Point acc = Point::at_infinity();
  for (size_t i = k.bit_length(); i-- > 0;) {
    acc = dbl(c, acc);
    if (k.bit(i)) acc = add(c, acc, a);
  }
  return acc;
}

// The scalar multiplications recode at width 5: every nonzero digit is odd
// and at most 15 in magnitude, so it indexes one of the eight odd multiples
// 1·P … 15·P of a table, and ±15 does occur. The edge scalars sit on the
// width-5 digit boundary (31, 32, 33) and, for mul2_fixed, on either side
// of its first chunk boundary (2^c ± 1).
TEST(Curve, WnafMatchesDoubleAndAdd) {
  cipher::Drbg rng(to_bytes("curve-wnaf"));
  bool reaches_15 = false;
  for (int i = 0; i < 64; ++i) {
    for (int8_t d : wnaf(random_scalar(ctx(), rng), 5)) {
      if (d == 0) continue;
      EXPECT_EQ(d & 1, 1) << int{d};
      EXPECT_LE(d < 0 ? -d : d, 15) << int{d};
      reaches_15 = reaches_15 || d == 15 || d == -15;
    }
  }
  EXPECT_TRUE(reaches_15);
  EXPECT_EQ(wnaf(mp::U512::from_u64(17), 5),
            (std::vector<int8_t>{-15, 0, 0, 0, 0, 1}));
  for (ParamSet set : {ParamSet::kTest, ParamSet::kProduction}) {
    const CurveCtx& c = params(set);
    Point g = generator(c);
    for (int i = 0; i < 4; ++i) {
      mp::U512 k = random_scalar(c, rng);
      EXPECT_EQ(mul(c, g, k), mul_binary(c, g, k)) << c.name;
    }
    for (uint64_t k :
         {0ull, 1ull, 2ull, 15ull, 16ull, 17ull, 31ull, 32ull, 33ull, 255ull}) {
      EXPECT_EQ(mul(c, g, mp::U512::from_u64(k)),
                mul_binary(c, g, mp::U512::from_u64(k)))
          << c.name << " k=" << k;
    }
    Point h = mul_generator(c, random_scalar(c, rng));
    FixedBaseTable tg(c, g);
    FixedBaseTable th(c, h);
    mp::U512 chunk;  // 2^c
    chunk.w[tg.chunk_bits / 64] = 1ull << (tg.chunk_bits % 64);
    std::vector<mp::U512> edges = {mp::U512::from_u64(31),
                                   mp::U512::from_u64(32),
                                   mp::U512::from_u64(33), chunk, chunk};
    mp::sub(edges[3], chunk, mp::U512::from_u64(1));
    mp::add(edges[4], chunk, mp::U512::from_u64(1));
    std::vector<Point> hb;
    for (const mp::U512& b : edges) hb.push_back(mul_binary(c, h, b));
    for (const mp::U512& a : edges) {
      const Point ga = mul_binary(c, g, a);
      for (size_t j = 0; j < edges.size(); ++j) {
        const mp::U512& b = edges[j];
        const Point want = add(c, ga, hb[j]);
        EXPECT_EQ(mul2(c, g, a, h, b), want)
            << c.name << " a=" << a.to_hex() << " b=" << b.to_hex();
        EXPECT_EQ(mul2_fixed(c, tg, a, th, b), want)
            << c.name << " a=" << a.to_hex() << " b=" << b.to_hex();
      }
    }
  }
  EXPECT_TRUE(
      mul(ctx(), Point::at_infinity(), mp::U512::from_u64(3)).infinity);
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

// mul2_fixed splits each scalar into four c-bit chunks; the listed scalars
// sit on the chunk boundaries (2^c − 1 fills chunk 0, 2^c starts chunk 1,
// 2^{3c} + 1 touches the first and the last) and at the top of the range.
TEST(Curve, Mul2FixedMatchesMul2) {
  for (ParamSet set : {ParamSet::kTest, ParamSet::kProduction}) {
    const CurveCtx& c = params(set);
    cipher::Drbg rng(to_bytes("curve-mul2-fixed-" + c.name));
    Point p = mul_generator(c, random_scalar(c, rng));
    Point q = mul_generator(c, random_scalar(c, rng));
    FixedBaseTable tp(c, p);
    FixedBaseTable tq(c, q);
    const size_t chunk = tp.chunk_bits;
    ASSERT_EQ(chunk, (c.q.bit_length() + 3) / 4) << c.name;
    ASSERT_EQ(tp.odd.size(), 32u) << c.name;
    auto pow2 = [](size_t k) {
      mp::U512 r;
      r.w[k / 64] = 1ull << (k % 64);
      return r;
    };
    mp::U512 chunk_max;  // 2^c − 1
    mp::sub(chunk_max, pow2(chunk), mp::U512::from_u64(1));
    mp::U512 top_plus1;  // 2^{3c} + 1
    mp::add(top_plus1, pow2(3 * chunk), mp::U512::from_u64(1));
    mp::U512 q_minus1;
    mp::sub(q_minus1, c.q, mp::U512::from_u64(1));
    std::vector<mp::U512> edges = {mp::U512{},         mp::U512::from_u64(1),
                                   chunk_max,          pow2(chunk),
                                   top_plus1,          q_minus1};
    for (const mp::U512& a : edges) {
      for (const mp::U512& b : edges) {
        EXPECT_EQ(mul2_fixed(c, tp, a, tq, b), mul2(c, p, a, q, b))
            << c.name << " a=" << a.to_hex() << " b=" << b.to_hex();
      }
    }
    for (int i = 0; i < 8; ++i) {
      mp::U512 a = random_scalar(c, rng);
      mp::U512 b = random_scalar(c, rng);
      EXPECT_EQ(mul2_fixed(c, tp, a, tq, b), mul2(c, p, a, q, b)) << c.name;
    }
    // The same base on both sides: the streams collide and must double.
    mp::U512 k = random_scalar(c, rng);
    EXPECT_EQ(mul2_fixed(c, tp, k, tp, k), mul2(c, p, k, p, k)) << c.name;
    // One point multiplication, like mul2.
    obs::Registry reg;
    obs::Registry* previous = obs::attached();
    obs::attach(&reg);
    (void)mul2_fixed(c, tp, k, tq, k);
    obs::attach(previous);
    EXPECT_EQ(reg.counter(obs::kPointMul), 1u);
    // Scalars wider than the four chunks are refused.
    EXPECT_THROW((void)mul2_fixed(c, tp, pow2(4 * chunk), tq, k),
                 std::invalid_argument);
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

// x + p (and y + p) name the same field element as x, so such an encoding
// would be a second spelling of a valid pseudonym with its own memo entry.
// On kTest p has 256 bits in a 64-byte field: every coordinate has aliases.
TEST(Curve, NonCanonicalCoordinatesAreRefused) {
  const CurveCtx& c = ctx();
  cipher::Drbg rng(to_bytes("curve-noncanonical"));
  Point good = mul_generator(c, random_scalar(c, rng));
  auto plus_p = [&](const field::Fp& v) {
    mp::U512 alias;
    mp::add(alias, v.value(), c.p);
    return alias.to_bytes_be();
  };
  Bytes x_alias = {1};
  append(x_alias, plus_p(good.x));
  append(x_alias, good.y.value().to_bytes_be());
  Bytes y_alias = {1};
  append(y_alias, good.x.value().to_bytes_be());
  append(y_alias, plus_p(good.y));
  EXPECT_THROW(point_from_bytes(c, x_alias), std::invalid_argument);
  EXPECT_THROW(point_from_bytes(c, y_alias), std::invalid_argument);
  ASSERT_EQ(checked_point_from_bytes(c, point_to_bytes(good)), good);
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  EXPECT_THROW(checked_point_from_bytes(c, x_alias), std::invalid_argument);
  EXPECT_THROW(checked_point_from_bytes(c, x_alias), std::invalid_argument);
  EXPECT_EQ(checked_point_from_bytes(c, point_to_bytes(good)), good);
  obs::attach(previous);
  // The alias was never memoised: both tries missed, the canonical hit.
  EXPECT_EQ(reg.counter(obs::kCheckedPointMemoMisses), 2u);
  EXPECT_EQ(reg.counter(obs::kCheckedPointMemoHits), 1u);
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
  // The first 80-bit Solinas prime 2^79 + 2^b ± 1: b = 26, −1.
  mp::U512 solinas;
  solinas.w[1] = 1ull << 15;
  solinas.w[0] = (1ull << 26) - 1;
  EXPECT_EQ(gp.q, solinas);
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
