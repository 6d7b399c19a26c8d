// Pairing correctness: bilinearity, non-degeneracy, symmetry, target-group
// order — the properties §II.A demands of ê.
#include <gtest/gtest.h>

#include "src/cipher/drbg.h"
#include "src/curve/pairing.h"
#include "src/curve/params.h"
#include "src/mp/prime.h"
#include "src/obs/metrics.h"
#include "tests/oracle/oracle.h"

namespace hcpp::curve {
namespace {

const CurveCtx& ctx() { return params(ParamSet::kTest); }

// The 80-bit curve generate_params mints from a fixed seed
// (q = 2^79 + 2^26 − 1), a third, non-named schedule for the oracle checks.
const CurveCtx& generated() {
  static const std::unique_ptr<CurveCtx> c = [] {
    cipher::Drbg rng(to_bytes("fresh-params"));
    return make_curve(generate_params(80, 160, rng), "generated-q80");
  }();
  return *c;
}

// Σ d_i·2^(n−1−i) over the schedule, most significant digit first.
mp::U512 schedule_value(const std::vector<int8_t>& digits) {
  mp::U512 acc;
  for (int8_t d : digits) {
    mp::U512 twice;
    mp::add(twice, acc, acc);
    if (d > 0) mp::add(acc, twice, mp::U512::from_u64(1));
    if (d < 0) mp::sub(acc, twice, mp::U512::from_u64(1));
    if (d == 0) acc = twice;
  }
  return acc;
}

TEST(Pairing, Bilinearity) {
  cipher::Drbg rng(to_bytes("pairing-bilinear"));
  Point g = generator(ctx());
  for (int i = 0; i < 3; ++i) {
    mp::U512 a = random_scalar(ctx(), rng);
    mp::U512 b = random_scalar(ctx(), rng);
    Gt lhs = pairing(ctx(), mul(ctx(), g, a), mul(ctx(), g, b));
    Gt rhs = pairing(ctx(), g, g).pow(mp::mul_mod(a, b, ctx().q));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Pairing, LinearInEachArgument) {
  cipher::Drbg rng(to_bytes("pairing-linear"));
  Point g = generator(ctx());
  mp::U512 a = random_scalar(ctx(), rng);
  Point p = mul(ctx(), g, random_scalar(ctx(), rng));
  Point q = mul(ctx(), g, random_scalar(ctx(), rng));
  EXPECT_EQ(pairing(ctx(), mul(ctx(), p, a), q), pairing(ctx(), p, q).pow(a));
  EXPECT_EQ(pairing(ctx(), p, mul(ctx(), q, a)), pairing(ctx(), p, q).pow(a));
}

TEST(Pairing, MultiplicativeInFirstArgument) {
  cipher::Drbg rng(to_bytes("pairing-mult"));
  Point g = generator(ctx());
  Point p = mul(ctx(), g, random_scalar(ctx(), rng));
  Point q = mul(ctx(), g, random_scalar(ctx(), rng));
  Point r = mul(ctx(), g, random_scalar(ctx(), rng));
  EXPECT_EQ(pairing(ctx(), add(ctx(), p, q), r),
            pairing(ctx(), p, r) * pairing(ctx(), q, r));
}

TEST(Pairing, NonDegenerate) {
  Point g = generator(ctx());
  Gt e = pairing(ctx(), g, g);
  EXPECT_FALSE(e.is_one());
}

TEST(Pairing, TargetGroupHasOrderQ) {
  Point g = generator(ctx());
  Gt e = pairing(ctx(), g, g);
  EXPECT_TRUE(e.pow(ctx().q).is_one());
  // ...and not a smaller order dividing a few small factors.
  EXPECT_FALSE(e.pow(mp::U512::from_u64(2)).is_one());
  EXPECT_FALSE(e.pow(mp::U512::from_u64(3)).is_one());
}

TEST(Pairing, SymmetricForModifiedPairing) {
  // The distortion-map pairing on a supersingular curve is symmetric — the
  // property the shared keys ν = ê(Γp, PK_S) = ê(TPp, Γ_S) rely on.
  cipher::Drbg rng(to_bytes("pairing-sym"));
  Point g = generator(ctx());
  Point p = mul(ctx(), g, random_scalar(ctx(), rng));
  Point q = mul(ctx(), g, random_scalar(ctx(), rng));
  EXPECT_EQ(pairing(ctx(), p, q), pairing(ctx(), q, p));
}

TEST(Pairing, InfinityGivesIdentity) {
  Point g = generator(ctx());
  EXPECT_TRUE(pairing(ctx(), Point::at_infinity(), g).is_one());
  EXPECT_TRUE(pairing(ctx(), g, Point::at_infinity()).is_one());
}

TEST(Pairing, NegationInvertsValue) {
  cipher::Drbg rng(to_bytes("pairing-neg"));
  Point g = generator(ctx());
  Point p = mul(ctx(), g, random_scalar(ctx(), rng));
  Gt e = pairing(ctx(), p, g);
  EXPECT_EQ(pairing(ctx(), negate(p), g), e.inv());
  EXPECT_TRUE((e * e.inv()).is_one());
}

// Gt::pow is a signed-window ladder that multiplies by conjugates and
// Gt::inv a conjugate, both valid on norm-1 elements only; Fp2::pow and
// Fp2::inv are the oracles, on norm-1 elements conj(z)/z of random z.
TEST(Pairing, UnitaryPowAndInvMatchFp2) {
  for (ParamSet set : {ParamSet::kTest, ParamSet::kProduction}) {
    const CurveCtx& c = params(set);
    cipher::Drbg rng(to_bytes("pairing-unitary-pow"));
    mp::U512 q_minus1;
    mp::sub(q_minus1, c.q, mp::U512::from_u64(1));
    const mp::U512 fixed[] = {mp::U512{}, mp::U512::from_u64(1), q_minus1,
                              c.q};
    for (int i = 0; i < 1000; ++i) {
      field::Fp2 z(field::Fp(&c.fp, mp::random_below(c.p, rng)),
                   field::Fp(&c.fp, mp::random_below(c.p, rng)));
      if (z.is_zero()) continue;
      const field::Fp2 t = z.conj() * z.inv();
      const mp::U512 e = mp::random_below(c.q, rng);
      ASSERT_EQ(Gt(t).pow(e), Gt(t.pow(e))) << c.name << " element " << i;
      ASSERT_EQ(Gt(t).inv(), Gt(t.inv())) << c.name << " element " << i;
      if (i % 25 == 0) {
        for (const mp::U512& f : fixed) ASSERT_EQ(Gt(t).pow(f), Gt(t.pow(f)));
      }
    }
    // ±1 take the generic path (Im = 0).
    const field::Fp2 minus_one(field::Fp::one(&c.fp).neg(),
                               field::Fp::zero(&c.fp));
    for (const mp::U512& f : fixed) {
      EXPECT_EQ(Gt::one(c).pow(f), Gt::one(c));
      EXPECT_EQ(Gt(minus_one).pow(f), Gt(minus_one.pow(f)));
    }
  }
}

TEST(Pairing, HashedPointsPairConsistently) {
  // The BF-IBE correctness equation: ê(s·H1(id), rP) == ê(H1(id), sP)^r.
  cipher::Drbg rng(to_bytes("pairing-ibe"));
  Point g = generator(ctx());
  Point q_id = hash_to_point(ctx(), to_bytes("dr-alice"));
  mp::U512 s = random_scalar(ctx(), rng);
  mp::U512 r = random_scalar(ctx(), rng);
  Gt lhs = pairing(ctx(), mul(ctx(), q_id, s), mul(ctx(), g, r));
  Gt rhs = pairing(ctx(), q_id, mul(ctx(), g, s)).pow(r);
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, GtSerializationStable) {
  Point g = generator(ctx());
  Gt e = pairing(ctx(), g, g);
  EXPECT_EQ(e.to_bytes(), pairing(ctx(), g, g).to_bytes());
  EXPECT_EQ(e.to_bytes().size(), 128u);
}

// ---- Optimized engine vs the affine reference oracle ------------------------

TEST(PairingEngine, MatchesReferenceOnNamedAndGeneratedCurves) {
  for (const CurveCtx* cp : {&params(ParamSet::kTest),
                             &params(ParamSet::kProduction), &generated()}) {
    const CurveCtx& c = *cp;
    cipher::Drbg rng(to_bytes("engine-vs-reference"));
    Point g = generator(c);
    EXPECT_EQ(pairing(c, g, g), pairing_reference(c, g, g));
    for (int i = 0; i < 3; ++i) {
      Point p = mul(c, g, random_scalar(c, rng));
      Point q = hash_to_point(c, rng.bytes(32));
      EXPECT_EQ(pairing(c, p, q), pairing_reference(c, p, q));
    }
  }
}

TEST(PairingPrecomp, MatchesFreshPairing) {
  for (ParamSet set : {ParamSet::kTest, ParamSet::kProduction}) {
    const CurveCtx& c = params(set);
    cipher::Drbg rng(to_bytes("precomp-vs-fresh"));
    Point p = mul(c, generator(c), random_scalar(c, rng));
    PairingPrecomp pre(c, p);
    EXPECT_FALSE(pre.trivial());
    for (int i = 0; i < 3; ++i) {
      Point q = hash_to_point(c, rng.bytes(32));
      EXPECT_EQ(pre.pairing_with(q), pairing(c, p, q));
    }
    EXPECT_TRUE(pre.pairing_with(Point::at_infinity()).is_one());
  }
}

TEST(PairingPrecomp, TrivialCases) {
  PairingPrecomp empty;
  EXPECT_TRUE(empty.trivial());
  // Default-constructed has no context to make a Gt from.
  EXPECT_THROW((void)empty.pairing_with(generator(ctx())), std::logic_error);
  PairingPrecomp inf(ctx(), Point::at_infinity());
  EXPECT_TRUE(inf.trivial());
  EXPECT_TRUE(inf.pairing_with(generator(ctx())).is_one());
}

TEST(PairingPrecomp, GeneratorPrecompSharedAndCorrect) {
  const PairingPrecomp& pre = generator_precomp(ctx());
  EXPECT_EQ(&pre, &generator_precomp(ctx()));  // cached, not rebuilt
  Point q = hash_to_point(ctx(), to_bytes("gen-precomp-q"));
  EXPECT_EQ(pre.pairing_with(q), pairing(ctx(), generator(ctx()), q));
}

TEST(PairingProduct, MatchesTermByTermProduct) {
  for (ParamSet set : {ParamSet::kTest, ParamSet::kProduction}) {
    const CurveCtx& c = params(set);
    cipher::Drbg rng(to_bytes("product-vs-terms"));
    std::vector<PairingTerm> terms;
    Gt expect = Gt::one(c);
    for (int i = 0; i < 3; ++i) {
      Point p = mul(c, generator(c), random_scalar(c, rng));
      Point q = hash_to_point(c, rng.bytes(32));
      terms.emplace_back(p, q);
      expect = expect * pairing_reference(c, p, q);
    }
    EXPECT_EQ(pairing_product(c, terms), expect);
  }
}

TEST(PairingProduct, NegatedTermCancelsAndInfinityIsNeutral) {
  const CurveCtx& c = ctx();
  cipher::Drbg rng(to_bytes("product-cancel"));
  Point p = mul(c, generator(c), random_scalar(c, rng));
  Point q = hash_to_point(c, to_bytes("cancel-q"));
  const PairingTerm cancel[] = {{p, q}, {negate(p), q}};
  EXPECT_TRUE(pairing_product(c, cancel).is_one());
  const PairingTerm with_inf[] = {{p, q}, {Point::at_infinity(), q}};
  EXPECT_EQ(pairing_product(c, with_inf), pairing(c, p, q));
  EXPECT_TRUE(pairing_product(c, std::span<const PairingTerm>{}).is_one());
}

// ---- Miller schedule and final exponentiation ------------------------------

TEST(MillerSchedule, SignedDigitsOfQ) {
  for (const CurveCtx* cp : {&params(ParamSet::kTest),
                             &params(ParamSet::kProduction), &generated()}) {
    const std::vector<int8_t>& digits = cp->miller_schedule;
    ASSERT_FALSE(digits.empty());
    EXPECT_EQ(digits.front(), 1) << cp->name;
    EXPECT_EQ(schedule_value(digits), cp->q) << cp->name;
    size_t nonzero = 0;
    for (size_t i = 0; i < digits.size(); ++i) {
      EXPECT_TRUE(digits[i] >= -1 && digits[i] <= 1) << cp->name;
      if (digits[i] != 0) ++nonzero;
      if (i > 0) {
        EXPECT_FALSE(digits[i] != 0 && digits[i - 1] != 0) << i;
      }
    }
    EXPECT_EQ(nonzero, 3u) << cp->name;  // 2^(n−1) + 2^b ± 1
  }
  // kTest's q = 2^149 + 2^12 − 1 ends in a −1 digit, so every pairing the
  // suite runs takes the −P addition step.
  EXPECT_EQ(ctx().miller_schedule.back(), -1);
}

// Final exponentiation of Miller values and of the degenerate f₀f₁ = 0
// values (t = ±1, the pow fallback) against (conj(f)·f⁻¹)^c, batched and
// single.
TEST(FinalExp, BatchMatchesSinglePathAndOracle) {
  for (ParamSet set : {ParamSet::kTest, ParamSet::kProduction}) {
    const CurveCtx& c = params(set);
    const PairingPrecomp& gen = generator_precomp(c);
    cipher::Drbg rng(to_bytes("final-exp-batch"));
    std::vector<Point> qs;
    std::vector<field::Fp2> fs;
    for (int i = 0; i < 4; ++i) {
      qs.push_back(hash_to_point(c, rng.bytes(32)));
      fs.push_back(gen.miller_with(qs.back()));
    }
    const field::Fp x(&c.fp, mp::random_below(c.p, rng));
    const field::Fp zero = field::Fp::zero(&c.fp);
    fs.emplace_back(x, zero);  // t = 1
    fs.emplace_back(zero, x);  // t = −1
    std::vector<Gt> batch = final_exp_batch(c, fs);
    ASSERT_EQ(batch.size(), fs.size());
    for (size_t i = 0; i < fs.size(); ++i) {
      EXPECT_EQ(batch[i], Gt((fs[i].conj() * fs[i].inv()).pow(c.cofactor)))
          << c.name << " i=" << i;
      if (i < qs.size()) {
        EXPECT_EQ(batch[i], gen.pairing_with(qs[i])) << c.name << " i=" << i;
      }
    }
    EXPECT_TRUE(batch[qs.size()].is_one());
    EXPECT_TRUE(batch[qs.size() + 1].is_one());
  }
}

// The Lucas ladder's 1/(2·Im t) comes out of the one inversion that was
// already there: a pairing costs one F_p inversion, a batch of n costs one.
TEST(FinalExp, OneInversionPerPairingAndPerBatch) {
  const CurveCtx& c = ctx();
  cipher::Drbg rng(to_bytes("final-exp-inversions"));
  Point p = mul(c, generator(c), random_scalar(c, rng));
  Point q = hash_to_point(c, to_bytes("final-exp-inversions-q"));
  const PairingPrecomp& gen = generator_precomp(c);
  std::vector<field::Fp2> fs;
  for (int i = 0; i < 5; ++i) {
    fs.push_back(gen.miller_with(hash_to_point(c, rng.bytes(32))));
  }
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  (void)pairing(c, p, q);
  const uint64_t single = reg.counter(obs::kFieldInv);
  (void)final_exp_batch(c, fs);
  obs::attach(previous);
  EXPECT_EQ(single, 1u);
  EXPECT_EQ(reg.counter(obs::kFieldInv) - single, 1u);
}

}  // namespace
}  // namespace hcpp::curve
