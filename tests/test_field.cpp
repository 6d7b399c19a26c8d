// Field-law tests for F_p and F_{p^2}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "src/cipher/drbg.h"
#include "src/curve/params.h"
#include "src/field/fp2.h"
#include "src/mp/dispatch.h"
#include "src/mp/prime.h"

namespace hcpp::field {
namespace {

const FpCtx& test_field() {
  return curve::params(curve::ParamSet::kTest).fp;
}

Fp random_fp(const FpCtx& f, RandomSource& rng) {
  return Fp(&f, mp::random_below(f.p, rng));
}

TEST(Fp, ConstructionReducesModP) {
  const FpCtx& f = test_field();
  Fp a(&f, f.p);  // p ≡ 0
  EXPECT_TRUE(a.is_zero());
  mp::U512 big;
  mp::add(big, f.p, mp::U512::from_u64(5));
  EXPECT_EQ(Fp(&f, big).value(), mp::U512::from_u64(5));
}

TEST(Fp, FieldLaws) {
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp-laws"));
  for (int i = 0; i < 20; ++i) {
    Fp a = random_fp(f, rng), b = random_fp(f, rng), c = random_fp(f, rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Fp::zero(&f));
    EXPECT_EQ(a + a.neg(), Fp::zero(&f));
    EXPECT_EQ(a.sqr(), a * a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inv(), Fp::one(&f));
    }
  }
}

TEST(Fp, InvOfZeroThrows) {
  EXPECT_THROW((void)Fp::zero(&test_field()).inv(), std::domain_error);
}

TEST(Fp, PowMatchesRepeatedMultiplication) {
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp-pow"));
  Fp a = random_fp(f, rng);
  Fp acc = Fp::one(&f);
  for (int e = 0; e < 10; ++e) {
    EXPECT_EQ(a.pow(mp::U512::from_u64(e)), acc);
    acc = acc * a;
  }
}

TEST(Fp, SqrtOfSquares) {
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp-sqrt"));
  int squares_found = 0;
  for (int i = 0; i < 30; ++i) {
    Fp a = random_fp(f, rng);
    Fp sq = a.sqr();
    if (a.is_zero()) continue;
    EXPECT_TRUE(sq.is_square());
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == a.neg());
    ++squares_found;
  }
  EXPECT_GT(squares_found, 0);
}

TEST(Fp, NonResidueHasNoRoot) {
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp-nonres"));
  int nonresidues = 0;
  for (int i = 0; i < 40 && nonresidues < 5; ++i) {
    Fp a = random_fp(f, rng);
    if (a.is_zero() || a.is_square()) continue;
    ++nonresidues;
    EXPECT_FALSE(a.sqrt().has_value());
  }
  EXPECT_GT(nonresidues, 0);
}

TEST(Fp, MinusOneIsNonResidue) {
  // p ≡ 3 (mod 4) makes -1 a non-residue — the premise of Fp2 = Fp[i].
  const FpCtx& f = test_field();
  Fp minus_one = Fp::one(&f).neg();
  EXPECT_FALSE(minus_one.is_square());
}

TEST(Fp2, FieldLaws) {
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp2-laws"));
  for (int i = 0; i < 15; ++i) {
    Fp2 a(random_fp(f, rng), random_fp(f, rng));
    Fp2 b(random_fp(f, rng), random_fp(f, rng));
    Fp2 c(random_fp(f, rng), random_fp(f, rng));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.sqr(), a * a);
    if (!a.is_zero()) {
      EXPECT_TRUE((a * a.inv()).is_one());
    }
  }
}

TEST(Fp2, ImaginaryUnitSquaresToMinusOne) {
  const FpCtx& f = test_field();
  Fp2 i_unit(Fp::zero(&f), Fp::one(&f));
  Fp2 minus_one(Fp::one(&f).neg(), Fp::zero(&f));
  EXPECT_EQ(i_unit * i_unit, minus_one);
}

TEST(Fp2, ConjugationIsFrobenius) {
  // x^p = conj(x) in F_{p^2} when p ≡ 3 (mod 4).
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp2-frob"));
  Fp2 x(random_fp(f, rng), random_fp(f, rng));
  EXPECT_EQ(x.pow(f.p), x.conj());
}

TEST(Fp2, KaratsubaMulMatchesSchoolbook) {
  // operator* uses the 3-multiplication Karatsuba form; re-derive each
  // product with the 4-multiplication schoolbook formula.
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp2-karatsuba"));
  for (int i = 0; i < 25; ++i) {
    Fp2 a(random_fp(f, rng), random_fp(f, rng));
    Fp2 b(random_fp(f, rng), random_fp(f, rng));
    Fp2 school(a.re() * b.re() - a.im() * b.im(),
               a.re() * b.im() + a.im() * b.re());
    EXPECT_EQ(a * b, school);
  }
}

TEST(Fp2, WindowedPowMatchesRepeatedMultiplication) {
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp2-pow-window"));
  Fp2 a(random_fp(f, rng), random_fp(f, rng));
  Fp2 acc = Fp2::one(&f);
  for (uint64_t e = 0; e < 40; ++e) {
    EXPECT_EQ(a.pow(mp::U512::from_u64(e)), acc);
    acc = acc * a;
  }
  // Wide random exponents against a bitwise square-and-multiply oracle.
  for (int i = 0; i < 5; ++i) {
    mp::U512 e = mp::random_bits(1 + (static_cast<size_t>(rng.u64()) % 500),
                                 rng);
    Fp2 oracle = Fp2::one(&f);
    for (size_t b = e.bit_length(); b-- > 0;) {
      oracle = oracle.sqr();
      if ((e.w[b / 64] >> (b % 64)) & 1) oracle = oracle * a;
    }
    EXPECT_EQ(a.pow(e), oracle);
  }
}

// The Lucas ladder against the windowed pow: small exponents first, then
// the final exponentiation's own cofactor c on 10^4 norm-1 elements
// conj(z)/z per named set.
TEST(Fp2, LucasPowMatchesPowOnNormOneElements) {
  for (curve::ParamSet set :
       {curve::ParamSet::kTest, curve::ParamSet::kProduction}) {
    const curve::CurveCtx& c = curve::params(set);
    const FpCtx& f = c.fp;
    cipher::Drbg rng(to_bytes("fp2-lucas-" + c.name));
    auto norm_one = [&] {
      for (;;) {
        Fp2 z(random_fp(f, rng), random_fp(f, rng));
        if (z.re().is_zero() || z.im().is_zero()) continue;  // t = ±1
        return z.conj() * z.inv();
      }
    };
    Fp2 t = norm_one();
    ASSERT_EQ(t.re().sqr() + t.im().sqr(), Fp::one(&f));
    Fp inv_2b = (t.im() + t.im()).inv();
    for (uint64_t e = 0; e < 40; ++e) {
      EXPECT_EQ(t.pow_unitary(mp::U512::from_u64(e), inv_2b),
                t.pow(mp::U512::from_u64(e)))
          << c.name << " e=" << e;
    }
    for (int i = 0; i < 10000; ++i) {
      t = norm_one();
      inv_2b = (t.im() + t.im()).inv();
      ASSERT_EQ(t.pow_unitary(c.cofactor, inv_2b), t.pow(c.cofactor))
          << c.name << " i=" << i;
    }
  }
}

TEST(Fp2, NormMultiplicativity) {
  const FpCtx& f = test_field();
  cipher::Drbg rng(to_bytes("fp2-norm"));
  Fp2 a(random_fp(f, rng), random_fp(f, rng));
  Fp2 b(random_fp(f, rng), random_fp(f, rng));
  auto norm = [](const Fp2& x) {
    return x.re().sqr() + x.im().sqr();
  };
  EXPECT_EQ(norm(a * b), norm(a) * norm(b));
}

// make()'s result, constructed in 0xA5-filled storage.
template <typename Make>
auto in_dirty_storage(Make make) {
  using T = decltype(make());
  alignas(T) unsigned char buf[sizeof(T)];
  std::memset(buf, 0xA5, sizeof buf);
  return *new (buf) T(make());
}

// Every Fp and Fp2 operation writes its result in place through an n-limb
// kernel, into storage it does not clear first. On the 256-bit test set
// (n = 4) limbs 4..7 must still read zero, since U512 comparison, is_zero and
// encoding read all eight. Results land in dirty storage, under a context
// built with HCPP_FORCE_GENERIC unset (the MULX kernels on a host with
// BMI2/ADX) and one built with it set (the portable kernels).
TEST(Field, InPlaceResultsKeepHighLimbsZero) {
  const char* prev = std::getenv("HCPP_FORCE_GENERIC");
  const std::string saved = prev != nullptr ? prev : "";
  for (bool generic : {false, true}) {
    ::setenv("HCPP_FORCE_GENERIC", generic ? "1" : "0", 1);
    mp::refresh_dispatch();
    const FpCtx f(test_field().p);
    SCOPED_TRACE(f.mont.kernel_name());
    ASSERT_EQ(f.mont.limbs(), 4u);
    auto check = [&f](const Fp& x) {
      mp::U512 low;
      std::copy_n(x.raw().w.begin(), 4, low.w.begin());
      EXPECT_EQ(x, Fp::from_raw(&f, low));
      EXPECT_TRUE(x.raw() < f.p);
    };
    auto check2 = [&check](const Fp2& x) {
      check(x.re());
      check(x.im());
    };
    cipher::Drbg rng(to_bytes("fp-in-place"));
    for (int i = 0; i < 50; ++i) {
      const Fp a = random_fp(f, rng), b = random_fp(f, rng);
      const Fp2 x(a, b), y(b, a.neg());
      check(in_dirty_storage([&] { return a + b; }));
      check(in_dirty_storage([&] { return a - b; }));
      check(in_dirty_storage([&] { return b - a; }));
      check(in_dirty_storage([&] { return a * b; }));
      check(in_dirty_storage([&] { return a.neg(); }));
      check(in_dirty_storage([&] { return a.sqr(); }));
      EXPECT_TRUE(in_dirty_storage([&] { return a - a; }).is_zero());
      check2(in_dirty_storage([&] { return x * y; }));
      check2(in_dirty_storage([&] { return x.sqr(); }));
      check2(in_dirty_storage([&] { return x + y; }));
      check2(in_dirty_storage([&] { return x - y; }));
      check2(in_dirty_storage([&] { return x.conj(); }));
      if (!x.is_zero()) check2(in_dirty_storage([&] { return x.inv(); }));
    }
  }
  if (prev != nullptr) {
    ::setenv("HCPP_FORCE_GENERIC", saved.c_str(), 1);
  } else {
    ::unsetenv("HCPP_FORCE_GENERIC");
  }
  mp::refresh_dispatch();
}

TEST(Fp2, SerializationIsCanonical) {
  const FpCtx& f = test_field();
  Fp2 x(Fp(&f, mp::U512::from_u64(1)), Fp(&f, mp::U512::from_u64(2)));
  Bytes enc = x.to_bytes();
  EXPECT_EQ(enc.size(), 128u);
  Fp2 y(Fp(&f, mp::U512::from_u64(1)), Fp(&f, mp::U512::from_u64(2)));
  EXPECT_EQ(enc, y.to_bytes());
}

}  // namespace
}  // namespace hcpp::field
