// Fast cross-check of every optimized pairing path against the affine
// reference oracle (ctest name: pairing_consistency). This is the gate that
// lets the projective engine, the precomputed lines and the multi-pairing
// evolve: if any of them drifts from pairing_reference, this suite fails in
// well under a second on the test parameters plus one production spot-check.
#include <gtest/gtest.h>

#include "src/cipher/drbg.h"
#include "src/curve/pairing.h"
#include "src/curve/params.h"
#include "tests/oracle/oracle.h"

namespace hcpp::curve {
namespace {

TEST(PairingConsistency, AllPathsAgreeWithReference) {
  const CurveCtx& c = params(ParamSet::kTest);
  cipher::Drbg rng(to_bytes("pairing-consistency"));
  Point g = generator(c);
  for (int i = 0; i < 4; ++i) {
    Point p = mul(c, g, random_scalar(c, rng));
    Point q = hash_to_point(c, rng.bytes(32));
    Gt oracle = pairing_reference(c, p, q);
    EXPECT_EQ(pairing(c, p, q), oracle);
    EXPECT_EQ(PairingPrecomp(c, p).pairing_with(q), oracle);
    const PairingTerm single[] = {{p, q}};
    EXPECT_EQ(pairing_product(c, single), oracle);
  }
}

TEST(PairingConsistency, ProductAgreesWithReferenceProduct) {
  const CurveCtx& c = params(ParamSet::kTest);
  cipher::Drbg rng(to_bytes("pairing-consistency-product"));
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

// A curve fresh from generate_params (80-bit q = 2^79 + 2^26 − 1, whose
// schedule ends in a −1 digit like kTest's): every path against the oracle.
TEST(PairingConsistency, GeneratedCurveAgreesWithReference) {
  cipher::Drbg rng(to_bytes("pairing-consistency-generated"));
  std::unique_ptr<CurveCtx> c = make_curve(generate_params(80, 160, rng), "q80");
  for (int i = 0; i < 3; ++i) {
    Point p = mul(*c, generator(*c), random_scalar(*c, rng));
    Point q = hash_to_point(*c, rng.bytes(32));
    Gt oracle = pairing_reference(*c, p, q);
    EXPECT_EQ(pairing(*c, p, q), oracle);
    EXPECT_EQ(PairingPrecomp(*c, p).pairing_with(q), oracle);
    const PairingTerm single[] = {{p, q}};
    EXPECT_EQ(pairing_product(*c, single), oracle);
  }
}

TEST(PairingConsistency, ProductionSpotCheck) {
  const CurveCtx& c = params(ParamSet::kProduction);
  cipher::Drbg rng(to_bytes("pairing-consistency-production"));
  Point p = mul(c, generator(c), random_scalar(c, rng));
  Point q = hash_to_point(c, rng.bytes(32));
  Gt oracle = pairing_reference(c, p, q);
  EXPECT_EQ(pairing(c, p, q), oracle);
  EXPECT_EQ(PairingPrecomp(c, p).pairing_with(q), oracle);
}

}  // namespace
}  // namespace hcpp::curve
