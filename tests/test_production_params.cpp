// Smoke tests at the production parameter set (512-bit p / 160-bit q — the
// paper's "1024-bit RSA equivalent" timing setting). Kept small: parameter
// generation runs once per process and each pairing costs about 1 ms
// (Release, MULX/ADX kernels).
#include <gtest/gtest.h>

#include "src/cipher/drbg.h"
#include "src/curve/pairing.h"
#include "src/curve/params.h"
#include "src/ibc/ibe.h"
#include "src/ibc/ibs.h"

namespace hcpp {
namespace {

const curve::CurveCtx& prod() {
  return curve::params(curve::ParamSet::kProduction);
}

TEST(ProductionParams, SizesAreAsAdvertised) {
  EXPECT_GE(prod().p.bit_length(), 505u);
  EXPECT_LE(prod().p.bit_length(), 512u);
  EXPECT_EQ(prod().q.bit_length(), 160u);
  EXPECT_EQ(prod().p.w[0] & 3, 3u);
}

// generate_params' Solinas search lands on q = 2^159 + 2^17 + 1, whose NAF
// is the three-digit Miller schedule.
TEST(ProductionParams, GroupOrderIsSolinas) {
  mp::U512 q;
  q.w[159 / 64] = 1ull << (159 % 64);
  q.w[0] = (1ull << 17) + 1;
  EXPECT_EQ(prod().q, q);
  size_t nonzero = 0;
  for (int8_t d : prod().miller_schedule) nonzero += d != 0;
  EXPECT_EQ(nonzero, 3u);
  EXPECT_EQ(prod().miller_schedule.size(), 160u);
}

TEST(ProductionParams, PairingBilinear) {
  cipher::Drbg rng(to_bytes("prod-pairing"));
  curve::Point g = curve::generator(prod());
  mp::U512 a = curve::random_scalar(prod(), rng);
  mp::U512 b = curve::random_scalar(prod(), rng);
  curve::Gt lhs =
      curve::pairing(prod(), curve::mul(prod(), g, a),
                     curve::mul(prod(), g, b));
  curve::Gt rhs =
      curve::pairing(prod(), g, g).pow(mp::mul_mod(a, b, prod().q));
  EXPECT_EQ(lhs, rhs);
  EXPECT_FALSE(lhs.is_one());
}

TEST(ProductionParams, IbeAndIbsInterop) {
  cipher::Drbg rng(to_bytes("prod-ibe"));
  ibc::Domain domain(prod(), rng);
  Bytes msg = to_bytes("production-size message");
  ibc::IbeCiphertext ct = ibc::ibe_encrypt(domain.pub(), "id", msg, rng);
  EXPECT_EQ(ibc::ibe_decrypt(prod(), domain.extract("id"), ct), msg);
  ibc::IbsSignature sig =
      ibc::ibs_sign(prod(), domain.extract("dr"), "dr", msg, rng);
  EXPECT_TRUE(ibc::ibs_verify(domain.pub(), "dr", msg, sig));
}

}  // namespace
}  // namespace hcpp
