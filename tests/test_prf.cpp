// Property tests for the PRF and the two Feistel PRPs (ϖ/θ byte-string PRP
// and φ small-domain PRP).
#include <gtest/gtest.h>

#include <set>

#include "src/prf/feistel.h"
#include "src/prf/prf.h"

namespace hcpp::prf {
namespace {

TEST(Prf, DeterministicAndKeySeparated) {
  Prf f1(to_bytes("key-1"));
  Prf f2(to_bytes("key-2"));
  EXPECT_EQ(f1.eval(to_bytes("x"), 40), f1.eval(to_bytes("x"), 40));
  EXPECT_NE(f1.eval(to_bytes("x"), 40), f2.eval(to_bytes("x"), 40));
  EXPECT_NE(f1.eval(to_bytes("x"), 40), f1.eval(to_bytes("y"), 40));
}

TEST(Prf, OutputLengths) {
  Prf f(to_bytes("k"));
  for (size_t len : {1u, 16u, 32u, 33u, 40u, 100u}) {
    EXPECT_EQ(f.eval(to_bytes("in"), len).size(), len);
  }
  // Short outputs are prefixes of the truncated HMAC, wide outputs come from
  // HKDF; both must be stable.
  Bytes w1 = f.eval(to_bytes("in"), 64);
  Bytes w2 = f.eval(to_bytes("in"), 64);
  EXPECT_EQ(w1, w2);
}

class FeistelWidth : public ::testing::TestWithParam<size_t> {};

TEST_P(FeistelWidth, InverseUndoesForward) {
  FeistelPrp prp(to_bytes("prp-key"), GetParam());
  Bytes input(GetParam(), 0);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  Bytes out = prp.forward(input);
  EXPECT_NE(out, input);
  EXPECT_EQ(prp.inverse(out), input);
}

TEST_P(FeistelWidth, DistinctInputsDistinctOutputs) {
  FeistelPrp prp(to_bytes("prp-key"), GetParam());
  std::set<Bytes> outputs;
  for (int i = 0; i < 64; ++i) {
    Bytes input(GetParam(), 0);
    input[0] = static_cast<uint8_t>(i);
    outputs.insert(prp.forward(input));
  }
  EXPECT_EQ(outputs.size(), 64u);  // injective on these points
}

INSTANTIATE_TEST_SUITE_P(Widths, FeistelWidth,
                         ::testing::Values(2, 3, 16, 17, 56, 60, 64));

TEST(FeistelPrp, RejectsBadWidths) {
  EXPECT_THROW(FeistelPrp(to_bytes("k"), 1), std::invalid_argument);
  FeistelPrp prp(to_bytes("k"), 16);
  EXPECT_THROW(prp.forward(Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(prp.inverse(Bytes(17, 0)), std::invalid_argument);
}

TEST(FeistelPrp, KeySeparation) {
  FeistelPrp a(to_bytes("ka"), 16);
  FeistelPrp b(to_bytes("kb"), 16);
  Bytes x(16, 0x5a);
  EXPECT_NE(a.forward(x), b.forward(x));
}

class SmallDomain : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmallDomain, IsAPermutation) {
  SmallDomainPrp prp(to_bytes("phi-key"), GetParam());
  std::set<uint64_t> seen;
  for (uint64_t x = 0; x < GetParam(); ++x) {
    uint64_t y = prp.forward(x);
    EXPECT_LT(y, GetParam());
    seen.insert(y);
    EXPECT_EQ(prp.inverse(y), x);
  }
  EXPECT_EQ(seen.size(), GetParam());  // bijective over the whole domain
}

INSTANTIATE_TEST_SUITE_P(DomainSizes, SmallDomain,
                         ::testing::Values(2, 3, 5, 8, 17, 100, 256, 1000));

TEST(SmallDomainPrp, LargeDomainSpotChecks) {
  SmallDomainPrp prp(to_bytes("k"), 1'000'000'007ull);
  for (uint64_t x : {0ull, 1ull, 999'999'999ull, 123'456'789ull}) {
    uint64_t y = prp.forward(x);
    EXPECT_LT(y, 1'000'000'007ull);
    EXPECT_EQ(prp.inverse(y), x);
  }
}

TEST(SmallDomainPrp, RejectsOutOfDomain) {
  SmallDomainPrp prp(to_bytes("k"), 10);
  EXPECT_THROW((void)prp.forward(10), std::out_of_range);
  EXPECT_THROW((void)prp.inverse(10), std::out_of_range);
  EXPECT_THROW(SmallDomainPrp(to_bytes("k"), 1), std::invalid_argument);
}

}  // namespace
}  // namespace hcpp::prf
