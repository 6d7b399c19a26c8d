// PEKS (§II.C / §IV.E): match/mismatch, both variants, serialization, and
// the differential oracles gating the amortized fast paths (PeksEncryptor,
// peks_test_batch) against the scalar implementations.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/cipher/drbg.h"
#include "src/obs/metrics.h"
#include "src/par/pool.h"
#include "src/peks/peks.h"

namespace hcpp::peks {
namespace {

const curve::CurveCtx& ctx() { return curve::params(curve::ParamSet::kTest); }

struct PeksSetup {
  ibc::Domain domain;
  curve::Point role_key;
};

PeksSetup make(std::string_view seed, const std::string& role) {
  cipher::Drbg rng(to_bytes(seed));
  ibc::Domain d(ctx(), rng);
  curve::Point key = d.extract(role);
  return {std::move(d), key};
}

class PeksVariant : public ::testing::TestWithParam<Variant> {};

TEST_P(PeksVariant, MatchingKeywordTests) {
  PeksSetup s = make("peks-match", "2011-04-12|emergency|gainesville");
  cipher::Drbg rng(to_bytes("peks-match-rng"));
  PeksCiphertext ct =
      peks_encrypt(s.domain.pub(), "2011-04-12|emergency|gainesville",
                   "day:2011-04-12", rng, GetParam());
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "day:2011-04-12");
  EXPECT_TRUE(peks_test(ctx(), ct, td));
}

TEST_P(PeksVariant, WrongKeywordFails) {
  PeksSetup s = make("peks-kw", "role-a");
  cipher::Drbg rng(to_bytes("peks-kw-rng"));
  PeksCiphertext ct =
      peks_encrypt(s.domain.pub(), "role-a", "day:2011-04-12", rng,
                   GetParam());
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "day:2011-04-13");
  EXPECT_FALSE(peks_test(ctx(), ct, td));
}

TEST_P(PeksVariant, WrongRoleFails) {
  PeksSetup s = make("peks-role", "role-a");
  cipher::Drbg rng(to_bytes("peks-role-rng"));
  PeksCiphertext ct =
      peks_encrypt(s.domain.pub(), "role-b", "kw", rng, GetParam());
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "kw");  // key for role-a
  EXPECT_FALSE(peks_test(ctx(), ct, td));
}

TEST_P(PeksVariant, SerializationRoundTrip) {
  PeksSetup s = make("peks-ser", "role-a");
  cipher::Drbg rng(to_bytes("peks-ser-rng"));
  PeksCiphertext ct =
      peks_encrypt(s.domain.pub(), "role-a", "kw", rng, GetParam());
  PeksCiphertext back = PeksCiphertext::from_bytes(ctx(), ct.to_bytes());
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "kw");
  EXPECT_TRUE(peks_test(ctx(), back, td));
  Trapdoor td_back = Trapdoor::from_bytes(ctx(), td.to_bytes());
  EXPECT_TRUE(peks_test(ctx(), back, td_back));
}

INSTANTIATE_TEST_SUITE_P(Variants, PeksVariant,
                         ::testing::Values(Variant::kBdop,
                                           Variant::kRandomized));

TEST(Peks, CiphertextsAreRandomized) {
  PeksSetup s = make("peks-rand", "role-a");
  cipher::Drbg rng(to_bytes("peks-rand-rng"));
  PeksCiphertext a = peks_encrypt(s.domain.pub(), "role-a", "kw", rng);
  PeksCiphertext b = peks_encrypt(s.domain.pub(), "role-a", "kw", rng);
  EXPECT_NE(a.to_bytes(), b.to_bytes());
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "kw");
  EXPECT_TRUE(peks_test(ctx(), a, td));
  EXPECT_TRUE(peks_test(ctx(), b, td));
}

TEST(Peks, TrapdoorIsDeterministic) {
  PeksSetup s = make("peks-td", "role-a");
  Trapdoor a = peks_trapdoor(ctx(), s.role_key, "kw");
  Trapdoor b = peks_trapdoor(ctx(), s.role_key, "kw");
  EXPECT_EQ(a.to_bytes(), b.to_bytes());
}

TEST(Peks, MultipleKeywordsPerWindow) {
  // The §IV.E pattern: one window tagged for each of the following 5 days.
  PeksSetup s = make("peks-multi", "role-a");
  cipher::Drbg rng(to_bytes("peks-multi-rng"));
  std::vector<PeksCiphertext> tags;
  for (int day = 12; day < 17; ++day) {
    tags.push_back(peks_encrypt(s.domain.pub(), "role-a",
                                "day:2011-04-" + std::to_string(day), rng));
  }
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "day:2011-04-14");
  int matches = 0;
  for (const PeksCiphertext& tag : tags) {
    if (peks_test(ctx(), tag, td)) ++matches;
  }
  EXPECT_EQ(matches, 1);
}

TEST(PeksSet, ConjunctiveSetMatchesRegardlessOfOrder) {
  PeksSetup s = make("peks-set", "role-a");
  cipher::Drbg rng(to_bytes("peks-set-rng"));
  std::vector<std::string> kws = {"day:2011-04-12", "risk:cardiac"};
  std::vector<std::string> reversed = {"risk:cardiac", "day:2011-04-12"};
  PeksCiphertext ct = peks_encrypt_set(s.domain.pub(), "role-a", kws, rng);
  Trapdoor td = peks_trapdoor_set(ctx(), s.role_key, reversed);
  EXPECT_TRUE(peks_test(ctx(), ct, td));
}

TEST(PeksSet, SubsetDoesNotMatch) {
  PeksSetup s = make("peks-subset", "role-a");
  cipher::Drbg rng(to_bytes("peks-subset-rng"));
  std::vector<std::string> kws = {"day:2011-04-12", "risk:cardiac"};
  std::vector<std::string> subset = {"day:2011-04-12"};
  std::vector<std::string> superset = {"day:2011-04-12", "risk:cardiac",
                                       "extra"};
  PeksCiphertext ct = peks_encrypt_set(s.domain.pub(), "role-a", kws, rng);
  EXPECT_FALSE(peks_test(ctx(), ct,
                         peks_trapdoor_set(ctx(), s.role_key, subset)));
  EXPECT_FALSE(peks_test(ctx(), ct,
                         peks_trapdoor_set(ctx(), s.role_key, superset)));
}

TEST(PeksSet, SingletonSetEqualsSingleKeyword) {
  PeksSetup s = make("peks-single", "role-a");
  cipher::Drbg rng(to_bytes("peks-single-rng"));
  std::vector<std::string> one = {"kw"};
  PeksCiphertext ct = peks_encrypt_set(s.domain.pub(), "role-a", one, rng);
  // A single-keyword trapdoor from the scalar-sum path matches the plain
  // single-keyword trapdoor.
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "kw");
  EXPECT_TRUE(peks_test(ctx(), ct, td));
}

TEST(PeksSet, EmptySetRejected) {
  PeksSetup s = make("peks-empty", "role-a");
  cipher::Drbg rng(to_bytes("peks-empty-rng"));
  std::vector<std::string> none;
  EXPECT_THROW(peks_encrypt_set(s.domain.pub(), "role-a", none, rng),
               std::invalid_argument);
  EXPECT_THROW(peks_trapdoor_set(ctx(), s.role_key, none),
               std::invalid_argument);
}

TEST(Peks, RejectsMalformedCiphertext) {
  EXPECT_THROW(PeksCiphertext::from_bytes(ctx(), to_bytes("junk")),
               std::exception);
  Bytes bad = {9};  // invalid variant tag
  EXPECT_THROW(PeksCiphertext::from_bytes(ctx(), bad), std::exception);
}

TEST(Peks, SizeMatchesSerializedLength) {
  PeksSetup s = make("peks-size", "role-a");
  cipher::Drbg rng(to_bytes("peks-size-rng"));
  for (Variant v : {Variant::kBdop, Variant::kRandomized}) {
    PeksCiphertext ct = peks_encrypt(s.domain.pub(), "role-a", "kw", rng, v);
    EXPECT_EQ(ct.size(), ct.to_bytes().size());
  }
  PeksCiphertext degenerate;  // point at infinity, empty tag
  EXPECT_EQ(degenerate.size(), degenerate.to_bytes().size());
}

// ---- Amortized encrypt path (PeksEncryptor) --------------------------------

class PeksEncryptorOracle : public ::testing::TestWithParam<Variant> {};

TEST_P(PeksEncryptorOracle, BitIdenticalToColdPath) {
  PeksSetup s = make("peks-enc-oracle", "role-a");
  // Two identically-seeded RNG streams: the cached path must consume randoms
  // in exactly the cold path's order to produce the same bytes.
  cipher::Drbg cold_rng(to_bytes("peks-enc-oracle-rng"));
  cipher::Drbg warm_rng(to_bytes("peks-enc-oracle-rng"));
  PeksEncryptor enc(s.domain.pub());
  std::vector<std::string> kws = {"day:2011-04-12", "risk:cardiac"};
  for (int i = 0; i < 3; ++i) {
    for (const std::string& role : {std::string("role-a"),
                                    std::string("role-b")}) {
      PeksCiphertext cold =
          peks_encrypt(s.domain.pub(), role, "kw" + std::to_string(i),
                       cold_rng, GetParam());
      PeksCiphertext warm =
          enc.encrypt(role, "kw" + std::to_string(i), warm_rng, GetParam());
      EXPECT_EQ(cold.to_bytes(), warm.to_bytes());
      PeksCiphertext cold_set =
          peks_encrypt_set(s.domain.pub(), role, kws, cold_rng, GetParam());
      PeksCiphertext warm_set =
          enc.encrypt_set(role, kws, warm_rng, GetParam());
      EXPECT_EQ(cold_set.to_bytes(), warm_set.to_bytes());
    }
  }
  EXPECT_EQ(enc.cached_roles(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Variants, PeksEncryptorOracle,
                         ::testing::Values(Variant::kBdop,
                                           Variant::kRandomized));

TEST(PeksEncryptor, WarmTagsPayNoPairingOrHashToPoint) {
  PeksSetup s = make("peks-enc-warm", "role-a");
  cipher::Drbg rng(to_bytes("peks-enc-warm-rng"));
  PeksEncryptor enc(s.domain.pub());
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  // ê(PK_r, Ppub) runs through the shared Ppub line table, so it counts as
  // a fixed-argument pairing.
  auto pairings = [&reg] {
    return reg.counter(obs::kPairing) + reg.counter(obs::kPairingFixed);
  };
  (void)enc.encrypt("role-a", "kw0", rng);  // cold: pairs + hashes to point
  uint64_t cold_pairings = pairings();
  uint64_t cold_h2p = reg.counter(obs::kHashToPoint);
  EXPECT_GE(cold_pairings, 1u);
  for (int i = 1; i < 4; ++i) {
    (void)enc.encrypt("role-a", "kw" + std::to_string(i), rng);
  }
  EXPECT_EQ(pairings(), cold_pairings);
  EXPECT_EQ(reg.counter(obs::kHashToPoint), cold_h2p);
  // Epoch rollover: eviction makes the next tag cold again.
  enc.evict("role-a");
  EXPECT_EQ(enc.cached_roles(), 0u);
  (void)enc.encrypt("role-a", "kw0", rng);
  EXPECT_GT(pairings(), cold_pairings);
  obs::attach(previous);
}

// ---- Batched test path (peks_test_batch / peks_test_matrix) ----------------

// A mixed batch: matches, keyword misses, role misses, and tampered tags in
// both variants — the batched verdicts must agree with peks_test elementwise.
std::vector<PeksCiphertext> mixed_batch(const PeksSetup& s) {
  cipher::Drbg rng(to_bytes("peks-batch-rng"));
  std::vector<PeksCiphertext> tags;
  for (Variant v : {Variant::kBdop, Variant::kRandomized}) {
    tags.push_back(peks_encrypt(s.domain.pub(), "role-a", "kw", rng, v));
    tags.push_back(peks_encrypt(s.domain.pub(), "role-a", "other", rng, v));
    tags.push_back(peks_encrypt(s.domain.pub(), "role-b", "kw", rng, v));
    PeksCiphertext tampered_b =
        peks_encrypt(s.domain.pub(), "role-a", "kw", rng, v);
    tampered_b.b[0] ^= 0x01;
    tags.push_back(std::move(tampered_b));
  }
  PeksCiphertext tampered_check =
      peks_encrypt(s.domain.pub(), "role-a", "kw", rng, Variant::kRandomized);
  tampered_check.check[0] ^= 0x01;
  tags.push_back(std::move(tampered_check));
  return tags;
}

TEST(PeksTestBatch, MatchesScalarOracleAtPoolWidths) {
  PeksSetup s = make("peks-batch", "role-a");
  std::vector<PeksCiphertext> tags = mixed_batch(s);
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "kw");
  std::vector<uint8_t> expected;
  for (const PeksCiphertext& tag : tags) {
    expected.push_back(peks_test(ctx(), tag, td) ? 1 : 0);
  }
  // Sanity: the batch exercises both verdicts.
  EXPECT_NE(std::count(expected.begin(), expected.end(), 1), 0);
  EXPECT_NE(std::count(expected.begin(), expected.end(), 0), 0);
  EXPECT_EQ(peks_test_batch(ctx(), tags, td, nullptr), expected);
  for (size_t width : {size_t{1}, size_t{2}, size_t{8}}) {
    par::ThreadPool pool(width, "peks-test");
    EXPECT_EQ(peks_test_batch(ctx(), tags, td, &pool), expected)
        << "pool width " << width;
  }
}

TEST(PeksTestBatch, StandingPrecompMatchesScalar) {
  PeksSetup s = make("peks-standing", "role-a");
  std::vector<PeksCiphertext> tags = mixed_batch(s);
  const std::vector<Trapdoor> tds = {
      peks_trapdoor(ctx(), s.role_key, "kw"),
      peks_trapdoor(ctx(), s.role_key, "other"),
      peks_trapdoor(ctx(), s.role_key, "absent")};
  std::vector<TrapdoorPrecomp> pre;
  std::vector<uint8_t> expected;
  for (const Trapdoor& td : tds) {
    pre.emplace_back(ctx(), td.td);
    for (const PeksCiphertext& tag : tags) {
      expected.push_back(peks_test(ctx(), tag, td) ? 1 : 0);
    }
  }
  EXPECT_EQ(peks_test_matrix(ctx(), pre, tags), expected);
  par::ThreadPool pool(2, "peks-matrix");
  EXPECT_EQ(peks_test_matrix(ctx(), pre, tags, &pool), expected);
  // Each row is that trapdoor's peks_test_batch.
  for (size_t r = 0; r < tds.size(); ++r) {
    EXPECT_EQ(peks_test_batch(ctx(), tags, tds[r]),
              std::vector<uint8_t>(
                  expected.begin() + static_cast<ptrdiff_t>(r * tags.size()),
                  expected.begin() +
                      static_cast<ptrdiff_t>((r + 1) * tags.size())))
        << "row " << r;
  }
  EXPECT_TRUE(peks_test_matrix(ctx(), pre, {}).empty());
  EXPECT_TRUE(peks_test_matrix(ctx(), {}, tags).empty());
}

TEST(PeksTestBatch, EmptyBatch) {
  PeksSetup s = make("peks-empty-batch", "role-a");
  Trapdoor td = peks_trapdoor(ctx(), s.role_key, "kw");
  EXPECT_TRUE(peks_test_batch(ctx(), {}, td).empty());
}

}  // namespace
}  // namespace hcpp::peks
