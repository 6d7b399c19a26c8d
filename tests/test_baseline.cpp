// E5 groundwork: the Lee&Lee and Tan et al. baselines exhibit exactly the
// privacy failures §I.A critiques, while HCPP does not.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/setup.h"
#include "study/baseline/leelee.h"
#include "study/baseline/tan.h"

namespace hcpp::baseline {
namespace {

TEST(LeeLee, NormalAndEmergencyRetrievalWork) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("leelee-1"));
  LeeLeeSystem sys(net, rng);
  sys.register_patient("alice");
  auto files = core::generate_phi_collection(8, rng);
  ASSERT_TRUE(sys.store_phi("alice", files));
  std::string kw = files[0].keywords[0];
  auto got = sys.retrieve_with_consent("alice", kw);
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(sys.emergency_retrieve("alice", kw).size(), got.size());
}

TEST(LeeLee, EscrowCanReadEverythingSilently) {
  // The paper's critique of [10]: "the trusted server is able to access the
  // patients' PHI at any time".
  sim::Network net;
  cipher::Drbg rng(to_bytes("leelee-2"));
  LeeLeeSystem sys(net, rng);
  sys.register_patient("alice");
  auto files = core::generate_phi_collection(5, rng);
  ASSERT_TRUE(sys.store_phi("alice", files));
  auto leaked = sys.escrow_read_all("alice");
  EXPECT_EQ(leaked.size(), files.size());
  EXPECT_EQ(leaked[0].content, files[0].content);  // full plaintext exposure
}

TEST(LeeLee, ServerLearnsIdentitiesAndKeywords) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("leelee-3"));
  LeeLeeSystem sys(net, rng);
  sys.register_patient("alice");
  auto files = core::generate_phi_collection(5, rng);
  ASSERT_TRUE(sys.store_phi("alice", files));
  auto ids = sys.server_visible_patient_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "alice");  // linkable
  EXPECT_FALSE(sys.server_visible_keywords("alice").empty());  // leaky
}

TEST(LeeLee, UnknownPatientHandled) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("leelee-4"));
  LeeLeeSystem sys(net, rng);
  EXPECT_FALSE(sys.store_phi("ghost", {}));
  EXPECT_TRUE(sys.retrieve_with_consent("ghost", "kw").empty());
  EXPECT_TRUE(sys.escrow_read_all("ghost").empty());
}

TEST(Tan, RoleBasedDecryptionWorks) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("tan-1"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  ibc::Domain domain(ctx, rng);
  TanSystem sys(net, domain);
  Bytes record = to_bytes("hr=150 bp=180/110");
  ASSERT_TRUE(sys.store_record("alice", "emergency-doctor", record, rng));
  auto blobs = sys.query_by_patient("dr-bob", "alice");
  ASSERT_EQ(blobs.size(), 1u);
  auto plain =
      sys.decrypt_records(domain.extract("emergency-doctor"), blobs);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0], record);
  // The wrong role decrypts nothing.
  EXPECT_TRUE(
      sys.decrypt_records(domain.extract("reception-desk"), blobs).empty());
}

TEST(Tan, ServerLearnsOwnership) {
  // The §I.A critique of [11]: "the storage site will learn the ownership of
  // the encrypted records".
  sim::Network net;
  cipher::Drbg rng(to_bytes("tan-2"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  ibc::Domain domain(ctx, rng);
  TanSystem sys(net, domain);
  sys.store_record("alice", "role", to_bytes("r1"), rng);
  sys.store_record("alice", "role", to_bytes("r2"), rng);
  sys.store_record("bob", "role", to_bytes("r3"), rng);
  auto view = sys.server_ownership_view();
  EXPECT_EQ(view.at("alice"), 2u);
  EXPECT_EQ(view.at("bob"), 1u);
}

TEST(Comparison, PrivacyScorecard) {
  PrivacyProperties leelee = LeeLeeSystem::properties();
  PrivacyProperties tan = TanSystem::properties();
  EXPECT_FALSE(leelee.escrow_free);
  EXPECT_FALSE(leelee.unlinkable_storage);
  EXPECT_TRUE(tan.escrow_free);
  EXPECT_FALSE(tan.unlinkable_storage);
}

TEST(Comparison, HcppServerSeesNeitherIdentityNorKeywords) {
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 6;
  cfg.seed = 55;
  core::Deployment d = core::Deployment::create(cfg);
  // Account ids are pseudonym-derived hex, unlinkable to "alice".
  for (const std::string& acct : d.sserver->visible_account_ids()) {
    EXPECT_EQ(acct.find("alice"), std::string::npos);
  }
  // Keywords only ever cross the wire as trapdoors; no plaintext keyword
  // string from the dictionary appears in any stored account key.
  for (const std::string& kw : d.all_keywords()) {
    for (const std::string& acct : d.sserver->visible_account_ids()) {
      EXPECT_EQ(acct.find(kw), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace hcpp::baseline
