// Integration tests: §IV.B storage, §IV.C assignment/revocation plumbing and
// §IV.D common-case retrieval over the simulated network, plus the
// failure-injection cases (tampered MAC, replay, unknown account) that back
// the §V.A integrity/confidentiality claims.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/setup.h"

namespace hcpp::core {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DeploymentConfig cfg;
    cfg.n_phi_files = 16;
    deployment_ = new Deployment(Deployment::create(cfg));
  }
  static void TearDownTestSuite() {
    delete deployment_;
    deployment_ = nullptr;
  }
  Deployment& d() { return *deployment_; }

  static Deployment* deployment_;
};

Deployment* ProtocolTest::deployment_ = nullptr;

TEST_F(ProtocolTest, StorageCreatedAccountAndKeywordIndex) {
  EXPECT_EQ(d().sserver->account_count(), 1u);
  EXPECT_FALSE(d().patient->keyword_index().entries.empty());
  EXPECT_GT(d().sserver->stored_bytes(), 0u);
}

TEST_F(ProtocolTest, ServerSeesPseudonymNotName) {
  for (const std::string& account : d().sserver->visible_account_ids()) {
    EXPECT_EQ(account.find("alice"), std::string::npos);
    EXPECT_EQ(account.find("patient"), std::string::npos);
  }
}

TEST_F(ProtocolTest, CommonCaseRetrievalReturnsExactMatches) {
  const KeywordIndex& ki = d().patient->keyword_index();
  for (const auto& [kw, expected_ids] : ki.entries) {
    std::vector<std::string> kws = {kw};
    std::vector<sse::PlainFile> got =
        d().patient->try_retrieve(*d().sserver, kws).value_or({});
    std::vector<sse::FileId> got_ids;
    for (const sse::PlainFile& f : got) got_ids.push_back(f.id);
    std::sort(got_ids.begin(), got_ids.end());
    std::vector<sse::FileId> want = expected_ids;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got_ids, want) << "keyword " << kw;
  }
}

TEST_F(ProtocolTest, MultiKeywordRetrievalUnions) {
  const KeywordIndex& ki = d().patient->keyword_index();
  ASSERT_GE(ki.entries.size(), 2u);
  auto it = ki.entries.begin();
  std::string kw1 = it->first;
  std::string kw2 = std::next(it)->first;
  std::vector<std::string> kws = {kw1, kw2};
  std::vector<sse::PlainFile> got =
      d().patient->try_retrieve(*d().sserver, kws).value_or({});
  std::set<sse::FileId> want(ki.entries.at(kw1).begin(),
                             ki.entries.at(kw1).end());
  want.insert(ki.entries.at(kw2).begin(), ki.entries.at(kw2).end());
  EXPECT_EQ(got.size(), want.size());
}

TEST_F(ProtocolTest, RetrievalReturnsMinimumNecessary) {
  // §IV.D: only the files matching the keyword come back, not the whole
  // collection.
  const KeywordIndex& ki = d().patient->keyword_index();
  auto smallest = std::min_element(
      ki.entries.begin(), ki.entries.end(),
      [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  std::vector<std::string> kws = {smallest->first};
  std::vector<sse::PlainFile> got =
      d().patient->try_retrieve(*d().sserver, kws).value_or({});
  EXPECT_LT(got.size(), d().patient->files().size());
}

TEST_F(ProtocolTest, UnknownKeywordReturnsNothing) {
  std::vector<std::string> kws = {"keyword-that-does-not-exist"};
  EXPECT_TRUE(
      d().patient->try_retrieve(*d().sserver, kws).value_or({}).empty());
}

TEST_F(ProtocolTest, TamperedMacRejected) {
  RetrieveRequest req;
  req.tp = d().patient->tp_bytes();
  req.collection = d().patient->collection();
  req.trapdoors.push_back(
      sse::make_trapdoor(d().patient->keys(), "category:allergy").to_bytes());
  req.t = d().net->clock().now();
  req.mac = Bytes(32, 0xab);  // wrong MAC
  EXPECT_FALSE(d().sserver->handle_retrieve(req).has_value());
}

TEST_F(ProtocolTest, ReplayedRequestRejected) {
  RetrieveRequest req;
  req.tp = d().patient->tp_bytes();
  req.collection = d().patient->collection();
  req.trapdoors.push_back(
      sse::make_trapdoor(d().patient->keys(), "category:allergy").to_bytes());
  req.t = d().net->clock().now();
  req.mac = protocol_mac(d().patient->shared_key_nu(), "phi-retrieval",
                         req.body(), req.t);
  EXPECT_TRUE(d().sserver->handle_retrieve(req).has_value());
  // Bit-for-bit replay of the same authenticated message.
  EXPECT_FALSE(d().sserver->handle_retrieve(req).has_value());
}

TEST_F(ProtocolTest, StaleTimestampRejected) {
  // Move simulated time well past the freshness window so "t = 1" is stale.
  d().net->clock().advance(3 * kFreshnessWindowNs);
  RetrieveRequest req;
  req.tp = d().patient->tp_bytes();
  req.collection = d().patient->collection();
  req.t = 1;  // far in the simulated past
  req.mac = protocol_mac(d().patient->shared_key_nu(), "phi-retrieval",
                         req.body(), req.t);
  EXPECT_FALSE(d().sserver->handle_retrieve(req).has_value());
}

TEST_F(ProtocolTest, UnknownAccountRejected) {
  // A valid pseudonym that never stored anything.
  ibc::Domain::Pseudonym stranger = d().aserver->issue_pseudonym();
  Bytes tp = curve::point_to_bytes(stranger.tp);
  Bytes nu = ibc::shared_key_with_id(d().aserver->ctx(), stranger.gamma,
                                     d().sserver->id());
  RetrieveRequest req;
  req.tp = tp;
  req.collection = "phi-main";
  req.t = d().net->clock().now();
  req.mac = protocol_mac(nu, "phi-retrieval", req.body(), req.t);
  EXPECT_FALSE(d().sserver->handle_retrieve(req).has_value());
}

TEST_F(ProtocolTest, MalformedPseudonymRejected) {
  StoreRequest req;
  req.tp = to_bytes("not-a-point");
  req.collection = "x";
  req.t = d().net->clock().now();
  req.mac = Bytes(32, 0);
  EXPECT_FALSE(d().sserver->handle_store(req));
}

TEST_F(ProtocolTest, TrafficChargedPerProtocol) {
  sim::TrafficStats storage = d().net->stats("phi-storage");
  EXPECT_EQ(storage.messages, 1u);  // one upload message (§V.B.2)
  EXPECT_GT(storage.bytes, 0u);
  sim::TrafficStats retrieval = d().net->stats("phi-retrieval");
  EXPECT_GT(retrieval.messages, 0u);
  // Requests and responses come in pairs.
  EXPECT_EQ(retrieval.messages % 2, 0u);
}

TEST(ProtocolStandalone, RevokeUpdatesServerSideKey) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = 99;
  Deployment d = Deployment::create(cfg);
  // Family works before revocation...
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_FALSE(
      d.family->try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
  // ...revoke the family slot; their wrapped trapdoors now fail.
  ASSERT_TRUE(d.patient->try_revoke_member(*d.sserver, kFamilySlot).ok());
  EXPECT_TRUE(
      d.family->try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
  // The patient's own retrieval is untouched.
  EXPECT_FALSE(d.patient->try_retrieve(*d.sserver, kws).value_or({}).empty());
}

TEST(ProtocolStandalone, WrongMuCannotOpenBundle) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 4;
  cfg.seed = 7;
  cfg.assign_privileges = false;
  Deployment d = Deployment::create(cfg);
  Bytes sealed = d.patient->make_sealed_bundle(kFamilySlot, d.mu_family);
  Family eve(*d.net, "eve");
  Bytes wrong_mu(32, 0x01);
  EXPECT_FALSE(eve.receive_bundle(sealed, wrong_mu));
  EXPECT_FALSE(eve.has_bundle());
}

TEST(ProtocolStandalone, PhiUpdateFlowReplacesCollection) {
  // §IV.B: the storage protocol "is executed by the patient whenever the PHI
  // is created, updated or modified". New files after a diagnosis are picked
  // up by re-running it; the new keyword is then retrievable.
  DeploymentConfig cfg;
  cfg.n_phi_files = 6;
  cfg.seed = 101;
  Deployment d = Deployment::create(cfg);
  size_t before = d.patient->files().size();

  sse::PlainFile fresh;
  fresh.id = 900;
  fresh.name = "new-diagnosis";
  fresh.content = to_bytes("post-visit imaging report");
  fresh.keywords = {"category:imaging", "visit:2011-04-12"};
  d.patient->add_files({fresh});
  ASSERT_TRUE(d.patient->try_store_phi(*d.sserver).ok());
  EXPECT_EQ(d.sserver->account_count(), 1u);  // replaced, not duplicated

  std::vector<std::string> kws = {"visit:2011-04-12"};
  std::vector<sse::PlainFile> got =
      d.patient->try_retrieve(*d.sserver, kws).value_or({});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 900u);
  EXPECT_EQ(got[0].content, fresh.content);
  // Old files still retrievable after the update.
  std::vector<std::string> old_kw = {
      d.patient->files().front().keywords.front()};
  EXPECT_FALSE(
      d.patient->try_retrieve(*d.sserver, old_kw).value_or({}).empty());
  EXPECT_EQ(d.patient->files().size(), before + 1);
}

TEST(ProtocolStandalone, TwoPatientsAreIsolatedOnOneServer) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("two-patients"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServer aserver(net, ctx, "a", rng);
  SServer sserver(net, aserver, "s");

  Patient alice(net, "alice", rng);
  alice.setup(aserver, "s");
  alice.add_files(generate_phi_collection(5, alice.rng(), /*first_id=*/1));
  ASSERT_TRUE(alice.try_store_phi(sserver).ok());

  Patient bob(net, "bob", rng);
  bob.setup(aserver, "s");
  bob.add_files(generate_phi_collection(5, bob.rng(), /*first_id=*/100));
  ASSERT_TRUE(bob.try_store_phi(sserver).ok());

  EXPECT_EQ(sserver.account_count(), 2u);
  // Each patient's retrieval returns only their own files.
  for (const auto& [kw, ids] : alice.keyword_index().entries) {
    std::vector<std::string> kws = {kw};
    for (const sse::PlainFile& f :
         alice.try_retrieve(sserver, kws).value_or({})) {
      EXPECT_LT(f.id, 100u);
    }
  }
  for (const auto& [kw, ids] : bob.keyword_index().entries) {
    std::vector<std::string> kws = {kw};
    for (const sse::PlainFile& f :
         bob.try_retrieve(sserver, kws).value_or({})) {
      EXPECT_GE(f.id, 100u);
    }
  }
}

TEST(ProtocolStandalone, StoreBeforeSetupThrows) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("nosetup"));
  Patient p(net, "nobody", rng);
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServer a(net, ctx, "a", rng);
  SServer s(net, a, "s");
  EXPECT_THROW((void)p.try_store_phi(s), std::logic_error);
}

}  // namespace
}  // namespace hcpp::core
