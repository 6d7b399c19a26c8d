// §VI.B category-1 countermeasure: keyword aliases make repeated searches
// for the same keyword unlinkable at the server, at the cost of a larger
// index — both directions verified here.
#include <gtest/gtest.h>

#include "src/core/setup.h"

namespace hcpp::core {
namespace {

Deployment aliased_deployment(uint64_t seed, size_t aliases) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 10;
  cfg.seed = seed;
  cfg.store_phi = false;
  cfg.assign_privileges = false;
  Deployment d = Deployment::create(cfg);
  d.patient->set_keyword_aliases(aliases);
  EXPECT_TRUE(d.patient->try_store_phi(*d.sserver).ok());
  EXPECT_TRUE(assign_privilege(*d.patient, *d.family, d.mu_family));
  EXPECT_TRUE(assign_privilege(*d.patient, *d.pdevice, d.mu_pdevice));
  return d;
}

TEST(Aliases, HelperExpandsKeywordLists) {
  cipher::Drbg rng(to_bytes("alias-helper"));
  auto files = generate_phi_collection(3, rng);
  auto aliased = apply_keyword_aliases(files, 3);
  ASSERT_EQ(aliased.size(), files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(aliased[i].keywords.size(), files[i].keywords.size() * 3);
    EXPECT_EQ(aliased[i].content, files[i].content);  // bodies untouched
  }
  EXPECT_THROW(apply_keyword_aliases(files, 0), std::invalid_argument);
  EXPECT_NE(keyword_alias("kw", 0), keyword_alias("kw", 1));
  EXPECT_NE(keyword_alias("kw", 0), "kw");
}

TEST(Aliases, RepeatedSearchesStillReturnExactResults) {
  Deployment d = aliased_deployment(80, 4);
  const KeywordIndex& ki = d.patient->keyword_index();
  for (const auto& [kw, expected] : ki.entries) {
    // More searches than aliases: the rotation must wrap and keep working.
    for (int round = 0; round < 6; ++round) {
      std::vector<std::string> kws = {kw};
      EXPECT_EQ(d.patient->try_retrieve(*d.sserver, kws).value_or({}).size(),
                expected.size())
          << kw << " round " << round;
    }
  }
}

TEST(Aliases, SuccessiveTrapdoorsDifferOnTheWire) {
  Deployment d = aliased_deployment(81, 4);
  // Observe the wire: the trapdoor for the same logical keyword must change
  // between searches (the whole point of the countermeasure). We recompute
  // what the patient would send by reading its alias rotation indirectly —
  // via bytes charged: instead, compare the underlying SSE trapdoors.
  std::string kw = d.all_keywords().front();
  Bytes td_round1 =
      sse::make_trapdoor(d.patient->keys(), keyword_alias(kw, 0)).to_bytes();
  Bytes td_round2 =
      sse::make_trapdoor(d.patient->keys(), keyword_alias(kw, 1)).to_bytes();
  EXPECT_NE(td_round1, td_round2);
}

TEST(Aliases, FamilyAndPDeviceWorkWithAliasedIndex) {
  Deployment d = aliased_deployment(82, 3);
  std::vector<std::string> kws = {d.all_keywords().front()};
  size_t expected =
      d.patient->keyword_index().entries.at(kws.front()).size();
  EXPECT_EQ(
      d.family->try_emergency_retrieve(*d.sserver, kws).value_or({}).size(),
      expected);

  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  EXPECT_EQ(
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({}).size(),
      expected);
}

TEST(Aliases, IndexGrowsLinearlyWithAliasCount) {
  // The paper's stated cost: "the size increase of the keyword index, and
  // the encryption and storage of more PHI files" — here, more index nodes.
  cipher::Drbg rng(to_bytes("alias-size"));
  auto files = generate_phi_collection(40, rng);
  sse::Keys keys = sse::Keys::generate(rng);
  size_t base =
      sse::build_index(apply_keyword_aliases(files, 1), keys, rng, 1.0)
          .size_bytes();
  size_t quad =
      sse::build_index(apply_keyword_aliases(files, 4), keys, rng, 1.0)
          .size_bytes();
  EXPECT_GT(quad, base * 3);
  EXPECT_LT(quad, base * 6);
}

TEST(Aliases, RawLogicalKeywordNoLongerHitsTheIndex) {
  // With aliasing on, the logical keyword itself is not in the index — a
  // server (or thief) replaying an old-style trapdoor learns nothing.
  Deployment d = aliased_deployment(83, 2);
  std::string kw = d.all_keywords().front();
  sse::Trapdoor raw = sse::make_trapdoor(d.patient->keys(), kw);
  RetrieveRequest req;
  req.tp = d.patient->tp_bytes();
  req.collection = d.patient->collection();
  req.trapdoors.push_back(raw.to_bytes());
  req.t = d.net->clock().now();
  req.mac = protocol_mac(d.patient->shared_key_nu(), "phi-retrieval",
                         req.body(), req.t);
  auto resp = d.sserver->handle_retrieve(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->files.empty());
}

TEST(Aliases, BundleCarriesAliasCount) {
  Deployment d = aliased_deployment(84, 5);
  ASSERT_TRUE(d.family->has_bundle());
  EXPECT_EQ(d.family->bundle().alias_count, 5u);
  EXPECT_EQ(d.pdevice->bundle().alias_count, 5u);
}

TEST(Aliases, ZeroAliasCountRejected) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 2;
  cfg.seed = 85;
  Deployment d = Deployment::create(cfg);
  EXPECT_THROW(d.patient->set_keyword_aliases(0), std::invalid_argument);
}

}  // namespace
}  // namespace hcpp::core
