// Parameterized end-to-end sweeps: the full protocol stack exercised across
// collection shapes, padding factors and alias counts — the property-style
// coverage that single-point tests miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "src/core/setup.h"

namespace hcpp::core {
namespace {

// ---- (n_files, keywords_per_file) protocol sweep ---------------------------

using Shape = std::tuple<size_t, size_t>;

class ProtocolSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ProtocolSweep, FullLifecycleHoldsForEveryShape) {
  auto [n_files, kw_per_file] = GetParam();
  DeploymentConfig cfg;
  cfg.n_phi_files = n_files;
  cfg.keywords_per_file = kw_per_file;
  cfg.seed = 1000 + n_files * 10 + kw_per_file;
  Deployment d = Deployment::create(cfg);

  // Every keyword retrieves exactly its postings, for patient and family.
  for (const auto& [kw, expected] : d.patient->keyword_index().entries) {
    std::vector<std::string> kws = {kw};
    EXPECT_EQ(d.patient->try_retrieve(*d.sserver, kws).value_or({}).size(),
              expected.size())
        << "patient, kw=" << kw;
    EXPECT_EQ(
        d.family->try_emergency_retrieve(*d.sserver, kws).value_or({}).size(),
        expected.size())
        << "family, kw=" << kw;
  }
  // The union of all retrievals covers the collection exactly once.
  std::set<sse::FileId> seen;
  for (const auto& [kw, expected] : d.patient->keyword_index().entries) {
    std::vector<std::string> kws = {kw};
    for (const sse::PlainFile& f :
         d.patient->try_retrieve(*d.sserver, kws).value_or({})) {
      seen.insert(f.id);
    }
  }
  EXPECT_EQ(seen.size(), d.patient->files().size());
  // Revocation closes the family path for every shape.
  ASSERT_TRUE(d.patient->try_revoke_member(*d.sserver, kFamilySlot).ok());
  std::vector<std::string> first = {d.all_keywords().front()};
  EXPECT_TRUE(
      d.family->try_emergency_retrieve(*d.sserver, first).value_or({}).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProtocolSweep,
    ::testing::Values(Shape{1, 1}, Shape{2, 1}, Shape{6, 2}, Shape{12, 4},
                      Shape{24, 6}, Shape{48, 3}));

// ---- padding-factor sweep ---------------------------------------------------

class PaddingSweep : public ::testing::TestWithParam<double> {};

TEST_P(PaddingSweep, SearchExactUnderAnyPadding) {
  cipher::Drbg rng(to_bytes("pad-sweep"));
  auto files = generate_phi_collection(20, rng);
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng, GetParam());
  std::map<std::string, std::set<sse::FileId>> truth;
  for (const auto& f : files) {
    for (const auto& kw : f.keywords) truth[kw].insert(f.id);
  }
  for (const auto& [kw, expected] : truth) {
    auto got = sse::search(si, sse::make_trapdoor(keys, kw));
    EXPECT_EQ(std::set<sse::FileId>(got.begin(), got.end()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, PaddingSweep,
                         ::testing::Values(1.0, 1.1, 1.5, 2.0, 4.0));

// ---- alias-count sweep ------------------------------------------------------

class AliasSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(AliasSweep, RetrievalStableAcrossManyRounds) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = 2000 + GetParam();
  cfg.store_phi = false;
  cfg.assign_privileges = false;
  Deployment d = Deployment::create(cfg);
  d.patient->set_keyword_aliases(GetParam());
  ASSERT_TRUE(d.patient->try_store_phi(*d.sserver).ok());
  const auto& [kw, expected] = *d.patient->keyword_index().entries.begin();
  for (size_t round = 0; round < 2 * GetParam() + 1; ++round) {
    std::vector<std::string> kws = {kw};
    EXPECT_EQ(d.patient->try_retrieve(*d.sserver, kws).value_or({}).size(),
              expected.size())
        << "aliases=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, AliasSweep, ::testing::Values(1, 2, 3, 7));

// ---- MHI window-size sweep --------------------------------------------------

class MhiSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MhiSweep, StoreRetrieveAcrossWindowSizes) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 2;
  cfg.seed = 3000 + GetParam();
  Deployment d = Deployment::create(cfg);
  cipher::Drbg rng(to_bytes("mhi-sweep"));
  d.pdevice->collect_mhi(
      generate_mhi_window("2011-04-12", GetParam(), rng));
  std::vector<std::string> extra;
  ASSERT_TRUE(
      d.pdevice->try_store_mhi(*d.aserver, *d.sserver, "role-x", extra).ok());
  auto key = d.on_duty->try_request_role_key(*d.aserver, "role-x");
  ASSERT_TRUE(key.ok());
  auto got = d.on_duty
                 ->try_retrieve_mhi(*d.sserver, "role-x", key.value(),
                                    "day:2011-04-12")
                 .value_or({});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].samples.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, MhiSweep,
                         ::testing::Values(0, 1, 16, 300));

}  // namespace
}  // namespace hcpp::core
