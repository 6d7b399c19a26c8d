// §IV.E.2 MHI: role-encrypted storage with PEKS tags, role-key extraction
// gated on duty status, keyword-scoped retrieval.
#include <gtest/gtest.h>

#include "src/core/setup.h"

namespace hcpp::core {
namespace {

constexpr const char* kRole = "2011-04-12|emergency|gainesville";

struct MhiFixture {
  Deployment d;
  explicit MhiFixture(uint64_t seed)
      : d(Deployment::create([seed] {
          DeploymentConfig cfg;
          cfg.n_phi_files = 4;
          cfg.seed = seed;
          return cfg;
        }())) {
    cipher::Drbg rng(to_bytes("mhi-gen-" + std::to_string(seed)));
    d.pdevice->collect_mhi(generate_mhi_window("2011-04-12", 120, rng, 0.1));
    d.pdevice->collect_mhi(generate_mhi_window("2011-04-11", 120, rng, 0.0));
    std::vector<std::string> extra = {"patient-risk:cardiac"};
    EXPECT_TRUE(
        d.pdevice->try_store_mhi(*d.aserver, *d.sserver, kRole, extra).ok());
  }
};

TEST(Mhi, GeneratorInjectsAnomalies) {
  cipher::Drbg rng(to_bytes("mhi-anom"));
  MhiWindow win = generate_mhi_window("d", 1000, rng, 0.2);
  size_t anomalies = 0;
  for (const MhiSample& s : win.samples) {
    if (s.anomaly) {
      ++anomalies;
      EXPECT_GT(s.heart_rate_bpm, 120);
    } else {
      EXPECT_LT(s.heart_rate_bpm, 100);
    }
  }
  EXPECT_GT(anomalies, 100u);
  EXPECT_LT(anomalies, 320u);
}

TEST(Mhi, WindowSerializationRoundTrip) {
  cipher::Drbg rng(to_bytes("mhi-ser"));
  MhiWindow win = generate_mhi_window("2011-04-12", 50, rng);
  MhiWindow back = MhiWindow::from_bytes(win.to_bytes());
  EXPECT_EQ(back.day, win.day);
  ASSERT_EQ(back.samples.size(), win.samples.size());
  EXPECT_DOUBLE_EQ(back.samples[7].heart_rate_bpm,
                   win.samples[7].heart_rate_bpm);
  EXPECT_EQ(back.samples[7].anomaly, win.samples[7].anomaly);
}

TEST(Mhi, OnDutyPhysicianRetrievesByDay) {
  MhiFixture f(20);
  auto role_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kRole);
  ASSERT_TRUE(role_key.ok());
  std::vector<MhiWindow> got =
      f.d.on_duty
          ->try_retrieve_mhi(*f.d.sserver, kRole, role_key.value(),
                             "day:2011-04-12")
          .value_or({});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].day, "2011-04-12");
  // The decrypted window carries usable vitals.
  EXPECT_EQ(got[0].samples.size(), 120u);
}

TEST(Mhi, SharedExtraKeywordMatchesAllWindows) {
  MhiFixture f(21);
  auto role_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kRole);
  ASSERT_TRUE(role_key.ok());
  std::vector<MhiWindow> got =
      f.d.on_duty
          ->try_retrieve_mhi(*f.d.sserver, kRole, role_key.value(),
                             "patient-risk:cardiac")
          .value_or({});
  EXPECT_EQ(got.size(), 2u);
}

TEST(Mhi, NonMatchingKeywordReturnsNothing) {
  MhiFixture f(22);
  auto role_key = f.d.on_duty->try_request_role_key(*f.d.aserver, kRole);
  ASSERT_TRUE(role_key.ok());
  EXPECT_TRUE(f.d.on_duty
                  ->try_retrieve_mhi(*f.d.sserver, kRole, role_key.value(),
                                     "day:2010-01-01")
                  .value_or({})
                  .empty());
}

TEST(Mhi, OffDutyPhysicianDeniedRoleKey) {
  MhiFixture f(23);
  Result<curve::Point> key =
      f.d.off_duty->try_request_role_key(*f.d.aserver, kRole);
  ASSERT_FALSE(key.ok());
  EXPECT_EQ(key.error().code, ErrorCode::kRejected);
}

TEST(Mhi, WrongRoleKeyCannotDecrypt) {
  MhiFixture f(24);
  // On-duty physician extracts a key for a *different* role and tries it.
  auto wrong_key =
      f.d.on_duty->try_request_role_key(*f.d.aserver, "some-other-role");
  ASSERT_TRUE(wrong_key.ok());
  // Trapdoors from the wrong role key match nothing server-side.
  EXPECT_TRUE(f.d.on_duty
                  ->try_retrieve_mhi(*f.d.sserver, kRole, wrong_key.value(),
                                     "day:2011-04-12")
                  .value_or({})
                  .empty());
}

TEST(Mhi, ServerStoresOnlyCiphertext) {
  MhiFixture f(25);
  EXPECT_EQ(f.d.sserver->mhi_entry_count(), 2u);
  // The plaintext vitals never reached the server: its stored bytes are all
  // IBE blobs + PEKS tags; decrypting requires Γr which only the A-server
  // can extract. (Behavioural check: a fresh physician without the role key
  // gets nothing useful.)
  Physician intruder(*f.d.net, *f.d.aserver, "dr-intruder");
  curve::Point bogus = curve::generator(f.d.aserver->ctx());
  EXPECT_TRUE(
      intruder.try_retrieve_mhi(*f.d.sserver, kRole, bogus, "day:2011-04-12")
          .value_or({})
          .empty());
}

// The reply's windows are decrypted as one batch under Γr: a tampered blob
// among valid ones drops only its own window, and the rest keep their order.
TEST(Mhi, TamperedBlobDropsOnlyItsWindow) {
  Deployment d = Deployment::create([] {
    DeploymentConfig cfg;
    cfg.n_phi_files = 4;
    cfg.seed = 27;
    return cfg;
  }());
  cipher::Drbg rng(to_bytes("mhi-tamper"));
  std::vector<std::string> days;
  for (int i = 1; i <= 6; ++i) {
    days.push_back("2011-04-0" + std::to_string(i));
    d.pdevice->collect_mhi(generate_mhi_window(days.back(), 20, rng));
  }
  std::vector<std::string> extra = {"patient-risk:cardiac"};
  ASSERT_TRUE(
      d.pdevice->try_store_mhi(*d.aserver, *d.sserver, kRole, extra).ok());
  MhiStreamHub::Shelf shelf = d.sserver->mhi_hub().shelf();
  std::vector<Bytes>& blobs = shelf.roles.at(kRole).blobs;
  ASSERT_EQ(blobs.size(), days.size());
  blobs[2].back() ^= 1;  // the AEAD tag of the third window
  d.sserver->mhi_hub().replace_shelf(std::move(shelf));
  days.erase(days.begin() + 2);

  auto role_key = d.on_duty->try_request_role_key(*d.aserver, kRole);
  ASSERT_TRUE(role_key.ok());
  std::vector<MhiWindow> got =
      d.on_duty
          ->try_retrieve_mhi(*d.sserver, kRole, role_key.value(),
                             "patient-risk:cardiac")
          .value_or({});
  ASSERT_EQ(got.size(), days.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].day, days[i]) << "window " << i;
    EXPECT_EQ(got[i].samples.size(), 20u);
  }
}

TEST(Mhi, StoreRequiresBundle) {
  Deployment d = Deployment::create([] {
    DeploymentConfig cfg;
    cfg.n_phi_files = 4;
    cfg.seed = 26;
    cfg.assign_privileges = false;
    return cfg;
  }());
  cipher::Drbg rng(to_bytes("mhi-nobundle"));
  d.pdevice->collect_mhi(generate_mhi_window("2011-04-12", 10, rng));
  std::vector<std::string> extra;
  EXPECT_FALSE(
      d.pdevice->try_store_mhi(*d.aserver, *d.sserver, kRole, extra).ok());
}

}  // namespace
}  // namespace hcpp::core
