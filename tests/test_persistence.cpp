// S-server durable state: export/import and file round-trips, with the
// protocols still working against the restored server.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/core/setup.h"
#include "tests/temp_path.h"

namespace hcpp::core {
namespace {

Deployment with_mhi(uint64_t seed) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = seed;
  Deployment d = Deployment::create(cfg);
  cipher::Drbg rng(to_bytes("persist-mhi-" + std::to_string(seed)));
  d.pdevice->collect_mhi(generate_mhi_window("2011-04-12", 30, rng));
  std::vector<std::string> extra;
  EXPECT_TRUE(d.pdevice->try_store_mhi(*d.aserver, *d.sserver,
                                       "2011-04-12|er|gnv", extra).ok());
  return d;
}

TEST(Persistence, ExportImportRoundTrip) {
  Deployment d = with_mhi(90);
  Bytes state = d.sserver->export_state();
  EXPECT_FALSE(state.empty());

  // A fresh server process for the same hospital identity.
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  EXPECT_EQ(restored.account_count(), 0u);
  ASSERT_TRUE(restored.import_state(state));
  EXPECT_EQ(restored.account_count(), 1u);
  EXPECT_EQ(restored.mhi_entry_count(), 1u);
  EXPECT_EQ(restored.stored_bytes(), d.sserver->stored_bytes());

  // Protocols continue against the restored instance.
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_EQ(d.patient->try_retrieve(restored, kws).value_or({}).size(),
            d.patient->keyword_index().entries.at(kws.front()).size());
  EXPECT_FALSE(
      d.family->try_emergency_retrieve(restored, kws).value_or({}).empty());
  auto role_key =
      d.on_duty->try_request_role_key(*d.aserver, "2011-04-12|er|gnv");
  ASSERT_TRUE(role_key.ok());
  EXPECT_EQ(d.on_duty
                ->try_retrieve_mhi(restored, "2011-04-12|er|gnv",
                                   role_key.value(), "day:2011-04-12")
                .value_or({})
                .size(),
            1u);
}

TEST(Persistence, FileRoundTrip) {
  Deployment d = with_mhi(91);
  std::filesystem::path path = fresh_temp_path("sserver-state.bin");
  ASSERT_TRUE(d.sserver->save_to_file(path.string()));
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.load_from_file(path.string()));
  EXPECT_EQ(restored.account_count(), d.sserver->account_count());
  EXPECT_EQ(restored.mhi_entry_count(), d.sserver->mhi_entry_count());
  std::filesystem::remove(path);
}

TEST(Persistence, RejectsBadInput) {
  Deployment d = with_mhi(92);
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  EXPECT_FALSE(restored.import_state(to_bytes("garbage")));
  EXPECT_FALSE(restored.import_state(Bytes{}));
  Bytes state = d.sserver->export_state();
  // Wrong version byte.
  Bytes wrong_version = state;
  wrong_version[0] = 99;
  EXPECT_FALSE(restored.import_state(wrong_version));
  // Truncation.
  EXPECT_FALSE(restored.import_state(
      BytesView(state).subspan(0, state.size() / 2)));
  // Trailing junk.
  Bytes padded = state;
  padded.push_back(0);
  EXPECT_FALSE(restored.import_state(padded));
  // A failed import leaves the server untouched.
  EXPECT_EQ(restored.account_count(), 0u);
  EXPECT_FALSE(restored.load_from_file("/nonexistent/path/state.bin"));
}

TEST(Persistence, ImportReplacesExistingState) {
  Deployment a = with_mhi(93);
  Deployment b = with_mhi(94);
  Bytes state_a = a.sserver->export_state();
  // Server b adopts a's state wholesale.
  ASSERT_TRUE(b.sserver->import_state(state_a));
  EXPECT_EQ(b.sserver->stored_bytes(), a.sserver->stored_bytes());
  // b's old patient can no longer find their account (it was replaced)...
  std::vector<std::string> kws = {b.all_keywords().front()};
  EXPECT_TRUE(b.patient->try_retrieve(*b.sserver, kws).value_or({}).empty());
}

TEST(Persistence, StateIsAllCiphertext) {
  // The exported blob is exactly what a subpoena would produce; it must not
  // contain plaintext PHI.
  DeploymentConfig cfg;
  cfg.n_phi_files = 4;
  cfg.seed = 95;
  cfg.file_content_bytes = 64;
  Deployment d = Deployment::create(cfg);
  Bytes state = d.sserver->export_state();
  for (const sse::PlainFile& f : d.patient->files()) {
    auto it = std::search(state.begin(), state.end(), f.content.begin(),
                          f.content.begin() + 16);
    EXPECT_EQ(it, state.end());
  }
}

}  // namespace
}  // namespace hcpp::core
