// S-server durable state: export/import round trips, with the protocols
// still working against the restored server.
#include <gtest/gtest.h>

#include "src/common/serialize.h"
#include "src/core/setup.h"
#include "src/hash/sha256.h"

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

// A fixed-seed server holding MHI windows in two roles, several tags each,
// and one window whose tags mix both PEKS variants (sent as a hand-sealed
// MhiStoreRequest, since the P-device's encoder emits kBdop only).
Deployment with_shelved_mhi() {
  DeploymentConfig cfg;
  cfg.n_phi_files = 6;
  cfg.seed = 96;
  Deployment d = Deployment::create(cfg);
  cipher::Drbg rng(to_bytes("persist-pinned-mhi"));
  for (const char* day : {"2011-04-12", "2011-04-13"}) {
    d.pdevice->collect_mhi(generate_mhi_window(day, 12, rng));
  }
  const std::vector<std::string> extra = {"vitals:hr-high", "vitals:bp-high"};
  for (const char* role : {"2011-04-12|er|gnv", "2011-04-13|icu|gnv"}) {
    EXPECT_TRUE(
        d.pdevice->try_store_mhi(*d.aserver, *d.sserver, role, extra).ok());
  }
  const std::string role = "2011-04-13|icu|gnv";
  MhiStoreRequest req;
  req.tp = d.patient->tp_bytes();
  req.role_id = role;
  req.peks_tags = {
      peks::peks_encrypt(d.aserver->pub(), role, "day:2011-04-13", rng,
                         peks::Variant::kRandomized)
          .to_bytes(),
      peks::peks_encrypt(d.aserver->pub(), role, "vitals:spo2-low", rng,
                         peks::Variant::kBdop)
          .to_bytes()};
  req.ibe_blob = ibc::ibe_encrypt(d.aserver->pub(), role,
                                  to_bytes("hand-sealed window"), rng)
                     .to_bytes();
  seal(req, d.sserver->shared_key_for(req.tp), req.kLabel,
       d.net->clock().now());
  EXPECT_TRUE(d.sserver->handle_mhi_store(req));
  EXPECT_EQ(d.sserver->mhi_entry_count(), 5u);
  return d;
}

// Pins the v2 state bytes: any change to how accounts or MHI windows are
// held must leave export_state() byte-identical.
TEST(Persistence, ExportedStateBytesArePinned) {
  Deployment d = with_shelved_mhi();
  const Bytes state = d.sserver->export_state();
  EXPECT_EQ(hex_encode(hash::sha256_bytes(state)),
            "f2fe549062db58e95d5d398580c7edc313b305ad3dcf58f5504686cf27057dd1");
  // The same bytes survive an import into a fresh server.
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.import_state(state));
  EXPECT_EQ(restored.export_state(), state);
}

TEST(Persistence, RejectsBadInput) {
  Deployment d = with_mhi(92);
  const Bytes state = d.sserver->export_state();
  // The server rejecting the blobs already holds accounts and MHI windows.
  Deployment target = with_shelved_mhi();
  SServer& server = *target.sserver;
  const Bytes before = server.export_state();
  ASSERT_GT(server.account_count(), 0u);
  ASSERT_GT(server.mhi_entry_count(), 0u);
  auto rejected_untouched = [&](BytesView blob, const char* what) {
    EXPECT_FALSE(server.import_state(blob)) << what;
    EXPECT_EQ(server.export_state(), before) << what;
  };
  rejected_untouched(to_bytes("garbage"), "garbage");
  rejected_untouched(Bytes{}, "empty");
  Bytes wrong_version = state;
  wrong_version[0] = 99;
  rejected_untouched(wrong_version, "wrong version");
  rejected_untouched(BytesView(state).subspan(0, state.size() / 2),
                     "truncation");
  Bytes padded = state;
  padded.push_back(0);
  rejected_untouched(padded, "trailing junk");
  // A valid account part whose MHI tail holds one window with a malformed
  // PEKS tag (its point's format byte is corrupted).
  DeploymentConfig cfg;
  cfg.n_phi_files = 4;
  cfg.seed = 97;
  Deployment bare = Deployment::create(cfg);
  Bytes bad_tail = bare.sserver->export_state();
  ASSERT_GE(bad_tail.size(), 4u);
  bad_tail.resize(bad_tail.size() - 4);  // drop the empty MHI list
  io::Writer w;
  w.u32(1);  // one window
  w.str("2011-04-12|er|gnv");
  w.u32(1);  // one tag
  cipher::Drbg rng(to_bytes("persist-bad-tag"));
  Bytes tag = peks::peks_encrypt(bare.aserver->pub(), "2011-04-12|er|gnv",
                                 "day:2011-04-12", rng)
                  .to_bytes();
  tag[5] ^= 0xff;  // the point's format byte, after u8 variant + u32 length
  w.bytes(tag);
  w.bytes(to_bytes("blob"));
  Bytes tail = w.take();
  bad_tail.insert(bad_tail.end(), tail.begin(), tail.end());
  rejected_untouched(bad_tail, "malformed PEKS tag");
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
