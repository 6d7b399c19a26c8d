// Parser robustness: every deserializer must reject arbitrary byte soup by
// throwing or returning an error — never by crashing or accepting. This is
// the defensive surface an untrusted network exposes, down to the real
// S-server handlers behind SServer::dispatch.
#include <gtest/gtest.h>

#include <set>

#include "src/be/broadcast.h"
#include "src/cipher/aead.h"
#include "src/cipher/drbg.h"
#include "src/common/serialize.h"
#include "src/core/messages.h"
#include "src/core/record.h"
#include "src/core/setup.h"
#include "src/curve/params.h"
#include "src/ibc/hibc.h"
#include "src/ibc/ibe.h"
#include "src/ibc/ibs.h"
#include "src/peks/peks.h"
#include "src/sse/dynamic.h"
#include "src/sse/sse.h"
#include "study/sse/adaptive.h"

namespace hcpp {
namespace {

const curve::CurveCtx& ctx() { return curve::params(curve::ParamSet::kTest); }

// Every parser applied to one blob; none may crash, UB-trip or hang.
void feed(BytesView blob) {
  auto swallow = [](auto&& fn) {
    try {
      fn();
    } catch (const std::exception&) {
      // rejection is the expected outcome
    }
  };
  swallow([&] { (void)curve::point_from_bytes(ctx(), blob); });
  swallow([&] { (void)curve::point_from_bytes_compressed(ctx(), blob); });
  swallow([&] { (void)ibc::IbeCiphertext::from_bytes(ctx(), blob); });
  swallow([&] { (void)ibc::IbeCcaCiphertext::from_bytes(ctx(), blob); });
  swallow([&] { (void)ibc::IbsSignature::from_bytes(ctx(), blob); });
  swallow([&] { (void)ibc::HibcCiphertext::from_bytes(ctx(), blob); });
  swallow([&] { (void)ibc::HibcSignature::from_bytes(ctx(), blob); });
  swallow([&] { (void)peks::PeksCiphertext::from_bytes(ctx(), blob); });
  swallow([&] { (void)peks::Trapdoor::from_bytes(ctx(), blob); });
  swallow([&] { (void)sse::SecureIndex::from_bytes(blob); });
  swallow([&] { (void)sse::EncryptedCollection::from_bytes(blob); });
  swallow([&] { (void)sse::Keys::from_bytes(blob); });
  swallow([&] { (void)sse::PlainFile::from_bytes(blob); });
  swallow([&] { (void)sse::Trapdoor::from_bytes(blob); });
  swallow([&] { (void)sse::adaptive::AdaptiveIndex::from_bytes(blob); });
  swallow([&] { (void)sse::adaptive::AdaptiveTrapdoor::from_bytes(blob); });
  swallow([&] { (void)be::MemberKeys::from_bytes(blob); });
  swallow([&] { (void)core::KeywordIndex::from_bytes(blob); });
  swallow([&] { (void)core::MhiWindow::from_bytes(blob); });
  swallow([&] { (void)core::StoreRequest::from_wire(blob); });
  swallow([&] { (void)core::RetrieveRequest::from_wire(blob); });
  swallow([&] { (void)core::RetrieveResponse::from_wire(blob); });
  swallow([&] { (void)core::BeBlobRequest::from_wire(blob); });
  swallow([&] { (void)core::BeBlobResponse::from_wire(blob); });
  swallow([&] { (void)core::PrivilegedRetrieveRequest::from_wire(blob); });
  swallow([&] { (void)core::UpdateRequest::from_wire(blob); });
  swallow([&] { (void)core::CompactRequest::from_wire(blob); });
  swallow([&] { (void)core::RevokeRequest::from_wire(blob); });
  swallow([&] { (void)core::EmergencyAuthRequest::from_wire(blob); });
  swallow([&] { (void)core::PasscodeToPhysician::from_wire(blob); });
  swallow([&] { (void)core::PasscodeToPDevice::from_wire(blob); });
  swallow([&] { (void)core::MhiStoreRequest::from_wire(blob); });
  swallow([&] { (void)core::RoleKeyRequest::from_wire(blob); });
  swallow([&] { (void)core::MhiRetrieveRequest::from_wire(blob); });
  swallow([&] { (void)core::MhiRetrieveResponse::from_wire(blob); });
  swallow([&] { (void)core::MhiRegisterRequest::from_wire(blob); });
  swallow([&] { (void)core::MhiHitsRequest::from_wire(blob); });
  swallow([&] { (void)core::MhiHitsResponse::from_wire(blob); });
  swallow([&] { (void)core::TraceRecord::from_wire(blob); });
  swallow([&] { (void)core::RdRecord::from_wire(blob); });
}

class RandomBlob : public ::testing::TestWithParam<int> {};

TEST_P(RandomBlob, ParsersNeverCrash) {
  cipher::Drbg rng(to_bytes("fuzz-" + std::to_string(GetParam())));
  // A spread of sizes, including empty and "looks almost right" lengths.
  for (size_t size : {0u, 1u, 4u, 8u, 16u, 60u, 64u, 65u, 129u, 512u}) {
    feed(rng.bytes(size));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBlob, ::testing::Range(0, 8));

TEST(TruncationFuzz, EveryPrefixOfValidEncodingsRejectsCleanly) {
  cipher::Drbg rng(to_bytes("fuzz-trunc"));
  ibc::Domain domain(ctx(), rng);
  // Valid encodings of several types.
  std::vector<Bytes> valid;
  valid.push_back(
      ibc::ibe_encrypt(domain.pub(), "id", to_bytes("m"), rng).to_bytes());
  valid.push_back(
      ibc::ibs_sign(ctx(), domain.extract("id"), "id", to_bytes("m"), rng)
          .to_bytes());
  valid.push_back(peks::peks_encrypt(domain.pub(), "r", "kw", rng).to_bytes());
  sse::Keys keys = sse::Keys::generate(rng);
  auto files = core::generate_phi_collection(4, rng);
  valid.push_back(sse::build_index(files, keys, rng).to_bytes());
  valid.push_back(keys.to_bytes());
  for (const Bytes& enc : valid) {
    // Chop at a sampling of prefixes, including off-by-one boundaries.
    for (size_t cut = 0; cut < enc.size();
         cut += std::max<size_t>(1, enc.size() / 23)) {
      feed(BytesView(enc).subspan(0, cut));
    }
  }
}

TEST(MutationFuzz, BitFlippedEncodingsNeverCrash) {
  cipher::Drbg rng(to_bytes("fuzz-flip"));
  ibc::Domain domain(ctx(), rng);
  Bytes enc =
      ibc::ibe_encrypt(domain.pub(), "id", to_bytes("msg"), rng).to_bytes();
  for (size_t i = 0; i < enc.size(); i += 3) {
    Bytes mutated = enc;
    mutated[i] ^= static_cast<uint8_t>(1 + (i % 255));
    feed(mutated);
    // If it still parses, decryption must reject rather than return junk.
    try {
      ibc::IbeCiphertext ct = ibc::IbeCiphertext::from_bytes(ctx(), mutated);
      EXPECT_THROW((void)ibc::ibe_decrypt(ctx(), domain.extract("id"), ct),
                   cipher::AuthError);
    } catch (const std::exception&) {
      // parse-time rejection also fine
    }
  }
}

// A length prefix promising far more elements than the blob could possibly
// hold must be rejected before any allocation happens — a 16-byte message
// must never trigger a multi-gigabyte reserve() (untrusted-length DoS).
TEST(LengthGuard, HugeCountsRejectBeforeAllocating) {
  io::Writer w;
  w.u64(0x0000FFFFFFFFFFFFull);  // SecureIndex: ~2^48 nodes "announced"
  EXPECT_THROW((void)sse::SecureIndex::from_bytes(w.data()),
               std::out_of_range);
  EXPECT_THROW((void)sse::EncryptedCollection::from_bytes(w.data()),
               std::out_of_range);

  io::Writer w32;
  w32.u32(0xFFFFFFFFu);  // u32-counted parsers
  EXPECT_THROW((void)core::KeywordIndex::from_bytes(w32.data()),
               std::out_of_range);
  EXPECT_THROW((void)be::MemberKeys::from_bytes(
                   [] {  // valid u64 index, absurd key count
                     io::Writer x;
                     x.u64(7);
                     x.u32(0xFFFFFFFFu);
                     return x.take();
                   }()),
               std::out_of_range);

  io::Writer mhi;
  mhi.str("day");
  mhi.u32(0xFFFFFFFFu);  // ~4G samples in a 11-byte blob
  EXPECT_THROW((void)core::MhiWindow::from_bytes(mhi.data()),
               std::out_of_range);
}

// A parser that ignores trailing bytes lets two different encodings pass one
// MAC: the receiver re-encodes the body from the parsed fields, so junk after
// the frame or inside the body would be silently dropped.
template <class M>
void expect_strict(const M& m) {
  const Bytes wire = m.to_wire();
  ASSERT_NO_THROW((void)M::from_wire(wire));
  Bytes after_frame = wire;
  after_frame.push_back(0);
  EXPECT_THROW((void)M::from_wire(after_frame), std::exception);
  // One byte appended inside the body, the frame re-encoded around it.
  io::Reader frame(wire);
  Bytes body = frame.bytes();
  body.push_back(0);
  io::Writer w;
  w.bytes(body);
  w.raw(frame.raw(frame.remaining()));
  EXPECT_THROW((void)M::from_wire(w.data()), std::exception);
}

// The same for an encoding a request carries inside one of its fields: the
// handler stores the parsed value, so a byte the parser skipped would be
// silently dropped on re-export.
template <class Parse>
void expect_strict_field(Bytes enc, Parse parse) {
  ASSERT_NO_THROW((void)parse(enc));
  enc.push_back(0);
  EXPECT_THROW((void)parse(enc), std::exception);
}

TEST(StrictParse, ValidEncodingPlusOneByteIsRejected) {
  Bytes mac(32, 0x5A);
  expect_strict(core::StoreRequest{to_bytes("tp"), "c", to_bytes("i"),
                                   to_bytes("f"), to_bytes("d"),
                                   to_bytes("be"), 1, mac});
  expect_strict(core::RetrieveRequest{to_bytes("tp"), "c", {to_bytes("td")},
                                      2, mac});
  expect_strict(core::RetrieveResponse{{{7, to_bytes("blob")}}, 3, mac});
  expect_strict(core::BeBlobRequest{to_bytes("tp"), "c", 4, mac});
  expect_strict(core::BeBlobResponse{to_bytes("be"), 5, mac});
  expect_strict(core::PrivilegedRetrieveRequest{
      to_bytes("tp"), "c", {to_bytes("w")}, 6, mac});
  expect_strict(core::UpdateRequest{to_bytes("tp"),
                                    "c",
                                    {{"label", to_bytes("entry")}},
                                    {{8, to_bytes("blob")}},
                                    {9},
                                    7,
                                    mac});
  expect_strict(core::CompactRequest{to_bytes("tp"), "c", to_bytes("i"), 8,
                                     mac});
  expect_strict(core::RevokeRequest{to_bytes("tp"), "c", to_bytes("s"), 9,
                                    mac});
  expect_strict(core::EmergencyAuthRequest{"dr", to_bytes("tp"), 10,
                                           to_bytes("sig")});
  expect_strict(core::PasscodeToPhysician{to_bytes("enc"), 11,
                                          to_bytes("sig")});
  expect_strict(core::PasscodeToPDevice{"dr", to_bytes("ibe"), 11,
                                        to_bytes("sig"), to_bytes("audit")});
  expect_strict(core::MhiStoreRequest{to_bytes("tp"), "role",
                                      {to_bytes("tag")}, to_bytes("ibe"), 12,
                                      mac});
  expect_strict(core::RoleKeyRequest{"dr", "role", 13, to_bytes("sig")});
  expect_strict(core::MhiRetrieveRequest{"dr", "role", to_bytes("td"), 14,
                                         mac});
  expect_strict(core::MhiRetrieveResponse{{to_bytes("ibe")}, 15, mac});
  expect_strict(core::MhiRegisterRequest{"dr", "role", to_bytes("td"), 16,
                                         mac});
  expect_strict(core::MhiHitsRequest{"dr", "role", 17, mac});
  expect_strict(core::MhiHitsResponse{{to_bytes("ibe")}, 18, mac});
  expect_strict(core::TraceRecord{"dr", to_bytes("tp"), 1, 2,
                                  to_bytes("sig")});
  expect_strict(core::RdRecord{"dr", to_bytes("tp"), {"kw"}, 2,
                               to_bytes("sig")});

  cipher::Drbg rng(to_bytes("strict-fields"));
  ibc::Domain domain(ctx(), rng);
  sse::Keys keys = sse::Keys::generate(rng);
  auto files = core::generate_phi_collection(2, rng);
  sse::UpdateLog log;
  log.entries["label"] = to_bytes("entry");
  expect_strict_field(sse::build_index(files, keys, rng).to_bytes(),
                      sse::SecureIndex::from_bytes);
  expect_strict_field(sse::encrypt_collection(files, keys, rng).to_bytes(),
                      sse::EncryptedCollection::from_bytes);
  expect_strict_field(log.to_bytes(), sse::UpdateLog::from_bytes);
  expect_strict_field(
      peks::peks_encrypt(domain.pub(), "r", "kw", rng).to_bytes(),
      [](BytesView b) { return peks::PeksCiphertext::from_bytes(ctx(), b); });
  expect_strict_field(
      ibc::ibe_encrypt(domain.pub(), "id", to_bytes("m"), rng).to_bytes(),
      [](BytesView b) { return ibc::IbeCiphertext::from_bytes(ctx(), b); });
  expect_strict_field(
      ibc::ibe_encrypt_cca(domain.pub(), "id", to_bytes("m"), rng).to_bytes(),
      [](BytesView b) { return ibc::IbeCcaCiphertext::from_bytes(ctx(), b); });
}

// ---- Mutated wire bytes through the real handlers -------------------------

struct Recorded {
  std::string_view label;
  Bytes wire;
};

template <class Req>
Recorded record(Req req, BytesView key) {
  req.mac = core::protocol_mac(key, Req::kLabel, req.body(), req.t);
  return {Req::kLabel, req.to_wire()};
}

TEST(WireSweep, MutatedRequestsAreRejectedWithoutSideEffects) {
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 2;
  cfg.keywords_per_file = 1;
  cfg.file_content_bytes = 32;
  core::Deployment d = core::Deployment::create(cfg);
  core::SServer& server = *d.sserver;
  const core::Patient& pt = *d.patient;
  cipher::Drbg rng(to_bytes("wire-sweep"));
  const uint64_t t = d.net->clock().now();
  const Bytes nu = pt.shared_key_nu();
  const Bytes tp = pt.tp_bytes();
  const sse::Keys& keys = pt.keys();
  const std::string alias = core::keyword_alias(d.all_keywords().front(), 0);
  const Bytes td = sse::make_trapdoor(keys, alias).to_bytes();

  // Role side of §IV.E.2: ρ = ê(Γr, PK_S) for an extracted role key.
  const std::string role = "2026-10-17|er|north";
  const curve::Point role_key = d.aserver->domain().extract(role);
  const Bytes rho =
      ibc::shared_key_with_id(d.aserver->ctx(), role_key, server.service_id());
  const Bytes peks_td =
      peks::peks_trapdoor(d.aserver->ctx(), role_key, "vitals").to_bytes();

  // One request of every S-server exchange, in an order in which each
  // original is valid once its mutations have been swept.
  const Bytes d_new = rng.bytes(32);
  io::Writer rekey;
  rekey.bytes(d_new);
  rekey.bytes(rng.bytes(48));
  std::vector<Recorded> reqs;
  reqs.push_back(record(
      core::StoreRequest{
          tp, pt.collection(),
          sse::build_index(pt.files(), keys, rng).to_bytes(),
          sse::encrypt_collection(pt.files(), keys, rng).to_bytes(), keys.d,
          rng.bytes(48), t, {}},
      nu));
  reqs.push_back(
      record(core::RetrieveRequest{tp, pt.collection(), {td}, t, {}}, nu));
  sse::LogInsert ins = sse::Updater(keys).add(alias, 99);
  reqs.push_back(record(core::UpdateRequest{tp,
                                            pt.collection(),
                                            {{ins.label, ins.entry}},
                                            {},
                                            {pt.files().front().id},
                                            t,
                                            {}},
                        nu));
  reqs.push_back(record(
      core::CompactRequest{tp, pt.collection(),
                           sse::build_index(pt.files(), keys, rng).to_bytes(),
                           t, {}},
      nu));
  reqs.push_back(record(
      core::RevokeRequest{tp, pt.collection(),
                          cipher::aead_encrypt(nu, rekey.data(), {}, rng), t,
                          {}},
      nu));
  reqs.push_back(record(core::BeBlobRequest{tp, pt.collection(), t, {}}, nu));
  reqs.push_back(record(
      core::PrivilegedRetrieveRequest{
          tp, pt.collection(),
          {sse::wrap_trapdoor(d_new, sse::make_trapdoor(keys, alias))}, t,
          {}},
      nu));
  reqs.push_back(record(
      core::MhiStoreRequest{
          tp, role,
          {peks::peks_encrypt(d.aserver->pub(), role, "vitals", rng)
               .to_bytes()},
          ibc::ibe_encrypt(d.aserver->pub(), role, to_bytes("window"), rng)
              .to_bytes(),
          t, {}},
      nu));
  reqs.push_back(
      record(core::MhiRegisterRequest{"dr-er", role, peks_td, t, {}}, rho));
  reqs.push_back(
      record(core::MhiRetrieveRequest{"dr-er", role, peks_td, t, {}}, rho));
  reqs.push_back(record(core::MhiHitsRequest{"dr-er", role, t, {}}, rho));

  for (const Recorded& r : reqs) {
    ASSERT_LT(r.wire.size(), 4096u) << r.label;
    const Bytes before = server.export_state();
    size_t accepted = 0;
    for (size_t cut = 0; cut < r.wire.size(); ++cut) {
      accepted += server.dispatch(r.label, BytesView(r.wire).first(cut))
                      .has_value();
    }
    for (size_t i = 0; i < r.wire.size(); ++i) {
      Bytes mutated = r.wire;
      mutated[i] ^= 0x01;
      accepted += server.dispatch(r.label, mutated).has_value();
    }
    EXPECT_EQ(accepted, 0u) << r.label;
    EXPECT_EQ(server.export_state(), before) << r.label;
    // The rejected variants left no trace in the replay cache.
    EXPECT_TRUE(server.dispatch(r.label, r.wire).has_value()) << r.label;
    // The accepted original, sent again, is a replay.
    EXPECT_FALSE(server.dispatch(r.label, r.wire).has_value()) << r.label;
  }
}

// Correctly sealed requests whose stored fields carry one byte too many: the
// S-server must refuse them rather than store a value that re-exports
// without the byte.
TEST(WireSweep, StoredFieldWithTrailingByteIsRefused) {
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 2;
  cfg.keywords_per_file = 1;
  cfg.file_content_bytes = 32;
  core::Deployment d = core::Deployment::create(cfg);
  core::SServer& server = *d.sserver;
  const core::Patient& pt = *d.patient;
  cipher::Drbg rng(to_bytes("wire-sweep-trailing"));
  const uint64_t t = d.net->clock().now();
  const std::string role = "2026-10-17|er|north";

  Bytes index = sse::build_index(pt.files(), pt.keys(), rng).to_bytes();
  index.push_back(0);
  Bytes tag =
      peks::peks_encrypt(d.aserver->pub(), role, "vitals", rng).to_bytes();
  tag.push_back(0);
  const Recorded reqs[] = {
      record(core::StoreRequest{pt.tp_bytes(), pt.collection(), index,
                                sse::encrypt_collection(pt.files(), pt.keys(),
                                                        rng)
                                    .to_bytes(),
                                pt.keys().d, rng.bytes(48), t, {}},
             pt.shared_key_nu()),
      record(core::MhiStoreRequest{pt.tp_bytes(), role, {tag},
                                   ibc::ibe_encrypt(d.aserver->pub(), role,
                                                    to_bytes("window"), rng)
                                       .to_bytes(),
                                   t, {}},
             pt.shared_key_nu())};
  const Bytes before = server.export_state();
  for (const Recorded& r : reqs) {
    EXPECT_FALSE(server.dispatch(r.label, r.wire).has_value()) << r.label;
    EXPECT_EQ(server.export_state(), before) << r.label;
  }
}

TEST(WireSweep, UpdateWithOneMalformedInsertIsRefusedWhole) {
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 2;
  cfg.keywords_per_file = 1;
  cfg.file_content_bytes = 32;
  core::Deployment d = core::Deployment::create(cfg);
  core::SServer& server = *d.sserver;
  const core::Patient& pt = *d.patient;
  const std::string alias = core::keyword_alias(d.all_keywords().front(), 0);
  sse::LogInsert good = sse::Updater(pt.keys()).add(alias, 99);

  // MAC-valid, so only the handler's own checks can refuse it.
  Recorded r = record(
      core::UpdateRequest{pt.tp_bytes(),
                          pt.collection(),
                          {{good.label, good.entry}, {"short", Bytes(3)}},
                          {{99, to_bytes("blob")}},
                          {pt.files().front().id},
                          d.net->clock().now(),
                          {}},
      pt.shared_key_nu());
  const Bytes before = server.export_state();
  EXPECT_FALSE(server.dispatch(r.label, r.wire).has_value());
  EXPECT_EQ(server.export_state(), before);
}

// §IV.E.1 message 3 through the wire seam: of five θ_d-wrapped blobs, only
// the two that unwrap under the current d (one static, one dynamic) match;
// garbage, a tampered wrap and a wrap under the pre-REVOKE d match nothing.
TEST(WireSweep, PrivilegedRetrieveAnswersOnlyValidWrappedTrapdoors) {
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 6;
  cfg.file_content_bytes = 32;
  core::Deployment d = core::Deployment::create(cfg);
  core::SServer& server = *d.sserver;
  core::Patient& pt = *d.patient;
  const auto entries = pt.keyword_index().entries;  // static keywords only
  const sse::FileId dyn_id = pt.files().back().id + 1;
  const std::string dyn_kw = "category:dyn-only";
  ASSERT_TRUE(
      pt.try_update_phi(server, {{dyn_id, "dyn", to_bytes("dyn"), {dyn_kw}}})
          .ok());
  const Bytes stale_d = pt.keys().d;
  ASSERT_TRUE(pt.try_revoke_member(server, core::kPDeviceSlot).ok());
  const Bytes d_now = pt.keys().d;
  ASSERT_NE(d_now, stale_d);

  // The static keyword's files, and a keyword reaching a file outside them
  // for the blobs that must not match.
  const std::string static_kw = entries.begin()->first;
  std::set<sse::FileId> want(entries.begin()->second.begin(),
                             entries.begin()->second.end());
  std::string other_kw;
  for (const auto& [kw, ids] : entries) {
    for (sse::FileId id : ids) {
      if (!want.contains(id)) other_kw = kw;
    }
  }
  ASSERT_FALSE(other_kw.empty());
  want.insert(dyn_id);

  sse::TrapdoorGen gen(pt.keys());
  sse::Updater up(pt.keys(), pt.update_state());
  Bytes tampered =
      sse::wrap_trapdoor(d_now, gen.make(core::keyword_alias(other_kw, 0)));
  tampered[7] ^= 0x01;
  const Bytes nu = pt.shared_key_nu();
  core::PrivilegedRetrieveRequest req{
      pt.tp_bytes(),
      pt.collection(),
      {sse::wrap_trapdoor(d_now, gen.make(core::keyword_alias(static_kw, 0))),
       sse::wrap_dyn_trapdoor(d_now,
                              up.trapdoor(core::keyword_alias(dyn_kw, 0))),
       Bytes(17, 0xab), tampered,
       sse::wrap_trapdoor(stale_d,
                          gen.make(core::keyword_alias(other_kw, 0)))},
      d.net->clock().now(),
      {}};
  ASSERT_EQ(req.wrapped_trapdoors[1].size(), sse::kDynTrapdoorSize);
  Recorded r = record(req, nu);
  std::optional<Bytes> reply = server.dispatch(r.label, r.wire);
  ASSERT_TRUE(reply.has_value());
  core::RetrieveResponse resp = core::RetrieveResponse::from_wire(*reply);
  EXPECT_TRUE(core::protocol_mac_ok(nu, r.label, resp.body(), resp.t,
                                    resp.mac));
  std::set<sse::FileId> got;
  for (const auto& [id, blob] : resp.files) got.insert(id);
  EXPECT_EQ(got, want);

  // The same request for a collection the pseudonym does not hold.
  req.collection = "no-such-collection";
  Recorded unknown = record(req, nu);
  EXPECT_FALSE(server.dispatch(unknown.label, unknown.wire).has_value());
}

}  // namespace
}  // namespace hcpp
