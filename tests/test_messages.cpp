// Wire-message encodings and the protocol MAC helpers.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/core/messages.h"
#include "src/hash/sha256.h"

namespace hcpp::core {
namespace {

TEST(ProtocolMac, RoundTripAndRejection) {
  Bytes key(32, 7);
  Bytes body = to_bytes("payload");
  Bytes mac = protocol_mac(key, "label", body, 42);
  EXPECT_TRUE(protocol_mac_ok(key, "label", body, 42, mac));
  EXPECT_FALSE(protocol_mac_ok(key, "other-label", body, 42, mac));
  EXPECT_FALSE(protocol_mac_ok(key, "label", to_bytes("payloaX"), 42, mac));
  EXPECT_FALSE(protocol_mac_ok(key, "label", body, 43, mac));
  Bytes wrong_key(32, 8);
  EXPECT_FALSE(protocol_mac_ok(wrong_key, "label", body, 42, mac));
}

TEST(ProtocolMac, LabelDomainSeparation) {
  Bytes key(32, 1);
  Bytes body = to_bytes("same-body");
  EXPECT_NE(protocol_mac(key, "phi-storage", body, 1),
            protocol_mac(key, "phi-retrieval", body, 1));
}

TEST(Messages, StoreRequestBodyCoversAllFields) {
  StoreRequest a;
  a.tp = to_bytes("tp");
  a.collection = "c";
  a.index = to_bytes("idx");
  a.files = to_bytes("files");
  a.d = to_bytes("d");
  a.be_blob = to_bytes("be");
  StoreRequest b = a;
  EXPECT_EQ(a.body(), b.body());
  b.be_blob = to_bytes("be2");
  EXPECT_NE(a.body(), b.body());
  b = a;
  b.collection = "c2";
  EXPECT_NE(a.body(), b.body());
}

TEST(Messages, RetrieveRequestBodyOrderSensitive) {
  RetrieveRequest a;
  a.tp = to_bytes("tp");
  a.collection = "c";
  a.trapdoors = {to_bytes("t1"), to_bytes("t2")};
  RetrieveRequest b = a;
  std::swap(b.trapdoors[0], b.trapdoors[1]);
  EXPECT_NE(a.body(), b.body());
}

TEST(Messages, ResponsesBindFileIds) {
  RetrieveResponse a;
  a.files = {{1, to_bytes("blob")}};
  RetrieveResponse b;
  b.files = {{2, to_bytes("blob")}};
  EXPECT_NE(a.body(), b.body());
}

TEST(Messages, PasscodeBodiesBindRecipientContext) {
  PasscodeToPhysician p;
  p.enc_nonce = to_bytes("enc");
  p.t = 9;
  EXPECT_NE(p.body("dr-a", to_bytes("tp")), p.body("dr-b", to_bytes("tp")));
  EXPECT_NE(p.body("dr-a", to_bytes("tp1")), p.body("dr-a", to_bytes("tp2")));

  PasscodeToPDevice q;
  q.physician_id = "dr-a";
  q.ibe_blob = to_bytes("blob");
  q.t = 9;
  EXPECT_NE(q.body(to_bytes("tp1")), q.body(to_bytes("tp2")));
}

TEST(Messages, RdStatementBindsAllThreeFields) {
  Bytes base = rd_statement("dr-a", to_bytes("tp"), 7);
  EXPECT_NE(base, rd_statement("dr-b", to_bytes("tp"), 7));
  EXPECT_NE(base, rd_statement("dr-a", to_bytes("tq"), 7));
  EXPECT_NE(base, rd_statement("dr-a", to_bytes("tp"), 8));
  EXPECT_EQ(base, rd_statement("dr-a", to_bytes("tp"), 7));
}

TEST(Messages, EmergencyAuthRequestBodyIncludesTimestamp) {
  EmergencyAuthRequest a;
  a.physician_id = "dr-a";
  a.tp = to_bytes("tp");
  a.t = 5;
  EmergencyAuthRequest b = a;
  b.t = 6;
  EXPECT_NE(a.body(), b.body());  // the IBS covers t10 => replays detectable
}

TEST(Messages, MhiBodiesCoverTagsAndBlob) {
  MhiStoreRequest a;
  a.tp = to_bytes("tp");
  a.role_id = "role";
  a.peks_tags = {to_bytes("tag1")};
  a.ibe_blob = to_bytes("blob");
  MhiStoreRequest b = a;
  b.peks_tags.push_back(to_bytes("tag2"));
  EXPECT_NE(a.body(), b.body());
  b = a;
  b.ibe_blob = to_bytes("blob2");
  EXPECT_NE(a.body(), b.body());
}

// ---- Layout: one fixed instance of every type -----------------------------

Bytes b(std::string_view s) { return to_bytes(s); }

StoreRequest sample_store() {
  StoreRequest m{b("tp-1"), "phi-main", b("index"), b("files"), b("d-key"),
                 b("be-blob"), 7, Bytes(32, 0xA1)};
  return m;
}
RetrieveRequest sample_retrieve() {
  return {b("tp-1"), "phi-main", {b("td-a"), b("td-b")}, 8, Bytes(32, 0xA2)};
}
RetrieveResponse sample_retrieve_response() {
  return {{{1, b("blob-1")}, {9, b("blob-9")}}, 9, Bytes(32, 0xA3)};
}
BeBlobRequest sample_be_request() {
  return {b("tp-1"), "phi-main", 10, Bytes(32, 0xA4)};
}
BeBlobResponse sample_be_response() {
  return {b("be-blob"), 11, Bytes(32, 0xA5)};
}
PrivilegedRetrieveRequest sample_privileged() {
  return {b("tp-1"), "phi-main", {b("w-1"), b("w-2"), b("w-3")}, 12,
          Bytes(32, 0xA6)};
}
UpdateRequest sample_update() {
  return {b("tp-1"),
          "phi-main",
          {{"label-1", b("entry-1")}, {"label-2", b("entry-2")}},
          {{3, b("blob-3")}},
          {4, 5},
          13,
          Bytes(32, 0xA7)};
}
CompactRequest sample_compact() {
  return {b("tp-1"), "phi-main", b("index-2"), 14, Bytes(32, 0xA8)};
}
RevokeRequest sample_revoke() {
  return {b("tp-1"), "phi-main", b("sealed"), 15, Bytes(32, 0xA9)};
}
EmergencyAuthRequest sample_emergency_auth() {
  return {"dr-a", b("tp-1"), 16, b("physician-sig")};
}
PasscodeToPhysician sample_to_physician() {
  return {b("enc-nonce"), 17, b("office-sig")};
}
PasscodeToPDevice sample_to_pdevice() {
  return {"dr-a", b("ibe-blob"), 17, b("office-sig"), b("audit-sig")};
}
MhiStoreRequest sample_mhi_store() {
  return {b("tp-1"), "role-1", {b("tag-1"), b("tag-2")}, b("ibe-blob"), 18,
          Bytes(32, 0xAA)};
}
RoleKeyRequest sample_role_key() {
  return {"dr-a", "role-1", 19, b("physician-sig")};
}
MhiRetrieveRequest sample_mhi_retrieve() {
  return {"dr-a", "role-1", b("trapdoor"), 20, Bytes(32, 0xAB)};
}
MhiRetrieveResponse sample_mhi_retrieve_response() {
  return {{b("ibe-1"), b("ibe-2")}, 21, Bytes(32, 0xAC)};
}
MhiRegisterRequest sample_mhi_register() {
  return {"dr-a", "role-1", b("trapdoor"), 22, Bytes(32, 0xAD)};
}
MhiHitsRequest sample_mhi_hits() {
  return {"dr-a", "role-1", 23, Bytes(32, 0xAE)};
}
MhiHitsResponse sample_mhi_hits_response() {
  return {{b("ibe-3")}, 24, Bytes(32, 0xAF)};
}

std::string sha256_hex(BytesView b) {
  return hex_encode(hash::sha256_bytes(b));
}

template <class M>
void expect_round_trip(const M& m) {
  M back = M::from_wire(m.to_wire());
  EXPECT_EQ(back.body(), m.body());
  EXPECT_EQ(back.to_wire(), m.to_wire());
}

TEST(MessageLayout, EveryTypeRoundTripsThroughTheWire) {
  expect_round_trip(sample_store());
  expect_round_trip(sample_retrieve());
  expect_round_trip(sample_retrieve_response());
  expect_round_trip(sample_be_request());
  expect_round_trip(sample_be_response());
  expect_round_trip(sample_privileged());
  expect_round_trip(sample_update());
  expect_round_trip(sample_compact());
  expect_round_trip(sample_revoke());
  expect_round_trip(sample_emergency_auth());
  expect_round_trip(sample_to_physician());
  expect_round_trip(sample_to_pdevice());
  expect_round_trip(sample_mhi_store());
  expect_round_trip(sample_role_key());
  expect_round_trip(sample_mhi_retrieve());
  expect_round_trip(sample_mhi_retrieve_response());
  expect_round_trip(sample_mhi_register());
  expect_round_trip(sample_mhi_hits());
  expect_round_trip(sample_mhi_hits_response());

  // Signed fields survive the trip too (they sit outside the body).
  PasscodeToPDevice dev = PasscodeToPDevice::from_wire(
      sample_to_pdevice().to_wire());
  EXPECT_EQ(dev.sig, sample_to_pdevice().sig);
  EXPECT_EQ(dev.audit_sig, sample_to_pdevice().audit_sig);
  UpdateRequest up = UpdateRequest::from_wire(sample_update().to_wire());
  EXPECT_EQ(up.files_remove, sample_update().files_remove);
  EXPECT_EQ(up.mac, sample_update().mac);
}

template <class M>
void expect_mac_framing(const M& m) {
  // u32 body length + body + u64 timestamp + u32 MAC length + 32-byte MAC.
  EXPECT_EQ(m.to_wire().size(), m.body().size() + 48);
}

TEST(MessageLayout, MacdMessagesFrameBodyTimestampAndMac) {
  expect_mac_framing(sample_store());
  expect_mac_framing(sample_retrieve());
  expect_mac_framing(sample_retrieve_response());
  expect_mac_framing(sample_be_request());
  expect_mac_framing(sample_be_response());
  expect_mac_framing(sample_privileged());
  expect_mac_framing(sample_update());
  expect_mac_framing(sample_compact());
  expect_mac_framing(sample_revoke());
  expect_mac_framing(sample_mhi_store());
  expect_mac_framing(sample_mhi_retrieve());
  expect_mac_framing(sample_mhi_retrieve_response());
  expect_mac_framing(sample_mhi_register());
  expect_mac_framing(sample_mhi_hits());
  expect_mac_framing(sample_mhi_hits_response());
}

TEST(MessageLayout, SignedPasscodeBodiesCoverTheRecipientContext) {
  // The sent body leaves out what the recipient already knows; the signed
  // body puts it back in place.
  PasscodeToPhysician p = sample_to_physician();
  EXPECT_EQ(p.body("dr-a", b("tp-1")).size(),
            p.body().size() + 4 + 4 + 4 + 4);
  PasscodeToPDevice q = sample_to_pdevice();
  EXPECT_EQ(q.body(b("tp-1")).size(), q.body().size() + 4 + 4);
}

// SHA-256 of body() for the instances above, as the hand-written encoders
// produced them before the layouts were declared once: every MAC'd and
// signed body is byte-for-byte unchanged.
TEST(MessageLayout, BodiesMatchGoldenVectors) {
  const std::map<std::string, std::string> golden = {
      {"StoreRequest",
       "7b1a529b1806e135d2350760361090d0823373f06fbc11bbf84bdb3de65fee75"},
      {"RetrieveRequest",
       "094bb8c22f85d5d27b5ffa13c478753ba373bb8686b031095433eb8f4304f0a2"},
      {"RetrieveResponse",
       "b960e99d36b763ebae9aa3f061c1de4e7d0ce9ceee673dde25c9934a5e4c8a58"},
      {"BeBlobRequest",
       "cdcede111a3686244697a35e536c2bf9c8964cbcbf166aa5d73c1f96a9496f61"},
      {"BeBlobResponse",
       "fb54dd30b19abea54e3a7e61aa7a7d9fc5b88a954c3262c060a303e4f194e9ec"},
      {"PrivilegedRetrieveRequest",
       "89d550ca4c56a5ca89a9d9adf39883c7bb97490c8f01d9c82919263681d92f59"},
      {"UpdateRequest",
       "d34e934c240691a8bf020cbc4e5518c42331b8ea249303eb7680d415e4978852"},
      {"CompactRequest",
       "3509dace3746407eb77832c60302455d01023029beac1fa63ea1c4243eec746e"},
      {"RevokeRequest",
       "dd20c11f62e533dd9ae1b51ff6e456e58fa46a952b4d8a7b40b8c4defcc4d5c7"},
      {"EmergencyAuthRequest",
       "5043ac02e994149a86436701f519208504eebb0cae06f47c152b1af80efc4e80"},
      {"PasscodeToPhysician",
       "7dde97cac2316ac05f84110de6abbbee863e7a9c3964879b7c1c70e8a254c544"},
      {"PasscodeToPDevice",
       "6c324b834e5bd4566072f76ba8557faafd1618ff1353c329b682f9484f2a271b"},
      {"MhiStoreRequest",
       "546ccb488c025268e753abc7406af7fefd8ce619e09ec5141183415d94e0f6d0"},
      {"RoleKeyRequest",
       "96ba746e57ccbc86e14058bb054970898397c8d7b9652768e6977881952f9170"},
      {"MhiRetrieveRequest",
       "7d5595b3a947f36679ef6de3b4ad2d13359ae5c0e3968dd7490219ae24a382b4"},
      {"MhiRetrieveResponse",
       "22f3c663195bddd401bee80d55ee9ca444fa4f6a866dddddbca457d5f5ec7ecb"},
      {"MhiRegisterRequest",
       "7d5595b3a947f36679ef6de3b4ad2d13359ae5c0e3968dd7490219ae24a382b4"},
      {"MhiHitsRequest",
       "0bb5bc92bb992e91d022456989d6c19dbb73ed0fe633717d343bb904e5033842"},
      {"MhiHitsResponse",
       "12873ffb0d2b2cf88811e1b84d7ef6dec23bfb76f903fe8deccc85b94fa611ef"},
  };
  const std::map<std::string, Bytes> bodies = {
      {"StoreRequest", sample_store().body()},
      {"RetrieveRequest", sample_retrieve().body()},
      {"RetrieveResponse", sample_retrieve_response().body()},
      {"BeBlobRequest", sample_be_request().body()},
      {"BeBlobResponse", sample_be_response().body()},
      {"PrivilegedRetrieveRequest", sample_privileged().body()},
      {"UpdateRequest", sample_update().body()},
      {"CompactRequest", sample_compact().body()},
      {"RevokeRequest", sample_revoke().body()},
      {"EmergencyAuthRequest", sample_emergency_auth().body()},
      {"PasscodeToPhysician", sample_to_physician().body("dr-a", b("tp-1"))},
      {"PasscodeToPDevice", sample_to_pdevice().body(b("tp-1"))},
      {"MhiStoreRequest", sample_mhi_store().body()},
      {"RoleKeyRequest", sample_role_key().body()},
      {"MhiRetrieveRequest", sample_mhi_retrieve().body()},
      {"MhiRetrieveResponse", sample_mhi_retrieve_response().body()},
      {"MhiRegisterRequest", sample_mhi_register().body()},
      {"MhiHitsRequest", sample_mhi_hits().body()},
      {"MhiHitsResponse", sample_mhi_hits_response().body()},
  };
  ASSERT_EQ(bodies.size(), golden.size());
  for (const auto& [name, body] : bodies) {
    EXPECT_EQ(sha256_hex(body), golden.at(name)) << name;
  }
}

// The encodings that were already carried as bytes (the §VI.B onion paths)
// keep their exact wire form.
TEST(MessageLayout, PreexistingWireFormsMatchGoldenVectors) {
  EXPECT_EQ(sha256_hex(sample_store().to_wire()),
            "53c1e21d1ab25a617ac446d05edbd70f7aa46d854203756238234756d52d46ae");
  EXPECT_EQ(sha256_hex(sample_retrieve().to_wire()),
            "036e87706be5922cd496483fddd12ce2610580d80efaf896dbff0d2f90c63505");
  EXPECT_EQ(sha256_hex(sample_retrieve_response().to_wire()),
            "f92f64abdaff5752fc256ee921688d99c9fb4e8129f32ab74c1fb5bf100acd8b");
}

}  // namespace
}  // namespace hcpp::core
