// §IV.E emergency flows: family-based and P-device-based retrieval, access
// control (on-duty check, passcode), fail-open, the §VI.A alerting
// countermeasure, and the A-server's refusal of replayed or forged
// authentication requests.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/cluster.h"
#include "src/core/setup.h"
#include "src/obs/metrics.h"
#include "src/sim/transport.h"

namespace hcpp::core {
namespace {

DeploymentConfig small_config(uint64_t seed) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 10;
  cfg.seed = seed;
  return cfg;
}

cipher::Drbg test_rng(std::string_view tag) {
  return cipher::Drbg(to_bytes(tag));
}

TEST(FamilyEmergency, RetrievesMatchingFiles) {
  Deployment d = Deployment::create(small_config(1));
  const KeywordIndex& ki = d.patient->keyword_index();
  const auto& [kw, expected] = *ki.entries.begin();
  std::vector<std::string> kws = {kw};
  std::vector<sse::PlainFile> got =
      d.family->try_emergency_retrieve(*d.sserver, kws).value_or({});
  std::vector<sse::FileId> got_ids;
  for (const sse::PlainFile& f : got) got_ids.push_back(f.id);
  std::sort(got_ids.begin(), got_ids.end());
  std::vector<sse::FileId> want = expected;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got_ids, want);
}

TEST(FamilyEmergency, FourMessagesOnTheWire) {
  Deployment d = Deployment::create(small_config(2));
  d.net->reset_stats();
  std::vector<std::string> kws = {d.all_keywords().front()};
  (void)d.family->try_emergency_retrieve(*d.sserver, kws);
  uint64_t total = d.net->stats("emergency-be-request").messages +
                   d.net->stats("emergency-privileged-retrieval").messages;
  EXPECT_EQ(total, 4u);  // §IV.E.1's four-message exchange
}

TEST(FamilyEmergency, WithoutBundleReturnsNothing) {
  Deployment d = Deployment::create(small_config(3));
  Family stranger(*d.net, "stranger");
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(
      stranger.try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
}

TEST(PDeviceEmergency, FullFlowSucceeds) {
  Deployment d = Deployment::create(small_config(4));
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  std::vector<sse::PlainFile> got =
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({});
  EXPECT_FALSE(got.empty());
  // RD was recorded and the patient got an alert.
  ASSERT_EQ(d.pdevice->records().size(), 1u);
  EXPECT_EQ(d.pdevice->records()[0].physician_id, d.on_duty->id());
  EXPECT_EQ(d.pdevice->records()[0].keywords, kws);
  EXPECT_EQ(d.pdevice->alert_count(), 1);
  // TR was recorded at the A-server.
  ASSERT_EQ(d.aserver->traces().size(), 1u);
  EXPECT_EQ(d.aserver->traces()[0].physician_id, d.on_duty->id());
}

// Pins the §V.B.3 operation count of one P-device emergency (button to
// records) at 16 pairings, whichever mix of one-shot, fixed-argument and
// multi-pairing evaluations carries them; with identities warm, no H1(ID)
// is hashed again. The curve work around the pairings is pinned too.
TEST(PDeviceEmergency, SixteenPairingsAndNoHashToPointWhenWarm) {
  Deployment d = Deployment::create(small_config(14));
  std::vector<std::string> kws = {d.all_keywords().front()};
  auto emergency = [&] {
    d.pdevice->press_emergency_button();
    auto pass =
        d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
    ASSERT_TRUE(pass.ok());
    ASSERT_TRUE(
        d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
    ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
    Result<std::vector<sse::PlainFile>> got =
        d.pdevice->try_emergency_retrieve(*d.sserver, kws);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.value().empty());
  };
  emergency();  // warms the identity and pseudonym memos
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  emergency();
  obs::attach(previous);
  EXPECT_EQ(reg.counter(obs::kPairing) + reg.counter(obs::kPairingFixed) +
                reg.counter(obs::kPairingProductTerms),
            16u);
  EXPECT_EQ(reg.counter(obs::kHashToPoint), 0u);
  EXPECT_GT(reg.counter(obs::kH1MemoHits), 0u);
  EXPECT_EQ(reg.counter(obs::kH1MemoMisses), 0u);
  // Around the pairings: 13 final exponentiations, 5 point multiplications
  // (the 4 IBS signatures' W from fixed-base tables, the passcode IBE's
  // r·P) and 18 field inversions. A per-signature table build would add an
  // inversion per signature.
  EXPECT_EQ(reg.counter(obs::kFinalExp) + reg.counter(obs::kFinalExpBatched),
            13u);
  EXPECT_EQ(reg.counter(obs::kPointMul), 5u);
  EXPECT_EQ(reg.counter(obs::kFieldInv), 18u);
}

TEST(PDeviceEmergency, OffDutyPhysicianDenied) {
  Deployment d = Deployment::create(small_config(5));
  d.pdevice->press_emergency_button();
  auto pass =
      d.off_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  EXPECT_FALSE(pass.ok());
  EXPECT_TRUE(d.aserver->traces().empty());
}

TEST(PDeviceEmergency, UnknownPhysicianDenied) {
  Deployment d = Deployment::create(small_config(6));
  // Enrolled in the domain but never signed in as on duty.
  Physician mallory(*d.net, *d.aserver, "dr-mallory");
  d.pdevice->press_emergency_button();
  Result<Physician::PasscodeResult> pass =
      mallory.try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_FALSE(pass.ok());
  EXPECT_EQ(pass.error().code, ErrorCode::kRejected);
}

TEST(PDeviceEmergency, WrongPasscodeRejectedAndBurnsAttempt) {
  Deployment d = Deployment::create(small_config(7));
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  Bytes wrong = pass.value().nonce;
  wrong[0] ^= 1;
  EXPECT_FALSE(d.pdevice->enter_passcode(d.on_duty->id(), wrong));
  // The passcode is one-shot: even the right value fails now.
  EXPECT_FALSE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
}

TEST(PDeviceEmergency, PasscodeBoundToPhysicianIdentity) {
  Deployment d = Deployment::create(small_config(8));
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  // A different physician typing the stolen nonce is rejected.
  EXPECT_FALSE(d.pdevice->enter_passcode("dr-off-duty", pass.value().nonce));
}

TEST(PDeviceEmergency, RequiresEmergencyMode) {
  Deployment d = Deployment::create(small_config(9));
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  // Button never pressed: the device ignores the delivery.
  EXPECT_FALSE(
      d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
}

TEST(PDeviceEmergency, SessionIsOneShot) {
  Deployment d = Deployment::create(small_config(10));
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_FALSE(
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
  // Second retrieval without a fresh passcode fails.
  EXPECT_TRUE(
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
}

TEST(PDeviceEmergency, NonDictionaryKeywordsFiltered) {
  Deployment d = Deployment::create(small_config(11));
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  std::vector<std::string> kws = {"not-in-dictionary",
                                  d.all_keywords().front()};
  std::vector<sse::PlainFile> got =
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({});
  EXPECT_FALSE(got.empty());
  // The RD records only the dictionary-validated keyword.
  ASSERT_EQ(d.pdevice->records().size(), 1u);
  EXPECT_EQ(d.pdevice->records()[0].keywords,
            std::vector<std::string>{d.all_keywords().front()});
}

TEST(PDeviceEmergency, RevokedDeviceFailsOpenClosed) {
  // §VI.A: patient notices the loss and revokes; the stolen device can still
  // obtain passcodes but the S-server rejects its stale-d trapdoors.
  Deployment d = Deployment::create(small_config(12));
  ASSERT_TRUE(d.patient->try_revoke_member(*d.sserver, kPDeviceSlot).ok());
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({}).empty());
}

TEST(AServerFailover, ReplicaServesWhenPrimaryIsDown) {
  // §VI.D: the A-server role split across local offices; the transport dials
  // the next office automatically when one is DoS'd. Replicas share the
  // domain, so the passcode a replica issues still decrypts at the P-device.
  sim::Network net;
  cipher::Drbg rng(to_bytes("failover"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 3, rng);
  cluster.set_on_duty("dr-er", true);

  SServer sserver(net, cluster.replica(0), "hosp");
  Patient patient(net, "pat", rng);
  patient.setup(cluster.replica(0), "hosp");
  patient.add_files(generate_phi_collection(6, patient.rng()));
  ASSERT_TRUE(patient.try_store_phi(sserver).ok());
  PDevice pdevice(net, "pdev", rng);
  Bytes mu = rng.bytes(32);
  ASSERT_TRUE(assign_privilege(patient, pdevice, mu));
  Physician er(net, cluster.replica(0), "dr-er");

  // Attack: offices 0 and 1 go down. Keep the per-office budget small so
  // the failover walk is quick.
  cluster.set_up(0, false);
  cluster.set_up(1, false);
  sim::RetryPolicy quick;
  quick.max_attempts = 2;
  net.transport().set_policy(quick);

  pdevice.press_emergency_button();
  size_t office = 99;
  Result<Physician::PasscodeResult> pass =
      er.try_request_passcode(cluster, patient.tp_bytes(), &office);
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(office, 2u);
  ASSERT_TRUE(pdevice.deliver_passcode(cluster.replica(office),
                                       pass.value().for_device));
  ASSERT_TRUE(pdevice.enter_passcode("dr-er", pass.value().nonce));
  std::vector<std::string> kws = {
      patient.keyword_index().dictionary().front()};
  EXPECT_FALSE(
      pdevice.try_emergency_retrieve(sserver, kws).value_or({}).empty());
  // The trace landed at the replica and the cluster-wide view finds it.
  EXPECT_EQ(cluster.all_traces().size(), 1u);
  EXPECT_EQ(cluster.all_traces()[0].physician_id, "dr-er");
}

TEST(AServerFailover, ReplicasShareDutyRegistry) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("failover-duty"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 3, rng);
  cluster.set_on_duty("dr-x", true);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.replica(i).is_on_duty("dr-x"));
  }
  cluster.set_on_duty("dr-x", false);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_FALSE(cluster.replica(i).is_on_duty("dr-x"));
  }
}

TEST(PDeviceEmergency, FailOpenWhenFamilyAbsent) {
  // The fail-open requirement (§III.C): the P-device path succeeds with no
  // patient and no family participation at all.
  Deployment d = Deployment::create(small_config(13));
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  std::vector<std::string> all = d.all_keywords();
  std::vector<sse::PlainFile> got =
      d.pdevice->try_emergency_retrieve(*d.sserver, all).value_or({});
  EXPECT_EQ(got.size(), d.patient->files().size());
}

// ---- AServer::handle_emergency_auth ---------------------------------------

EmergencyAuthRequest make_auth_request(Deployment& d, const std::string& id,
                                       cipher::Drbg& rng, uint64_t t_offset) {
  EmergencyAuthRequest req;
  req.physician_id = id;
  req.tp = d.patient->tp_bytes();
  req.t = d.net->clock().now() + t_offset;
  req.sig = ibc::ibs_sign(d.aserver->ctx(), d.aserver->provision(id), id,
                          req.body(), rng)
                .to_bytes();
  return req;
}

TEST(EmergencyAuthReplay, ResentOrForgedRequestAppendsNoTrace) {
  Deployment d = Deployment::create(small_config(19));
  cipher::Drbg rng = test_rng("auth-replay");
  const size_t traces_before = d.aserver->traces().size();

  EmergencyAuthRequest ok = make_auth_request(d, d.on_duty->id(), rng, 0);
  std::optional<AServer::EmergencyAuthOutcome> got =
      d.aserver->handle_emergency_auth(ok);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(d.aserver->handle_emergency_auth(ok).has_value());  // replay
  EmergencyAuthRequest bad_sig = make_auth_request(d, d.on_duty->id(), rng, 1);
  bad_sig.sig[4] ^= 1;
  EXPECT_FALSE(d.aserver->handle_emergency_auth(bad_sig).has_value());
  EXPECT_EQ(d.aserver->traces().size(), traces_before + 1);

  // The accepted outcome drives the real passcode flow.
  d.pdevice->press_emergency_button();
  EXPECT_TRUE(d.pdevice->deliver_passcode(*d.aserver, got->to_pdevice));
}

TEST(EmergencyAuthReplay, PaddedSignatureIsNotAFreshRequest) {
  // The replay cache keys on the raw signature bytes, so a signature with
  // bytes appended must not decode: otherwise a re-sent request would pass
  // as fresh and append a second trace.
  Deployment d = Deployment::create(small_config(21));
  cipher::Drbg rng = test_rng("auth-padded");
  const size_t traces_before = d.aserver->traces().size();

  EmergencyAuthRequest first = make_auth_request(d, d.on_duty->id(), rng, 0);
  ASSERT_TRUE(d.aserver->handle_emergency_auth(first).has_value());
  EmergencyAuthRequest padded = first;
  padded.sig.push_back(0x00);
  EXPECT_FALSE(d.aserver->handle_emergency_auth(padded).has_value());
  EXPECT_EQ(d.aserver->traces().size(), traces_before + 1);
}

}  // namespace
}  // namespace hcpp::core
