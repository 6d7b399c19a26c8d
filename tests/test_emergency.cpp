// §IV.E emergency flows: family-based and P-device-based retrieval, access
// control (on-duty check, passcode), fail-open, and the §VI.A alerting
// countermeasure.
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

TEST(FamilyEmergency, RetrievesMatchingFiles) {
  Deployment d = Deployment::create(small_config(1));
  const KeywordIndex& ki = d.patient->keyword_index();
  const auto& [kw, expected] = *ki.entries.begin();
  std::vector<std::string> kws = {kw};
  std::vector<sse::PlainFile> got = d.family->emergency_retrieve(*d.sserver,
                                                                 kws);
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
  (void)d.family->emergency_retrieve(*d.sserver, kws);
  uint64_t total = d.net->stats("emergency-be-request").messages +
                   d.net->stats("emergency-privileged-retrieval").messages;
  EXPECT_EQ(total, 4u);  // §IV.E.1's four-message exchange
}

TEST(FamilyEmergency, WithoutBundleReturnsNothing) {
  Deployment d = Deployment::create(small_config(3));
  Family stranger(*d.net, "stranger");
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(stranger.emergency_retrieve(*d.sserver, kws).empty());
}

TEST(PDeviceEmergency, FullFlowSucceeds) {
  Deployment d = Deployment::create(small_config(4));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  std::vector<sse::PlainFile> got =
      d.pdevice->emergency_retrieve(*d.sserver, kws);
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
// is hashed again.
TEST(PDeviceEmergency, SixteenPairingsAndNoHashToPointWhenWarm) {
  Deployment d = Deployment::create(small_config(14));
  std::vector<std::string> kws = {d.all_keywords().front()};
  auto emergency = [&] {
    d.pdevice->press_emergency_button();
    auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
    ASSERT_TRUE(pass.has_value());
    ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
    ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
    EXPECT_FALSE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
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
}

TEST(PDeviceEmergency, OffDutyPhysicianDenied) {
  Deployment d = Deployment::create(small_config(5));
  d.pdevice->press_emergency_button();
  auto pass = d.off_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  EXPECT_FALSE(pass.has_value());
  EXPECT_TRUE(d.aserver->traces().empty());
}

TEST(PDeviceEmergency, UnknownPhysicianDenied) {
  Deployment d = Deployment::create(small_config(6));
  // Enrolled in the domain but never signed in as on duty.
  Physician mallory(*d.net, *d.aserver, "dr-mallory");
  d.pdevice->press_emergency_button();
  EXPECT_FALSE(
      mallory.request_passcode(*d.aserver, d.patient->tp_bytes()).has_value());
}

TEST(PDeviceEmergency, WrongPasscodeRejectedAndBurnsAttempt) {
  Deployment d = Deployment::create(small_config(7));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  Bytes wrong = pass->nonce;
  wrong[0] ^= 1;
  EXPECT_FALSE(d.pdevice->enter_passcode(d.on_duty->id(), wrong));
  // The passcode is one-shot: even the right value fails now.
  EXPECT_FALSE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
}

TEST(PDeviceEmergency, PasscodeBoundToPhysicianIdentity) {
  Deployment d = Deployment::create(small_config(8));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  // A different physician typing the stolen nonce is rejected.
  EXPECT_FALSE(d.pdevice->enter_passcode("dr-off-duty", pass->nonce));
}

TEST(PDeviceEmergency, RequiresEmergencyMode) {
  Deployment d = Deployment::create(small_config(9));
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  // Button never pressed: the device ignores the delivery.
  EXPECT_FALSE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
}

TEST(PDeviceEmergency, SessionIsOneShot) {
  Deployment d = Deployment::create(small_config(10));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_FALSE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
  // Second retrieval without a fresh passcode fails.
  EXPECT_TRUE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
}

TEST(PDeviceEmergency, NonDictionaryKeywordsFiltered) {
  Deployment d = Deployment::create(small_config(11));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {"not-in-dictionary",
                                  d.all_keywords().front()};
  std::vector<sse::PlainFile> got =
      d.pdevice->emergency_retrieve(*d.sserver, kws);
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
  ASSERT_TRUE(d.patient->revoke_member(*d.sserver, kPDeviceSlot));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
}

TEST(AServerFailover, ReplicaServesWhenPrimaryIsDown) {
  // §VI.D: the A-server role split across local offices; the transport dials
  // the next office automatically when one is DoS'd (no first_available
  // polling). Replicas share the domain, so the passcode a replica issues
  // still decrypts at the P-device.
  sim::Network net;
  cipher::Drbg rng(to_bytes("failover"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 3, rng);
  cluster.set_on_duty("dr-er", true);

  SServer sserver(net, cluster.replica(0), "hosp");
  Patient patient(net, "pat", rng);
  patient.setup(cluster.replica(0), "hosp");
  patient.add_files(generate_phi_collection(6, patient.rng()));
  ASSERT_TRUE(patient.store_phi(sserver));
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
      er.request_passcode(cluster, patient.tp_bytes(), &office);
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(office, 2u);
  ASSERT_TRUE(pdevice.deliver_passcode(cluster.replica(office),
                                       pass.value().for_device));
  ASSERT_TRUE(pdevice.enter_passcode("dr-er", pass.value().nonce));
  std::vector<std::string> kws = {
      patient.keyword_index().dictionary().front()};
  EXPECT_FALSE(pdevice.emergency_retrieve(sserver, kws).empty());
  // The trace landed at the replica and the cluster-wide view finds it.
  EXPECT_EQ(cluster.all_traces().size(), 1u);
  EXPECT_EQ(cluster.all_traces()[0].physician_id, "dr-er");
}

TEST(AServerFailover, AllOfficesDownMeansNoAuthority) {
  // Legacy manual-polling path (deprecated, kept working): first_available
  // still reports outages for callers that have not migrated.
  sim::Network net;
  cipher::Drbg rng(to_bytes("failover-all"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 2, rng);
  cluster.set_up(0, false);
  cluster.set_up(1, false);
  EXPECT_EQ(cluster.first_available(), nullptr);
  cluster.set_up(1, true);
  ASSERT_NE(cluster.first_available(), nullptr);
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
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> all = d.all_keywords();
  std::vector<sse::PlainFile> got =
      d.pdevice->emergency_retrieve(*d.sserver, all);
  EXPECT_EQ(got.size(), d.patient->files().size());
}

}  // namespace
}  // namespace hcpp::core
