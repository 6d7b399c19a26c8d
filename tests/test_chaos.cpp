// Chaos suite: full HCPP flows over an adversarial network — seeded loss,
// duplication, corruption, partitions and node outages. The invariants:
// protocols complete via retries/failover whenever completion is possible,
// server-side effects happen exactly once, callers see *typed* failures when
// success is impossible, and a fault-plan seed replays the identical trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>

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

/// The acceptance-criterion plan: 20% loss + 10% duplication on every link.
sim::FaultPlan lossy_plan(uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.default_faults.drop = 0.20;
  plan.default_faults.duplicate = 0.10;
  return plan;
}

std::vector<sse::FileId> ids_of(const std::vector<sse::PlainFile>& files) {
  std::vector<sse::FileId> out;
  for (const sse::PlainFile& f : files) out.push_back(f.id);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Chaos, StoreAndRetrieveCompleteUnderLossAndDuplication) {
  Deployment d = Deployment::create(small_config(1));
  d.net->set_fault_plan(lossy_plan(21));

  // Re-upload under chaos (idempotent: same account is replaced), then
  // search for every keyword.
  Result<void> stored = d.patient->try_store_phi(*d.sserver);
  ASSERT_TRUE(stored.ok());
  const KeywordIndex& ki = d.patient->keyword_index();
  const auto& [kw, expected] = *ki.entries.begin();
  std::vector<std::string> kws = {kw};
  Result<std::vector<sse::PlainFile>> got =
      d.patient->try_retrieve(*d.sserver, kws);
  ASSERT_TRUE(got.ok());
  std::vector<sse::FileId> want = expected;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(ids_of(got.value()), want);

  // The chaos actually bit: some attempt somewhere was retried.
  sim::DeliveryStats total = d.net->transport().total();
  EXPECT_GT(total.attempts, total.requests);
  EXPECT_EQ(total.gave_up, 0u);
}

TEST(Chaos, FamilyEmergencyCompletesUnderLossAndDuplication) {
  Deployment d = Deployment::create(small_config(2));
  d.net->set_fault_plan(lossy_plan(22));
  std::vector<std::string> kws = {d.all_keywords().front()};
  Result<std::vector<sse::PlainFile>> got =
      d.family->try_emergency_retrieve(*d.sserver, kws);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().empty());
}

TEST(Chaos, PDeviceEmergencyCompletesUnderLossAndDuplication) {
  Deployment d = Deployment::create(small_config(3));
  d.net->set_fault_plan(lossy_plan(23));
  d.pdevice->press_emergency_button();
  Result<Physician::PasscodeResult> pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.ok());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  Result<std::vector<sse::PlainFile>> got =
      d.pdevice->try_emergency_retrieve(*d.sserver, kws);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().empty());
  // Retries never double-book the accountability state.
  EXPECT_EQ(d.aserver->trace_ledger().size(), 1u);
  EXPECT_EQ(d.pdevice->rd_ledger().size(), 1u);
  EXPECT_EQ(d.pdevice->alert_count(), 1);
}

TEST(Chaos, RetriesCauseNoDuplicateServerSideEffects) {
  Deployment d = Deployment::create(small_config(4));
  d.net->set_fault_plan(lossy_plan(24));
  ASSERT_TRUE(d.patient->try_store_phi(*d.sserver).ok());
  // However many times the wire saw the upload, one account exists.
  EXPECT_EQ(d.sserver->account_count(), 1u);
  ASSERT_TRUE(d.patient->try_revoke_member(*d.sserver, kFamilySlot).ok());
  // After REVOKE the family is out — deterministically, not sometimes.
  std::vector<std::string> kws = {d.all_keywords().front()};
  Result<std::vector<sse::PlainFile>> r =
      d.family->try_emergency_retrieve(*d.sserver, kws);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kRevoked);
}

struct Trace {
  std::vector<uint32_t> attempts;
  sim::DeliveryStats total;
  bool operator==(const Trace&) const = default;
};

Trace run_traced_workload(uint64_t fault_seed) {
  Deployment d = Deployment::create(small_config(5));
  d.net->set_fault_plan(lossy_plan(fault_seed));
  Trace t;
  Result<void> stored = d.patient->try_store_phi(*d.sserver);
  t.attempts.push_back(stored.ok() ? 0 : stored.error().attempts);
  std::vector<std::string> kws = {d.all_keywords().front()};
  Result<std::vector<sse::PlainFile>> got =
      d.patient->try_retrieve(*d.sserver, kws);
  t.attempts.push_back(got.ok() ? 0 : got.error().attempts);
  (void)d.family->try_emergency_retrieve(*d.sserver, kws);
  t.total = d.net->transport().total();
  return t;
}

TEST(Chaos, SameFaultSeedReplaysTheIdenticalTrace) {
  Trace a = run_traced_workload(77);
  Trace b = run_traced_workload(77);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.total, b.total);
  ASSERT_GT(a.total.requests, 0u);
}

TEST(Chaos, TotalLossYieldsTypedTransientFailure) {
  Deployment d = Deployment::create(small_config(6));
  sim::FaultPlan plan;
  plan.default_faults.drop = 1.0;
  d.net->set_fault_plan(plan);
  std::vector<std::string> kws = {d.all_keywords().front()};
  Result<std::vector<sse::PlainFile>> r =
      d.patient->try_retrieve(*d.sserver, kws);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.error().transient());
  EXPECT_EQ(r.error().code, ErrorCode::kTimeout);
  EXPECT_EQ(r.error().attempts,
            d.net->transport().policy().max_attempts);
  Result<void> s = d.patient->try_store_phi(*d.sserver);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.error().transient());
}

TEST(Chaos, MissingPrivilegeIsTypedPermanentFailure) {
  Deployment d = Deployment::create(small_config(7));
  Family stranger(*d.net, "stranger");
  std::vector<std::string> kws = {d.all_keywords().front()};
  Result<std::vector<sse::PlainFile>> r =
      stranger.try_emergency_retrieve(*d.sserver, kws);
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.error().transient());
  EXPECT_EQ(r.error().code, ErrorCode::kPrecondition);
}

// ---- Replicated storage (§VI.D) ---------------------------------------------

struct GroupRig {
  sim::Network net;
  cipher::Drbg rng{to_bytes("group-rig")};
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  std::unique_ptr<AServer> authority;
  std::unique_ptr<SServerGroup> group;
  std::unique_ptr<Patient> patient;
  std::unique_ptr<Family> family;
  Bytes mu;

  explicit GroupRig(size_t replicas) {
    authority = std::make_unique<AServer>(net, ctx, "state-a", rng);
    group = std::make_unique<SServerGroup>(net, *authority, "hosp", replicas);
    patient = std::make_unique<Patient>(net, "pat", rng);
    patient->setup(*authority, group->service_id());
    patient->add_files(generate_phi_collection(6, patient->rng()));
    family = std::make_unique<Family>(net, "fam");
    mu = rng.bytes(32);
  }
};

TEST(StorageFailover, UploadMirrorsToEveryReplica) {
  GroupRig rig(3);
  Result<size_t> stored = rig.patient->try_store_phi(*rig.group);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value(), 3u);
  for (size_t i = 0; i < rig.group->size(); ++i) {
    EXPECT_EQ(rig.group->replica(i).account_count(), 1u);
  }
}

TEST(StorageFailover, ReadsFailOverToTheNextReplica) {
  GroupRig rig(3);
  ASSERT_TRUE(rig.patient->try_store_phi(*rig.group).ok());
  rig.group->set_up(0, false);
  std::vector<std::string> kws = {
      rig.patient->keyword_index().dictionary().front()};
  Result<std::vector<sse::PlainFile>> got =
      rig.patient->try_retrieve(*rig.group, kws);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().empty());
}

TEST(StorageFailover, EmergencyFailsOverUnderChaosToo) {
  GroupRig rig(3);
  ASSERT_TRUE(rig.patient->try_store_phi(*rig.group).ok());
  ASSERT_TRUE(assign_privilege(*rig.patient, *rig.family, rig.mu));
  rig.group->set_up(0, false);
  sim::FaultPlan plan = lossy_plan(31);
  rig.net.set_fault_plan(plan);
  std::vector<std::string> kws = {
      rig.patient->keyword_index().dictionary().front()};
  Result<std::vector<sse::PlainFile>> got =
      rig.family->try_emergency_retrieve(*rig.group, kws);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().empty());
}

TEST(StorageFailover, AllReplicasDownIsTypedUnreachable) {
  GroupRig rig(2);
  ASSERT_TRUE(rig.patient->try_store_phi(*rig.group).ok());
  rig.group->set_up(0, false);
  rig.group->set_up(1, false);
  std::vector<std::string> kws = {
      rig.patient->keyword_index().dictionary().front()};
  Result<std::vector<sse::PlainFile>> got =
      rig.patient->try_retrieve(*rig.group, kws);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.error().transient());
  EXPECT_EQ(got.error().code, ErrorCode::kUnreachable);
}

TEST(StorageFailover, LaggingReplicaCatchesUpViaSync) {
  GroupRig rig(3);
  rig.group->set_up(2, false);  // replica 2 misses the upload
  Result<size_t> stored = rig.patient->try_store_phi(*rig.group);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value(), 2u);
  EXPECT_EQ(rig.group->replica(2).account_count(), 0u);
  rig.group->set_up(2, true);
  ASSERT_TRUE(rig.group->sync_replicas());
  EXPECT_EQ(rig.group->replica(2).account_count(), 1u);
  // The recovered replica serves reads on its own.
  std::vector<std::string> kws = {
      rig.patient->keyword_index().dictionary().front()};
  Result<std::vector<sse::PlainFile>> got =
      rig.patient->try_retrieve(rig.group->replica(2), kws);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().empty());
}

TEST(StorageFailover, SyncSourcesFromAReplicaThatSawTheWrites) {
  GroupRig rig(3);
  // Replica 0 is out for the whole run by FaultPlan downtime, which the
  // group's own set_up never hears about.
  sim::FaultPlan plan;
  plan.downtime[rig.group->replica(0).id()] = {{0, UINT64_MAX}};
  rig.net.set_fault_plan(plan);
  Result<size_t> stored = rig.patient->try_store_phi(*rig.group);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value(), 2u);
  // The catch-up copies from a replica that applied the upload; exporting
  // replica 0's empty state would wipe both fresh replicas.
  ASSERT_TRUE(rig.group->sync_replicas());
  EXPECT_EQ(rig.group->replica(0).account_count(), 0u);
  EXPECT_EQ(rig.group->replica(1).account_count(), 1u);
  EXPECT_EQ(rig.group->replica(2).account_count(), 1u);
}

TEST(StorageFailover, RevokeFansOutToAllReplicas) {
  GroupRig rig(2);
  ASSERT_TRUE(rig.patient->try_store_phi(*rig.group).ok());
  ASSERT_TRUE(assign_privilege(*rig.patient, *rig.family, rig.mu));
  Result<size_t> revoked =
      rig.patient->try_revoke_member(*rig.group, kFamilySlot);
  ASSERT_TRUE(revoked.ok());
  EXPECT_EQ(revoked.value(), 2u);
  // Every replica now rejects the revoked member.
  std::vector<std::string> kws = {
      rig.patient->keyword_index().dictionary().front()};
  for (size_t i = 0; i < rig.group->size(); ++i) {
    Result<std::vector<sse::PlainFile>> r =
        rig.family->try_emergency_retrieve(rig.group->replica(i), kws);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kRevoked);
  }
}

/// Attaches a private registry for one test body, restoring the previous
/// attachment even when an ASSERT bails out early.
struct ScopedRegistry {
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  ScopedRegistry() { obs::attach(&reg); }
  ~ScopedRegistry() { obs::attach(previous); }
};

TEST(StorageFailover, PartitionFailoverCountersMatchDeliveryStats) {
  GroupRig rig(3);
  ASSERT_TRUE(rig.patient->try_store_phi(*rig.group).ok());
  ScopedRegistry scoped;
  rig.net.transport().reset_stats();

  // Permanently partition the patient from replica 0; a short retry budget
  // makes the walk past the unreachable replica quick.
  sim::FaultPlan plan;
  plan.seed = 41;
  plan.partitions.push_back(
      {"pat", rig.group->replica(0).id(), 0, UINT64_MAX});
  rig.net.set_fault_plan(plan);
  sim::RetryPolicy quick;
  quick.max_attempts = 2;
  rig.net.transport().set_policy(quick);

  std::vector<std::string> kws = {
      rig.patient->keyword_index().dictionary().front()};
  Result<std::vector<sse::PlainFile>> got =
      rig.patient->try_retrieve(*rig.group, kws);
  ASSERT_TRUE(got.ok());

  // The registry's transport counters are the same numbers DeliveryStats
  // accumulated, and the group failover count explains every exhausted
  // replica: one abandoned request (replica 0, behind the partition), one
  // failover, then success on replica 1.
  sim::DeliveryStats t = rig.net.transport().total();
  obs::Snapshot s = scoped.reg.snapshot();
  EXPECT_EQ(s.counter(obs::kTransportRequests), t.requests);
  EXPECT_EQ(s.counter(obs::kTransportAttempts), t.attempts);
  EXPECT_EQ(s.counter(obs::kTransportRetries), t.retries);
  EXPECT_EQ(s.counter(obs::kTransportGaveUp), t.gave_up);
  EXPECT_GT(t.retries, 0u);
  EXPECT_EQ(t.gave_up, 1u);
  EXPECT_EQ(s.counter(obs::kSGroupFailover), t.gave_up);
  EXPECT_EQ(s.counter(obs::kTransportSucceeded), 1u);
  // The partition surfaced in the substrate accounting too.
  EXPECT_GT(s.counter(obs::kNetUnreachable), 0u);
}
/// One run of every StorageTarget protocol — store, update, retrieve, both
/// emergency retrievals, revoke, then retrieve and store against the downed
/// holder — on a hospital that is a lone S-server (no placement) or a group
/// of one replica. Each outcome is rendered as text for comparison.
struct OneHolderRun {
  std::vector<std::string> outcomes;
  sim::TrafficStats traffic;
  obs::Snapshot counters;
};

template <class T>
std::string outcome(const Result<T>& r) {
  if (!r.ok()) {
    return std::string("error ") + to_string(r.error().code) + " x" +
           std::to_string(r.error().attempts);
  }
  if constexpr (std::is_same_v<T, size_t>) {
    return "applied " + std::to_string(r.value());
  } else {
    return "files " + ::testing::PrintToString(ids_of(r.value()));
  }
}

OneHolderRun run_one_holder(
    std::optional<SServerGroup::Placement> placement) {
  ScopedRegistry scoped;
  sim::Network net;
  cipher::Drbg rng(to_bytes("one-holder"));
  AServer authority(net, curve::params(curve::ParamSet::kTest), "state-a",
                    rng);
  authority.set_on_duty("dr-er", true);
  std::unique_ptr<SServer> lone;
  std::unique_ptr<SServerGroup> group;
  if (placement.has_value()) {
    group = std::make_unique<SServerGroup>(net, authority, "hosp", 1,
                                           *placement);
  } else {
    lone = std::make_unique<SServer>(net, authority, "hosp");
  }
  StorageTarget storage = group ? StorageTarget(*group) : StorageTarget(*lone);
  SServer& holder = group ? group->replica(0) : *lone;

  Patient patient(net, "pat", rng);
  patient.setup(authority, "hosp");
  patient.add_files(generate_phi_collection(6, patient.rng()));
  Family family(net, "fam");
  PDevice pdevice(net, "pdev", rng);
  Physician er(net, authority, "dr-er");

  OneHolderRun run;
  std::vector<std::string>& out = run.outcomes;
  out.push_back(outcome(patient.try_store_phi(storage)));
  EXPECT_TRUE(assign_privilege(patient, family, rng.bytes(32)));
  EXPECT_TRUE(assign_privilege(patient, pdevice, rng.bytes(32)));
  std::vector<std::string> kws = {
      patient.keyword_index().dictionary().front()};
  out.push_back(outcome(patient.try_update_phi(
      storage, {{99, "note", to_bytes("follow-up"), {kws.front()}}})));
  out.push_back(outcome(patient.try_retrieve(storage, kws)));
  out.push_back(outcome(family.try_emergency_retrieve(storage, kws)));
  pdevice.press_emergency_button();
  Result<Physician::PasscodeResult> pass =
      er.try_request_passcode(authority, patient.tp_bytes());
  EXPECT_TRUE(pass.ok());
  EXPECT_TRUE(pass.ok() &&
              pdevice.deliver_passcode(authority, pass.value().for_device) &&
              pdevice.enter_passcode("dr-er", pass.value().nonce));
  out.push_back(outcome(pdevice.try_emergency_retrieve(storage, kws)));
  out.push_back(outcome(patient.try_revoke_member(storage, kFamilySlot)));
  out.push_back(outcome(family.try_emergency_retrieve(storage, kws)));
  net.set_node_up(holder.id(), false);
  out.push_back(outcome(patient.try_retrieve(storage, kws)));
  out.push_back(outcome(patient.try_store_phi(storage)));
  run.traffic = net.total();
  run.counters = scoped.reg.snapshot();
  return run;
}

TEST(StorageFailover, GroupOfOneBehavesLikeALoneServer) {
  const OneHolderRun lone = run_one_holder(std::nullopt);
  ASSERT_EQ(lone.outcomes.size(), 9u);
  EXPECT_EQ(lone.outcomes[0], "applied 1");  // store
  EXPECT_EQ(lone.outcomes[1], "applied 1");  // update
  for (size_t i : {2, 3, 4}) {  // retrieve, family and P-device emergency
    EXPECT_EQ(lone.outcomes[i].rfind("files { ", 0), 0u) << lone.outcomes[i];
  }
  EXPECT_EQ(lone.outcomes[5], "applied 1");  // revoke
  EXPECT_EQ(lone.outcomes[6].rfind("error revoked", 0), 0u);
  // A lone holder that is down answers with its own transport error.
  const std::string timeout = "error timeout x" + std::to_string(
      sim::RetryPolicy{}.max_attempts);
  EXPECT_EQ(lone.outcomes[7], timeout);
  EXPECT_EQ(lone.outcomes[8], timeout);

  for (SServerGroup::Placement placement :
       {SServerGroup::Placement::kReplicated,
        SServerGroup::Placement::kSharded}) {
    const OneHolderRun one = run_one_holder(placement);
    EXPECT_EQ(one.outcomes, lone.outcomes);
    EXPECT_EQ(one.traffic.messages, lone.traffic.messages);
    EXPECT_EQ(one.traffic.bytes, lone.traffic.bytes);
    for (const char* name :
         {obs::kSGroupFailover, obs::kSGroupMirrorWrites, obs::kSGroupSync}) {
      EXPECT_EQ(one.counters.counter(name), 0u) << name;
    }
  }
}

// ---- Replicated authority (§VI.D) -------------------------------------------

TEST(AuthorityFailover, TransportRetriesTheNextOfficeAutomatically) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("auth-failover"));
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

  cluster.set_up(0, false);  // DoS'd office; no polling by the caller
  // Shrink the per-office retry budget so the failover is quick.
  sim::RetryPolicy quick;
  quick.max_attempts = 2;
  net.transport().set_policy(quick);

  size_t office = 99;
  pdevice.press_emergency_button();
  Result<Physician::PasscodeResult> pass =
      er.try_request_passcode(cluster, patient.tp_bytes(), &office);
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(office, 1u);  // the transport walked past the dead office
  ASSERT_TRUE(
      pdevice.deliver_passcode(cluster.replica(office), pass.value().for_device));
  ASSERT_TRUE(pdevice.enter_passcode("dr-er", pass.value().nonce));
  std::vector<std::string> kws = {
      patient.keyword_index().dictionary().front()};
  EXPECT_FALSE(
      pdevice.try_emergency_retrieve(sserver, kws).value_or({}).empty());
  EXPECT_EQ(cluster.all_traces().size(), 1u);
}

TEST(AuthorityFailover, AllOfficesDownIsTypedUnreachable) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("auth-down"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 2, rng);
  cluster.set_on_duty("dr-er", true);
  Physician er(net, cluster.replica(0), "dr-er");
  Patient patient(net, "pat", rng);
  patient.setup(cluster.replica(0), "hosp");
  cluster.set_up(0, false);
  cluster.set_up(1, false);
  sim::RetryPolicy quick;
  quick.max_attempts = 2;
  net.transport().set_policy(quick);
  Result<Physician::PasscodeResult> pass =
      er.try_request_passcode(cluster, patient.tp_bytes(), nullptr);
  ASSERT_FALSE(pass.ok());
  EXPECT_TRUE(pass.error().transient());
  EXPECT_EQ(pass.error().code, ErrorCode::kUnreachable);
}

TEST(AuthorityFailover, OffDutyRefusalIsNotRetriedAcrossOffices) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("auth-offduty"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 3, rng);
  Physician off(net, cluster.replica(0), "dr-off");  // never on duty
  Patient patient(net, "pat", rng);
  patient.setup(cluster.replica(0), "hosp");
  net.transport().reset_stats();
  Result<Physician::PasscodeResult> pass =
      off.try_request_passcode(cluster, patient.tp_bytes(), nullptr);
  ASSERT_FALSE(pass.ok());
  EXPECT_FALSE(pass.error().transient());
  // The first office's refusal was authoritative: exactly one request went
  // out; the cluster was not polled office-by-office.
  EXPECT_EQ(net.transport().total().requests, 1u);
}

}  // namespace
}  // namespace hcpp::core
