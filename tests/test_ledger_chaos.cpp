// Ledger chaos suite: checkpoint anchoring driven over an adversarial
// network (seeded drops/duplication, partitions cut mid-anchoring) plus
// crash-mid-append recovery. The invariants: an epoch anchors exactly once
// no matter how many times the wire or the caller retries, a conflicting
// re-presentation yields recorded divergence evidence instead of a second
// anchor, and recovery replays to a prefix the last anchor still verifies.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/core/accountability.h"
#include "src/core/setup.h"
#include "src/par/pool.h"
#include "src/sim/transport.h"
#include "tests/temp_path.h"

namespace hcpp::core {
namespace {

namespace lg = hcpp::ledger;

DeploymentConfig small_config(uint64_t seed) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = seed;
  return cfg;
}

sim::FaultPlan lossy_plan(uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.default_faults.drop = 0.20;
  plan.default_faults.duplicate = 0.10;
  return plan;
}

struct LedgerFixture {
  Deployment d;
  explicit LedgerFixture(uint64_t seed)
      : d(Deployment::create(small_config(seed))) {}

  // One full P-device emergency retrieval: appends one TR trace to the
  // A-server's ledger and one RD record to the P-device's.
  void run_emergency() {
    std::vector<std::string> kws = {d.all_keywords().front()};
    d.pdevice->press_emergency_button();
    auto pass =
        d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
    ASSERT_TRUE(pass.ok());
    ASSERT_TRUE(
        d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
    ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
    (void)d.pdevice->try_emergency_retrieve(*d.sserver, kws);
  }

  lg::AnchorOutcome anchor_traces(uint64_t epoch) {
    return lg::anchor_epoch(d.aserver->trace_ledger(), *d.anchors,
                            d.net->transport(), d.aserver->id(), epoch,
                            d.net->clock().now());
  }
};

TEST(LedgerChaos, EmergencyFeedsLedgersAndNotifications) {
  LedgerFixture f(60);
  f.run_emergency();
  // Both accountability artifacts landed in their hash chains…
  EXPECT_EQ(f.d.aserver->trace_ledger().size(), 1u);
  EXPECT_EQ(f.d.pdevice->rd_ledger().size(), 1u);
  EXPECT_TRUE(f.d.aserver->trace_ledger().verify_chain().ok());
  EXPECT_TRUE(f.d.pdevice->rd_ledger().verify_chain().ok());
  // …and the patient's alert stream saw the access.
  ASSERT_EQ(f.d.pdevice->rd_ledger().pending_notifications(), 1u);
  std::vector<lg::Notification> alerts =
      f.d.pdevice->rd_ledger().drain_notifications();
  EXPECT_EQ(alerts[0].event.actor_id, "dr-on-duty");
  EXPECT_EQ(f.d.pdevice->rd_ledger().pending_notifications(), 0u);
}

TEST(LedgerChaos, AnchorExactlyOnceUnderLossAndDuplication) {
  LedgerFixture f(61);
  f.run_emergency();
  f.d.net->set_fault_plan(lossy_plan(161));

  lg::AnchorOutcome out = f.anchor_traces(/*epoch=*/0);
  ASSERT_TRUE(out.anchored) << out.detail;
  lg::Ledger& led = f.d.aserver->trace_ledger();
  ASSERT_EQ(led.anchors().size(), 1u);
  // Full hospital → state → federal signature chain, in order, all valid.
  std::vector<std::string> expected = lg::default_anchor_authorities();
  EXPECT_TRUE(lg::verify_anchor_sigs(f.d.anchors->pub(), led.anchors()[0],
                                     expected));
  // However many wire duplicates the plan injected, no authority recorded a
  // conflicting statement.
  EXPECT_TRUE(f.d.anchors->divergence_log().empty());

  // Re-driving the same epoch is a no-op, not a second anchor.
  lg::AnchorOutcome again = f.anchor_traces(/*epoch=*/0);
  EXPECT_TRUE(again.anchored);
  EXPECT_EQ(led.anchors().size(), 1u);
}

TEST(LedgerChaos, PartitionMidAnchorIsTransientThenIdempotent) {
  LedgerFixture f(62);
  f.run_emergency();
  const uint64_t count_at_pin = f.d.aserver->trace_ledger().size();

  // Sever the link to the state registry for a minute from before the drive
  // starts: the hospital level signs, the state level never answers.
  sim::Clock& clock = f.d.net->clock();
  const uint64_t heal_at = clock.now() + 60'000'000'000ull;
  f.d.net->add_partition(
      {f.d.aserver->id(), "state-anchor", clock.now(), heal_at});
  lg::AnchorOutcome cut = f.anchor_traces(/*epoch=*/0);
  EXPECT_FALSE(cut.anchored);
  EXPECT_FALSE(cut.divergence);  // transient, retriable — not a refusal
  EXPECT_TRUE(f.d.aserver->trace_ledger().anchors().empty());

  // History moves on while the epoch is stuck — the pinned checkpoint must
  // not move with it.
  f.run_emergency();

  // The outage outlasted both drives; the link heals once it is over.
  ASSERT_LT(clock.now(), heal_at);
  clock.advance(heal_at - clock.now());
  lg::AnchorOutcome healed = f.anchor_traces(/*epoch=*/0);
  ASSERT_TRUE(healed.anchored) << healed.detail;
  lg::Ledger& led = f.d.aserver->trace_ledger();
  ASSERT_EQ(led.anchors().size(), 1u);
  // Exactly-once across the retry: the anchor covers the pinned prefix, the
  // hospital's pre-partition signature was reused (no divergence recorded).
  EXPECT_EQ(led.anchors()[0].cp.count, count_at_pin);
  EXPECT_TRUE(f.d.anchors->divergence_log().empty());
  EXPECT_TRUE(lg::verify_anchor_sigs(f.d.anchors->pub(), led.anchors()[0],
                                     lg::default_anchor_authorities()));

  // The entries appended mid-outage roll into the next epoch.
  lg::AnchorOutcome next = f.anchor_traces(/*epoch=*/1);
  ASSERT_TRUE(next.anchored);
  EXPECT_EQ(led.anchors()[1].cp.count, led.size());
  EXPECT_TRUE(led.verify_against(led.anchors()[1]).ok());
}

TEST(LedgerChaos, ForkAttemptYieldsDivergenceEvidence) {
  LedgerFixture f(63);
  f.run_emergency();
  ASSERT_TRUE(f.anchor_traces(/*epoch=*/0).anchored);

  // A compromised holder rebuilds its history (same ledger id, same epoch,
  // different content) and re-presents it to the hierarchy.
  lg::Ledger forged(f.d.aserver->trace_ledger().id());
  lg::AccessEvent ev = f.d.aserver->trace_ledger().entry(0).event();
  ev.actor_id = "dr-nobody";  // pin the access on someone else
  forged.append(ev);
  lg::Checkpoint conflicting =
      forged.checkpoint_for_epoch(0, f.d.net->clock().now());

  lg::AnchorOutcome out = f.d.anchors->anchor_checkpoint(
      f.d.net->transport(), f.d.aserver->id(), conflicting);
  EXPECT_FALSE(out.anchored);
  EXPECT_TRUE(out.divergence);
  // The refusing authority holds the proof: both statements, side by side.
  std::vector<lg::AnchorAuthority::Divergence> evidence =
      f.d.anchors->divergence_log();
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence[0].epoch, 0u);
  EXPECT_EQ(evidence[0].ledger_id, f.d.aserver->trace_ledger().id());
  EXPECT_NE(evidence[0].accepted_statement, evidence[0].offered_statement);
  EXPECT_EQ(evidence[0].offered_statement, conflicting.statement());
  // The genuine anchor stands; no second one was recorded anywhere.
  EXPECT_EQ(f.d.aserver->trace_ledger().anchors().size(), 1u);
}

TEST(LedgerChaos, CrashMidAppendRecoversToAnchoredPrefix) {
  LedgerFixture f(64);
  std::filesystem::path wal = fresh_temp_path("chaos-wal");
  ASSERT_TRUE(f.d.aserver->trace_ledger().attach_wal(wal.string()));

  f.run_emergency();
  f.run_emergency();
  ASSERT_TRUE(f.anchor_traces(/*epoch=*/0).anchored);
  f.run_emergency();  // one entry past the anchor

  {
    // Power loss mid-append: a frame header whose body never hit the disk.
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    const char torn[] = {'E', 0x00, 0x00, 0x20, 0x00, 0x01};
    out.write(torn, sizeof(torn));
  }

  lg::RecoveryReport rep;
  lg::Ledger back = lg::Ledger::recover(
      wal.string(), f.d.aserver->trace_ledger().id(), &rep);
  EXPECT_TRUE(rep.tail_discarded);
  EXPECT_EQ(rep.entries, 3u);
  EXPECT_EQ(rep.anchors, 1u);
  // The survivor is chain-consistent, reaches past the anchored prefix and
  // matches the live ledger bit for bit.
  ASSERT_NE(back.last_anchor(), nullptr);
  EXPECT_TRUE(back.verify_against(*back.last_anchor()).ok());
  EXPECT_EQ(back.head_hash(), f.d.aserver->trace_ledger().head_hash());
  std::filesystem::remove(wal);
}

TEST(LedgerChaos, FullLedgerAuditPassesUnderChaosAndCatchesForks) {
  LedgerFixture f(65);
  f.run_emergency();
  f.d.net->set_fault_plan(lossy_plan(165));
  ASSERT_TRUE(f.anchor_traces(/*epoch=*/0).anchored);
  ASSERT_TRUE(lg::anchor_epoch(f.d.pdevice->rd_ledger(), *f.d.anchors,
                               f.d.net->transport(), f.d.pdevice->id(),
                               /*epoch=*/0, f.d.net->clock().now())
                  .anchored);

  std::vector<std::string> all = f.d.all_keywords();
  std::set<std::string> permitted(all.begin(), all.end());
  std::vector<std::string> expected = lg::default_anchor_authorities();

  LedgerAuditReport report = audit_ledgers(
      f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->trace_ledger(),
      f.d.pdevice->rd_ledger(), expected, permitted);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.anchors_ok);
  EXPECT_EQ(report.bad_proofs, 0u);
  EXPECT_GE(report.proofs_checked, 2u);
  EXPECT_EQ(report.records.accountable,
            std::vector<std::string>{"dr-on-duty"});

  // Now audit a truncated presentation of the same anchored history.
  lg::Ledger cut = lg::Ledger::from_entries(
      f.d.aserver->trace_ledger().id(), {});
  for (const auto& a : f.d.aserver->trace_ledger().anchors()) {
    cut.record_anchor(a);
  }
  LedgerAuditReport bad = audit_ledgers(
      f.d.aserver->pub(), f.d.aserver->id(), cut, f.d.pdevice->rd_ledger(),
      expected, permitted);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.trace_chain.defect, lg::ChainVerdict::Defect::kTruncated);
}

TEST(LedgerChaos, AnchorVerificationRejectsBadCountersignatures) {
  LedgerFixture f(66);
  f.run_emergency();
  ASSERT_TRUE(f.anchor_traces(/*epoch=*/0).anchored);
  const lg::Ledger& tr = f.d.aserver->trace_ledger();
  const lg::AnchoredCheckpoint good = tr.anchors()[0];
  ASSERT_EQ(good.sigs.size(), 3u);
  const ibc::PublicParams& pub = f.d.aserver->pub();
  const curve::CurveCtx& ctx = *pub.ctx;
  std::vector<std::string> expected = lg::default_anchor_authorities();
  std::vector<std::string> all = f.d.all_keywords();
  std::set<std::string> permitted(all.begin(), all.end());
  par::ThreadPool pool(2, "anchor-verify");

  std::vector<std::pair<std::string, lg::AnchoredCheckpoint>> bad;
  {
    lg::AnchoredCheckpoint a = good;
    a.sigs[1].sig[63] ^= 0x01;  // low byte of the challenge v
    bad.emplace_back("challenge byte flipped", std::move(a));
  }
  {
    lg::AnchoredCheckpoint a = good;
    ibc::IbsSignature sig = ibc::IbsSignature::from_bytes(ctx, a.sigs[2].sig);
    sig.v = mp::U512{};
    a.sigs[2].sig = sig.to_bytes();
    bad.emplace_back("zero challenge", std::move(a));
  }
  {
    lg::AnchoredCheckpoint a = good;
    std::swap(a.sigs[0], a.sigs[1]);
    bad.emplace_back("authorities swapped", std::move(a));
  }
  {
    lg::AnchoredCheckpoint a = good;
    std::swap(a.sigs[0].sig, a.sigs[1].sig);
    bad.emplace_back("signatures swapped between authorities", std::move(a));
  }
  {
    lg::AnchoredCheckpoint a = good;
    a.sigs.pop_back();
    bad.emplace_back("signature missing", std::move(a));
  }

  EXPECT_TRUE(lg::verify_anchor_sigs(pub, good, expected, nullptr));
  EXPECT_TRUE(lg::verify_anchor_sigs(pub, good, expected, &pool));
  for (const auto& [what, anchor] : bad) {
    EXPECT_FALSE(lg::verify_anchor_sigs(pub, anchor, expected, nullptr))
        << what;
    EXPECT_FALSE(lg::verify_anchor_sigs(pub, anchor, expected, &pool)) << what;
    lg::Ledger presented = lg::Ledger::from_entries(tr.id(), tr.entries());
    presented.record_anchor(anchor);
    LedgerAuditReport serial =
        audit_ledgers(pub, f.d.aserver->id(), presented,
                      f.d.pdevice->rd_ledger(), expected, permitted, nullptr);
    LedgerAuditReport pooled =
        audit_ledgers(pub, f.d.aserver->id(), presented,
                      f.d.pdevice->rd_ledger(), expected, permitted, &pool);
    EXPECT_FALSE(serial.anchors_ok) << what;
    EXPECT_FALSE(pooled.anchors_ok) << what;
    EXPECT_FALSE(serial.ok()) << what;
    // Only the anchor is bad: the chain and record tiers still pass.
    EXPECT_TRUE(serial.trace_chain.ok()) << what;
    EXPECT_EQ(serial.records.inconsistencies(), 0u) << what;
  }
}

}  // namespace
}  // namespace hcpp::core
