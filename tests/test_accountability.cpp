// §V.A accountability: the TR and RD ledgers' events, the cross-check audit,
// detection of forged or tampered events and of over-broad searches.
#include <gtest/gtest.h>

#include "src/core/setup.h"

namespace hcpp::core {
namespace {

using ledger::AccessEvent;

struct AuditFixture {
  Deployment d;
  explicit AuditFixture(uint64_t seed)
      : d(Deployment::create([seed] {
          DeploymentConfig cfg;
          cfg.n_phi_files = 8;
          cfg.seed = seed;
          return cfg;
        }())) {}

  // Runs one full P-device emergency retrieval searching `kws`, by the
  // on-duty physician unless `doc` names another.
  void run_emergency(std::span<const std::string> kws,
                     Physician* doc = nullptr) {
    Physician& physician = doc != nullptr ? *doc : *d.on_duty;
    d.pdevice->press_emergency_button();
    auto pass =
        physician.try_request_passcode(*d.aserver, d.patient->tp_bytes());
    ASSERT_TRUE(pass.ok());
    ASSERT_TRUE(
        d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
    ASSERT_TRUE(d.pdevice->enter_passcode(physician.id(), pass.value().nonce));
    (void)d.pdevice->try_emergency_retrieve(*d.sserver, kws);
  }

  [[nodiscard]] std::vector<AccessEvent> traces() const {
    return d.aserver->trace_ledger().events();
  }
  [[nodiscard]] std::vector<AccessEvent> records() const {
    return d.pdevice->rd_ledger().events();
  }
  AuditReport audit_events(std::span<const AccessEvent> traces,
                           std::span<const AccessEvent> records,
                           const std::set<std::string>& permitted) const {
    return audit(d.aserver->pub(), d.aserver->id(), traces, records,
                 permitted);
  }
};

TEST(Accountability, RdAndTraceVerify) {
  AuditFixture f(30);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  std::vector<AccessEvent> traces = f.traces();
  std::vector<AccessEvent> records = f.records();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(records[0].kind, ledger::EventKind::kAccess);
  EXPECT_EQ(traces[0].kind, ledger::EventKind::kTrace);
  EXPECT_EQ(records[0].t11, traces[0].t11);
  // Both embedded signatures verify: the RD's A-server IBS and the matched
  // trace's physician IBS.
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report = f.audit_events(traces, records, permitted);
  EXPECT_EQ(report.bad_rd_signatures, 0u);
  EXPECT_EQ(report.rd_without_trace, 0u);
  EXPECT_EQ(report.bad_trace_signatures, 0u);
  EXPECT_EQ(report.accountable, std::vector<std::string>{"dr-on-duty"});
}

TEST(Accountability, AuditLinksPhysician) {
  AuditFixture f(31);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  std::vector<std::string> all = f.d.all_keywords();
  std::set<std::string> permitted(all.begin(), all.end());
  AuditReport report = f.audit_events(f.traces(), f.records(), permitted);
  ASSERT_EQ(report.accountable.size(), 1u);
  EXPECT_EQ(report.accountable[0], "dr-on-duty");
  EXPECT_TRUE(report.improper_searchers.empty());
  EXPECT_EQ(report.inconsistencies(), 0u);
}

TEST(Accountability, OverBroadSearchFlagged) {
  AuditFixture f(32);
  // The physician searches everything, but the treatment only justified one
  // keyword.
  std::vector<std::string> all = f.d.all_keywords();
  f.run_emergency(all);
  std::set<std::string> permitted = {all.front()};
  AuditReport report = f.audit_events(f.traces(), f.records(), permitted);
  ASSERT_EQ(report.improper_searchers.size(), 1u);
  EXPECT_EQ(report.improper_searchers[0], "dr-on-duty");
}

TEST(Accountability, ForgedRdDetected) {
  AuditFixture f(33);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  AccessEvent forged = f.records()[0];
  forged.actor_id = "dr-framed";  // pin it on someone else
  std::vector<AccessEvent> records = {forged};
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report = f.audit_events(f.traces(), records, permitted);
  EXPECT_TRUE(report.accountable.empty());
  EXPECT_EQ(report.inconsistencies(), 1u);
  EXPECT_EQ(report.bad_rd_signatures, 1u);  // typed: it was the RD signature
  EXPECT_EQ(report.rd_without_trace, 0u);
  EXPECT_EQ(report.bad_trace_signatures, 0u);
}

TEST(Accountability, RdWithoutMatchingTraceIsInconsistent) {
  AuditFixture f(34);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  // Present the RD against an empty trace log (e.g. a colluding A-server
  // that deleted its trace cannot silently pass the audit).
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report = f.audit_events({}, f.records(), permitted);
  EXPECT_TRUE(report.accountable.empty());
  EXPECT_EQ(report.inconsistencies(), 1u);
  EXPECT_EQ(report.rd_without_trace, 1u);  // typed: orphan RD, not a bad sig
  EXPECT_EQ(report.bad_rd_signatures, 0u);
}

TEST(Accountability, TamperedTraceDetected) {
  AuditFixture f(35);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  AccessEvent tampered = f.traces()[0];
  tampered.t10 += 1;  // altered timestamp breaks the physician's signature
  std::vector<AccessEvent> traces = {tampered};
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report = f.audit_events(traces, f.records(), permitted);
  EXPECT_TRUE(report.accountable.empty());
  EXPECT_EQ(report.inconsistencies(), 1u);
  EXPECT_EQ(report.bad_trace_signatures, 1u);  // typed: the TR signature
  EXPECT_EQ(report.bad_rd_signatures, 0u);
  EXPECT_EQ(report.rd_without_trace, 0u);
}

TEST(Accountability, MultipleEmergenciesAllAudited) {
  AuditFixture f(36);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  f.run_emergency(kws);
  EXPECT_EQ(f.d.pdevice->rd_ledger().size(), 2u);
  EXPECT_EQ(f.d.aserver->trace_ledger().size(), 2u);
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report = f.audit_events(f.traces(), f.records(), permitted);
  EXPECT_EQ(report.accountable.size(), 1u);  // same physician, deduplicated
  EXPECT_EQ(report.inconsistencies(), 0u);
}

// ---- edge cases -----------------------------------------------------------

TEST(Accountability, EmptyLogsAuditCleanly) {
  AuditFixture f(38);
  // Nothing happened: no traces, no RDs. The audit must report all-zero
  // typed counts rather than tripping over the empty spans.
  std::set<std::string> permitted;
  AuditReport report = f.audit_events({}, {}, permitted);
  EXPECT_TRUE(report.accountable.empty());
  EXPECT_TRUE(report.improper_searchers.empty());
  EXPECT_EQ(report.inconsistencies(), 0u);
  EXPECT_EQ(report.bad_rd_signatures, 0u);
  EXPECT_EQ(report.rd_without_trace, 0u);
  EXPECT_EQ(report.bad_trace_signatures, 0u);
}

TEST(Accountability, DuplicateRdForSameAccessIsConsistent) {
  AuditFixture f(39);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  // A retransmitted RD (same access, same signature) is not tampering: both
  // copies match the single trace and the physician stays accountable once.
  std::vector<AccessEvent> records = {f.records()[0], f.records()[0]};
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report = f.audit_events(f.traces(), records, permitted);
  EXPECT_EQ(report.accountable.size(), 1u);
  EXPECT_EQ(report.inconsistencies(), 0u);
}

TEST(Accountability, TraceWithoutRdIsNotAnInconsistency) {
  AuditFixture f(40);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  // A trace with no matching RD means the passcode was issued but never used
  // for a retrieval — suspicious at a higher layer, but the records
  // themselves are consistent, so the typed counts stay zero.
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report = f.audit_events(f.traces(), {}, permitted);
  EXPECT_TRUE(report.accountable.empty());
  EXPECT_TRUE(report.improper_searchers.empty());
  EXPECT_EQ(report.inconsistencies(), 0u);
}

TEST(Accountability, PermittedKeywordBoundaries) {
  AuditFixture f(41);
  std::vector<std::string> all = f.d.all_keywords();
  ASSERT_GE(all.size(), 2u);
  std::vector<std::string> kws = {all[0], all[1]};
  f.run_emergency(kws);
  std::vector<AccessEvent> traces = f.traces();
  std::vector<AccessEvent> records = f.records();

  // Exact cover: searching precisely the permitted set is proper.
  std::set<std::string> exact(kws.begin(), kws.end());
  AuditReport ok = f.audit_events(traces, records, exact);
  EXPECT_TRUE(ok.improper_searchers.empty());

  // One keyword over the line is already improper — the boundary is strict.
  std::set<std::string> minus_one = {kws[0]};
  AuditReport over = f.audit_events(traces, records, minus_one);
  ASSERT_EQ(over.improper_searchers.size(), 1u);
  EXPECT_EQ(over.improper_searchers[0], "dr-on-duty");

  // An empty permitted set flags any non-empty search.
  std::set<std::string> none;
  AuditReport strict = f.audit_events(traces, records, none);
  EXPECT_EQ(strict.improper_searchers.size(), 1u);
  // Improper scope is a policy violation, not a record inconsistency.
  EXPECT_EQ(strict.inconsistencies(), 0u);
}

// The ledger payloads are the stored TR and RD: a fixed-seed deployment
// through two emergencies, the second over-broad, pins both head hashes, so
// any change to a payload byte, an entry hash or a signature fails here.
TEST(Accountability, LedgerHeadsPinnedAcrossTwoEmergencies) {
  AuditFixture f(1234);
  std::vector<std::string> all = f.d.all_keywords();
  std::vector<std::string> narrow = {all.front()};
  f.run_emergency(narrow);
  Physician nosy(*f.d.net, *f.d.aserver, "dr-nosy");
  f.d.aserver->set_on_duty("dr-nosy", true);
  f.run_emergency(all, &nosy);

  const ledger::Ledger& tr = f.d.aserver->trace_ledger();
  const ledger::Ledger& rd = f.d.pdevice->rd_ledger();
  ASSERT_EQ(tr.size(), 2u);
  ASSERT_EQ(rd.size(), 2u);
  EXPECT_EQ(hex_encode(tr.head_hash()),
            "14d05f8e257b660a68bec81f6e3c5a4c6f00c1f89414fa27efa6b8945aa26e18");
  EXPECT_EQ(hex_encode(rd.head_hash()),
            "da27438e3a5d8cc555b5c71db2a66afba3e230d88ef156f521e17962649b54a5");

  std::set<std::string> permitted(narrow.begin(), narrow.end());
  LedgerAuditReport report =
      audit_ledgers(f.d.aserver->pub(), f.d.aserver->id(), tr, rd,
                    f.d.anchors->authority_ids(), permitted);
  EXPECT_TRUE(report.trace_chain.ok());
  EXPECT_TRUE(report.rd_chain.ok());
  EXPECT_EQ(report.trace_chain.checked, 2u);
  EXPECT_EQ(report.rd_chain.checked, 2u);
  EXPECT_TRUE(report.anchors_ok);
  EXPECT_EQ(report.records.accountable,
            (std::vector<std::string>{"dr-on-duty", "dr-nosy"}));
  EXPECT_EQ(report.records.improper_searchers,
            std::vector<std::string>{"dr-nosy"});
  EXPECT_EQ(report.records.inconsistencies(), 0u);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace hcpp::core
