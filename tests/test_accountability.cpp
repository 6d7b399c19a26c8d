// §V.A accountability: RD/TR verification, cross-check audit, detection of
// forged records and over-broad searches.
#include <gtest/gtest.h>

#include "src/core/setup.h"

namespace hcpp::core {
namespace {

struct AuditFixture {
  Deployment d;
  explicit AuditFixture(uint64_t seed)
      : d(Deployment::create([seed] {
          DeploymentConfig cfg;
          cfg.n_phi_files = 8;
          cfg.seed = seed;
          return cfg;
        }())) {}

  // Runs one full P-device emergency retrieval searching `kws`.
  void run_emergency(std::span<const std::string> kws) {
    d.pdevice->press_emergency_button();
    auto pass =
        d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
    ASSERT_TRUE(pass.ok());
    ASSERT_TRUE(
        d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device));
    ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce));
    (void)d.pdevice->try_emergency_retrieve(*d.sserver, kws);
  }
};

TEST(Accountability, RdAndTraceVerify) {
  AuditFixture f(30);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  ASSERT_EQ(f.d.pdevice->records().size(), 1u);
  ASSERT_EQ(f.d.aserver->traces().size(), 1u);
  EXPECT_TRUE(verify_rd(f.d.aserver->pub(), f.d.aserver->id(),
                        f.d.pdevice->records()[0]));
  EXPECT_TRUE(verify_trace(f.d.aserver->pub(), f.d.aserver->traces()[0]));
}

TEST(Accountability, AuditLinksPhysician) {
  AuditFixture f(31);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  std::vector<std::string> all = f.d.all_keywords();
  std::set<std::string> permitted(all.begin(), all.end());
  AuditReport report =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            f.d.pdevice->records(), permitted);
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
  AuditReport report =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            f.d.pdevice->records(), permitted);
  ASSERT_EQ(report.improper_searchers.size(), 1u);
  EXPECT_EQ(report.improper_searchers[0], "dr-on-duty");
}

TEST(Accountability, ForgedRdDetected) {
  AuditFixture f(33);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  RdRecord forged = f.d.pdevice->records()[0];
  forged.physician_id = "dr-framed";  // pin it on someone else
  EXPECT_FALSE(verify_rd(f.d.aserver->pub(), f.d.aserver->id(), forged));
  std::vector<RdRecord> records = {forged};
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            records, permitted);
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
  std::vector<TraceRecord> no_traces;
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report =
      audit(f.d.aserver->pub(), f.d.aserver->id(), no_traces,
            f.d.pdevice->records(), permitted);
  EXPECT_TRUE(report.accountable.empty());
  EXPECT_EQ(report.inconsistencies(), 1u);
  EXPECT_EQ(report.rd_without_trace, 1u);  // typed: orphan RD, not a bad sig
  EXPECT_EQ(report.bad_rd_signatures, 0u);
}

TEST(Accountability, TamperedTraceDetected) {
  AuditFixture f(35);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  TraceRecord tampered = f.d.aserver->traces()[0];
  tampered.t10 += 1;  // altered timestamp breaks the physician's signature
  EXPECT_FALSE(verify_trace(f.d.aserver->pub(), tampered));
}

TEST(Accountability, MultipleEmergenciesAllAudited) {
  AuditFixture f(36);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  f.run_emergency(kws);
  EXPECT_EQ(f.d.pdevice->records().size(), 2u);
  EXPECT_EQ(f.d.aserver->traces().size(), 2u);
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            f.d.pdevice->records(), permitted);
  EXPECT_EQ(report.accountable.size(), 1u);  // same physician, deduplicated
  EXPECT_EQ(report.inconsistencies(), 0u);
}

// ---- edge cases -----------------------------------------------------------

TEST(Accountability, EmptyLogsAuditCleanly) {
  AuditFixture f(38);
  // Nothing happened: no traces, no RDs. The audit must report all-zero
  // typed counts rather than tripping over the empty spans.
  std::set<std::string> permitted;
  AuditReport report = audit(f.d.aserver->pub(), f.d.aserver->id(), {}, {},
                             permitted);
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
  std::vector<RdRecord> records = {f.d.pdevice->records()[0],
                                   f.d.pdevice->records()[0]};
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            records, permitted);
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
  std::vector<RdRecord> no_records;
  std::set<std::string> permitted(kws.begin(), kws.end());
  AuditReport report =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            no_records, permitted);
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

  // Exact cover: searching precisely the permitted set is proper.
  std::set<std::string> exact(kws.begin(), kws.end());
  AuditReport ok = audit(f.d.aserver->pub(), f.d.aserver->id(),
                         f.d.aserver->traces(), f.d.pdevice->records(), exact);
  EXPECT_TRUE(ok.improper_searchers.empty());

  // One keyword over the line is already improper — the boundary is strict.
  std::set<std::string> minus_one = {kws[0]};
  AuditReport over =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            f.d.pdevice->records(), minus_one);
  ASSERT_EQ(over.improper_searchers.size(), 1u);
  EXPECT_EQ(over.improper_searchers[0], "dr-on-duty");

  // An empty permitted set flags any non-empty search.
  std::set<std::string> none;
  AuditReport strict =
      audit(f.d.aserver->pub(), f.d.aserver->id(), f.d.aserver->traces(),
            f.d.pdevice->records(), none);
  EXPECT_EQ(strict.improper_searchers.size(), 1u);
  // Improper scope is a policy violation, not a record inconsistency.
  EXPECT_EQ(strict.inconsistencies(), 0u);
}

TEST(Accountability, RdSerializationRoundTrip) {
  AuditFixture f(37);
  std::vector<std::string> kws = {f.d.all_keywords().front()};
  f.run_emergency(kws);
  const RdRecord& rd = f.d.pdevice->records()[0];
  RdRecord back = RdRecord::from_wire(rd.to_wire());
  EXPECT_EQ(back.physician_id, rd.physician_id);
  EXPECT_EQ(back.keywords, rd.keywords);
  EXPECT_EQ(back.t11, rd.t11);
  EXPECT_TRUE(verify_rd(f.d.aserver->pub(), f.d.aserver->id(), back));
}

}  // namespace
}  // namespace hcpp::core
