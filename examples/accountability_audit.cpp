// Accountability audit (§V.A): after two emergencies — one proper, one in
// which the physician searched far beyond the treatment's needs — the
// recovered patient collects the P-device's RD records, verifies the
// A-server signatures, cross-checks the A-server's TR log, and identifies
// the over-broad searcher.
//
//   $ ./accountability_audit
#include <cstdio>

#include "src/core/setup.h"

using namespace hcpp;
using namespace hcpp::core;

namespace {

void run_one_emergency(Deployment& d, Physician& physician,
                       std::span<const std::string> keywords) {
  d.pdevice->press_emergency_button();
  auto pass = physician.try_request_passcode(*d.aserver, d.patient->tp_bytes());
  if (!pass.ok() ||
      !d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device) ||
      !d.pdevice->enter_passcode(physician.id(), pass.value().nonce)) {
    std::printf("unexpected: emergency auth failed\n");
    return;
  }
  size_t n = d.pdevice->try_emergency_retrieve(*d.sserver, keywords)
                 .value_or({})
                 .size();
  std::printf("  %s searched %zu keyword(s), retrieved %zu file(s)\n",
              physician.id().c_str(), keywords.size(), n);
}

}  // namespace

int main() {
  DeploymentConfig cfg;
  cfg.n_phi_files = 16;
  cfg.seed = 1234;
  Deployment d = Deployment::create(cfg);

  // Emergency 1: dr-on-duty searches only what the cardiac emergency needs.
  std::printf("emergency #1 (proper scope):\n");
  std::vector<std::string> narrow = {"category:cardiology"};
  run_one_emergency(d, *d.on_duty, narrow);

  // Emergency 2: a second on-duty physician trawls the entire record.
  Physician nosy(*d.net, *d.aserver, "dr-nosy");
  d.aserver->set_on_duty("dr-nosy", true);
  std::printf("emergency #2 (over-broad search):\n");
  std::vector<std::string> everything = d.all_keywords();
  run_one_emergency(d, nosy, everything);

  // --- The patient recovers and audits. --------------------------------------
  std::printf("\n== audit ==\n");
  // The two logs are the A-server's and the P-device's ledgers.
  const std::vector<ledger::AccessEvent> traces =
      d.aserver->trace_ledger().events();
  const std::vector<ledger::AccessEvent> records =
      d.pdevice->rd_ledger().events();
  std::printf("P-device RD records: %zu; A-server TR traces: %zu; alerts "
              "sent to patient: %d\n",
              records.size(), traces.size(), d.pdevice->alert_count());
  for (const ledger::AccessEvent& rd : records) {
    // One RD audited alone: its A-server signature holds iff the audit
    // finds no bad RD signature (it lacks the traces, so it is orphaned).
    bool valid = audit(d.aserver->pub(), d.aserver->id(), {},
                       std::span(&rd, 1), {})
                     .bad_rd_signatures == 0;
    std::printf("  RD: physician=%s keywords=%zu signature=%s\n",
                rd.actor_id.c_str(), rd.keywords.size(),
                valid ? "valid" : "INVALID");
  }

  // Treatment for a cardiac emergency justified only the cardiology keyword.
  std::set<std::string> permitted(narrow.begin(), narrow.end());
  AuditReport report =
      audit(d.aserver->pub(), d.aserver->id(), traces, records, permitted);
  std::printf("\naccountable physicians (provable interaction):\n");
  for (const std::string& id : report.accountable) {
    std::printf("  %s\n", id.c_str());
  }
  std::printf("flagged for searching beyond the permitted set:\n");
  for (const std::string& id : report.improper_searchers) {
    std::printf("  %s  <-- complaint filed per HIPAA §160/§164\n",
                id.c_str());
  }
  std::printf("inconsistent records: %zu\n", report.inconsistencies());
  bool ok = report.accountable.size() == 2 &&
            report.improper_searchers.size() == 1 &&
            report.improper_searchers[0] == "dr-nosy" &&
            report.inconsistencies() == 0;
  std::printf("\naudit outcome: %s\n", ok ? "as expected" : "UNEXPECTED");
  return ok ? 0 : 1;
}
