// Accountability audit (§V.A): after the emergency, the patient collects the
// RD records from the P-device, verifies the A-server signatures they embed,
// cross-checks them against the A-server's TR log, and flags physicians who
// searched beyond the keyword set a treatment justified.
//
// Both logs are tamper-evident hash-chained ledgers (src/ledger): the
// A-server's trace_ledger() holds one kTrace event per accepted emergency
// authentication, the P-device's rd_ledger() one kAccess event per emergency
// retrieval. Two tiers judge them. audit() judges the *records* — the events'
// embedded signatures and their cross-references. audit_ledgers()
// additionally judges the *history*: the epoch checkpoints are
// IBS-countersigned up the hospital → state → federal anchor hierarchy, so a
// holder who truncates, reorders or forks its log is caught by chain
// verification against the anchors — even when every surviving event still
// carries a valid signature.
#pragma once

#include <set>

#include "src/core/entities.h"
#include "src/ledger/anchor.h"

namespace hcpp::core {

struct AuditReport {
  /// Physicians with a verified RD + matching verified TR: provably
  /// interacted with the P-device and can be held accountable for any leak.
  std::vector<std::string> accountable;
  /// RD entries containing keywords outside the permitted set — evidence of
  /// over-broad searching even without a leak (§V.A accountability).
  std::vector<std::string> improper_searchers;
  /// Typed inconsistency counts, so a chaos test (or an investigator) can
  /// tell *which* failure occurred rather than seeing one opaque tally:
  size_t bad_rd_signatures = 0;   // RD whose embedded A-server IBS failed
  size_t rd_without_trace = 0;    // verified RD with no matching TR at all
  size_t bad_trace_signatures = 0;  // matching TR found, physician IBS bad

  /// Anything that warrants investigation (the historical single counter).
  [[nodiscard]] size_t inconsistencies() const noexcept {
    return bad_rd_signatures + rd_without_trace + bad_trace_signatures;
  }
};

/// Cross-checks the P-device's RD events against the A-server's TR events
/// (ledger::Ledger::events()). An RD's A-server signature covers
/// rd_statement(actor_id, subject, t11); a trace's physician signature
/// covers its EmergencyAuthRequest body (actor_id, subject, t10). The
/// signature checks dominate (two pairings each); they run as two
/// ibs_verify_batch rounds — all RD signatures, then the traces matched by
/// verified RDs — before the serial cross-referencing pass.
AuditReport audit(const ibc::PublicParams& pub, const std::string& aserver_id,
                  std::span<const ledger::AccessEvent> traces,
                  std::span<const ledger::AccessEvent> records,
                  const std::set<std::string>& permitted_keywords,
                  par::ThreadPool* pool = nullptr);

/// The full ledger-level audit verdict: record-level findings plus the
/// integrity of both histories.
struct LedgerAuditReport {
  AuditReport records;                // signature/cross-check tier
  ledger::ChainVerdict trace_chain;   // TR ledger vs its last anchor
  ledger::ChainVerdict rd_chain;      // RD ledger chain verification
  bool anchors_ok = true;             // every anchor's IBS chain verified
  size_t proofs_checked = 0;          // Merkle inclusion proofs verified
  size_t bad_proofs = 0;

  [[nodiscard]] bool ok() const noexcept {
    return trace_chain.ok() && rd_chain.ok() && anchors_ok &&
           bad_proofs == 0 && records.inconsistencies() == 0;
  }
};

/// Chain-verifying audit. Beyond audit() on the decoded events, it
///   * runs verify_chain() on both ledgers and verify_against() their last
///     anchored checkpoints (detecting truncation, reordering, forks and
///     gap-in-sequence tampering);
///   * batch-verifies every anchor's hospital → state → federal IBS chain
///     (ibc::ibs_verify_batch under `expected_authorities`);
///   * spot-checks the anchored prefix with O(log n) Merkle inclusion
///     proofs, spread across `pool` when provided.
LedgerAuditReport audit_ledgers(
    const ibc::PublicParams& pub, const std::string& aserver_id,
    const ledger::Ledger& trace_ledger, const ledger::Ledger& rd_ledger,
    std::span<const std::string> expected_authorities,
    const std::set<std::string>& permitted_keywords,
    par::ThreadPool* pool = nullptr);

}  // namespace hcpp::core
