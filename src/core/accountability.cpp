#include "src/core/accountability.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "src/par/pool.h"

namespace hcpp::core {

using ledger::AccessEvent;

namespace {
/// The trace matching rd (same physician, pseudonym, t11), or nullptr.
const AccessEvent* find_trace(std::span<const AccessEvent> traces,
                              const AccessEvent& rd) {
  for (const AccessEvent& tr : traces) {
    if (tr.actor_id == rd.actor_id && tr.t11 == rd.t11 &&
        ct_equal(tr.subject, rd.subject)) {
      return &tr;
    }
  }
  return nullptr;
}

std::optional<ibc::IbsBatchItem> rd_batch_item(const ibc::PublicParams& pub,
                                               const std::string& aserver_id,
                                               const AccessEvent& rd) {
  try {
    return ibc::IbsBatchItem{
        aserver_id, rd_statement(rd.actor_id, rd.subject, rd.t11),
        ibc::IbsSignature::from_bytes(*pub.ctx, rd.sig)};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<ibc::IbsBatchItem> trace_batch_item(const ibc::PublicParams& pub,
                                                  const AccessEvent& tr) {
  try {
    EmergencyAuthRequest req;
    req.physician_id = tr.actor_id;
    req.tp = tr.subject;
    req.t = tr.t10;
    return ibc::IbsBatchItem{tr.actor_id, req.body(),
                             ibc::IbsSignature::from_bytes(*pub.ctx, tr.sig)};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}
}  // namespace

AuditReport audit(const ibc::PublicParams& pub, const std::string& aserver_id,
                  std::span<const AccessEvent> traces,
                  std::span<const AccessEvent> records,
                  const std::set<std::string>& permitted_keywords,
                  par::ThreadPool* pool) {
  AuditReport report;

  // Two ibs_verify_batch rounds, each one miller_batch: every signature's
  // two pairings fused into a single Miller product, the final
  // exponentiations batched (one modular inversion per round).

  // Round 1: every RD carries an A-server signature.
  std::vector<size_t> rd_slot(records.size(), SIZE_MAX);
  std::vector<ibc::IbsBatchItem> items;
  for (size_t i = 0; i < records.size(); ++i) {
    std::optional<ibc::IbsBatchItem> item =
        rd_batch_item(pub, aserver_id, records[i]);
    if (item.has_value()) {
      rd_slot[i] = items.size();
      items.push_back(std::move(*item));
    }
  }
  std::vector<uint8_t> rd_ok = ibc::ibs_verify_batch(pub, items, pool);

  // Round 2: traces matched by a verified RD, keyed by trace pointer so a
  // trace referenced twice is only verified once.
  std::vector<const AccessEvent*> rd_match(records.size(), nullptr);
  std::vector<const AccessEvent*> tr_of_item;
  items.clear();
  for (size_t i = 0; i < records.size(); ++i) {
    if (rd_slot[i] == SIZE_MAX || !rd_ok[rd_slot[i]]) continue;
    const AccessEvent* match = find_trace(traces, records[i]);
    if (match == nullptr) continue;
    rd_match[i] = match;
    if (std::find(tr_of_item.begin(), tr_of_item.end(), match) ==
        tr_of_item.end()) {
      std::optional<ibc::IbsBatchItem> item = trace_batch_item(pub, *match);
      if (item.has_value()) {
        items.push_back(std::move(*item));
        tr_of_item.push_back(match);
      }
    }
  }
  std::vector<uint8_t> tr_ok = ibc::ibs_verify_batch(pub, items, pool);
  auto trace_verified = [&](const AccessEvent* tr) {
    for (size_t j = 0; j < tr_of_item.size(); ++j) {
      if (tr_of_item[j] == tr) return tr_ok[j] != 0;
    }
    return false;
  };

  for (size_t i = 0; i < records.size(); ++i) {
    const AccessEvent& rd = records[i];
    if (rd_slot[i] == SIZE_MAX || !rd_ok[rd_slot[i]]) {
      ++report.bad_rd_signatures;
      continue;
    }
    if (rd_match[i] == nullptr) {
      ++report.rd_without_trace;
      continue;
    }
    if (!trace_verified(rd_match[i])) {
      ++report.bad_trace_signatures;
      continue;
    }
    if (std::find(report.accountable.begin(), report.accountable.end(),
                  rd.actor_id) == report.accountable.end()) {
      report.accountable.push_back(rd.actor_id);
    }
    bool improper = false;
    for (const std::string& kw : rd.keywords) {
      improper |= (permitted_keywords.find(kw) == permitted_keywords.end());
    }
    if (improper &&
        std::find(report.improper_searchers.begin(),
                  report.improper_searchers.end(),
                  rd.actor_id) == report.improper_searchers.end()) {
      report.improper_searchers.push_back(rd.actor_id);
    }
  }
  return report;
}

// ---- chain-verifying audit -------------------------------------------------

LedgerAuditReport audit_ledgers(
    const ibc::PublicParams& pub, const std::string& aserver_id,
    const ledger::Ledger& trace_ledger, const ledger::Ledger& rd_ledger,
    std::span<const std::string> expected_authorities,
    const std::set<std::string>& permitted_keywords,
    par::ThreadPool* pool) {
  LedgerAuditReport out;

  // 1. History integrity: recompute both chains, then hold each against its
  // newest anchored checkpoint. A clean chain that is *shorter* than the
  // anchor is truncation; one whose prefix digest differs is a fork.
  auto chain_verdict = [](const ledger::Ledger& led) {
    if (const ledger::AnchoredCheckpoint* a = led.last_anchor()) {
      return led.verify_against(*a);
    }
    return led.verify_chain();
  };
  out.trace_chain = chain_verdict(trace_ledger);
  out.rd_chain = chain_verdict(rd_ledger);

  // 2. The anchors themselves: every checkpoint must carry the full expected
  // authority chain, each IBS verifying over the canonical statement.
  for (const ledger::Ledger* led : {&trace_ledger, &rd_ledger}) {
    for (const ledger::AnchoredCheckpoint& a : led->anchors()) {
      if (!ledger::verify_anchor_sigs(pub, a, expected_authorities, pool)) {
        out.anchors_ok = false;
      }
    }
  }

  // 3. Spot-check the anchored prefixes with inclusion proofs — O(log n)
  // each, independent, so they spread across the pool.
  auto check_proofs = [&](const ledger::Ledger& led) {
    const ledger::AnchoredCheckpoint* a = led.last_anchor();
    if (a == nullptr || a->cp.count == 0 || a->cp.count > led.size()) return;
    const uint64_t count = a->cp.count;
    std::atomic<size_t> bad{0};
    auto check_one = [&](size_t seq) {
      ledger::InclusionProof proof = led.prove(seq, count);
      if (!ledger::Ledger::verify_proof(a->cp.merkle_root, proof)) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(count, check_one);
    } else {
      for (uint64_t seq = 0; seq < count; ++seq) check_one(seq);
    }
    out.proofs_checked += count;
    out.bad_proofs += bad.load();
  };
  check_proofs(trace_ledger);
  check_proofs(rd_ledger);

  // 4. Record-level audit over the decoded events (Ledger::events() skips
  // an undecodable payload, which only a rewritten chain holds; step 1
  // judges the rewrite against the anchor).
  out.records = audit(pub, aserver_id, trace_ledger.events(),
                      rd_ledger.events(), permitted_keywords, pool);
  return out;
}

}  // namespace hcpp::core
