#include "src/core/accountability.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "src/par/pool.h"

namespace hcpp::core {

bool verify_rd(const ibc::PublicParams& pub, const std::string& aserver_id,
               const RdRecord& rd) {
  try {
    ibc::IbsSignature sig =
        ibc::IbsSignature::from_bytes(*pub.ctx, rd.aserver_sig);
    return ibc::ibs_verify(pub, aserver_id,
                           rd_statement(rd.physician_id, rd.tp, rd.t11), sig);
  } catch (const std::exception&) {
    return false;
  }
}

bool verify_trace(const ibc::PublicParams& pub, const TraceRecord& tr) {
  try {
    ibc::IbsSignature sig =
        ibc::IbsSignature::from_bytes(*pub.ctx, tr.physician_sig);
    EmergencyAuthRequest req;
    req.physician_id = tr.physician_id;
    req.tp = tr.tp;
    req.t = tr.t10;
    return ibc::ibs_verify(pub, tr.physician_id, req.body(), sig);
  } catch (const std::exception&) {
    return false;
  }
}

namespace {
/// The trace matching rd (same physician, pseudonym, t11), or nullptr.
const TraceRecord* find_trace(std::span<const TraceRecord> traces,
                              const RdRecord& rd) {
  for (const TraceRecord& tr : traces) {
    if (tr.physician_id == rd.physician_id && tr.t11 == rd.t11 &&
        ct_equal(tr.tp, rd.tp)) {
      return &tr;
    }
  }
  return nullptr;
}

std::optional<ibc::IbsBatchItem> rd_batch_item(const ibc::PublicParams& pub,
                                               const std::string& aserver_id,
                                               const RdRecord& rd) {
  try {
    return ibc::IbsBatchItem{
        aserver_id, rd_statement(rd.physician_id, rd.tp, rd.t11),
        ibc::IbsSignature::from_bytes(*pub.ctx, rd.aserver_sig)};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<ibc::IbsBatchItem> trace_batch_item(const ibc::PublicParams& pub,
                                                  const TraceRecord& tr) {
  try {
    EmergencyAuthRequest req;
    req.physician_id = tr.physician_id;
    req.tp = tr.tp;
    req.t = tr.t10;
    return ibc::IbsBatchItem{
        tr.physician_id, req.body(),
        ibc::IbsSignature::from_bytes(*pub.ctx, tr.physician_sig)};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}
}  // namespace

AuditReport audit(const ibc::PublicParams& pub, const std::string& aserver_id,
                  std::span<const TraceRecord> traces,
                  std::span<const RdRecord> records,
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
  std::vector<const TraceRecord*> rd_match(records.size(), nullptr);
  std::vector<const TraceRecord*> tr_of_item;
  items.clear();
  for (size_t i = 0; i < records.size(); ++i) {
    if (rd_slot[i] == SIZE_MAX || !rd_ok[rd_slot[i]]) continue;
    const TraceRecord* match = find_trace(traces, records[i]);
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
  auto trace_verified = [&](const TraceRecord* tr) {
    for (size_t j = 0; j < tr_of_item.size(); ++j) {
      if (tr_of_item[j] == tr) return tr_ok[j] != 0;
    }
    return false;
  };

  for (size_t i = 0; i < records.size(); ++i) {
    const RdRecord& rd = records[i];
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
                  rd.physician_id) == report.accountable.end()) {
      report.accountable.push_back(rd.physician_id);
    }
    bool improper = false;
    for (const std::string& kw : rd.keywords) {
      improper |= (permitted_keywords.find(kw) == permitted_keywords.end());
    }
    if (improper &&
        std::find(report.improper_searchers.begin(),
                  report.improper_searchers.end(),
                  rd.physician_id) == report.improper_searchers.end()) {
      report.improper_searchers.push_back(rd.physician_id);
    }
  }
  return report;
}

// ---- ledger event conversion ----------------------------------------------

ledger::AccessEvent event_from_trace(const TraceRecord& tr) {
  ledger::AccessEvent ev;
  ev.kind = ledger::EventKind::kTrace;
  ev.actor_id = tr.physician_id;
  ev.subject = tr.tp;
  ev.t10 = tr.t10;
  ev.t11 = tr.t11;
  ev.sig = tr.physician_sig;
  return ev;
}

TraceRecord trace_from_event(const ledger::AccessEvent& ev) {
  return {ev.actor_id, ev.subject, ev.t10, ev.t11, ev.sig};
}

ledger::AccessEvent event_from_rd(const RdRecord& rd) {
  ledger::AccessEvent ev;
  ev.kind = ledger::EventKind::kAccess;
  ev.actor_id = rd.physician_id;
  ev.subject = rd.tp;
  ev.keywords = rd.keywords;
  ev.t11 = rd.t11;
  ev.sig = rd.aserver_sig;
  return ev;
}

RdRecord rd_from_event(const ledger::AccessEvent& ev) {
  return {ev.actor_id, ev.subject, ev.keywords, ev.t11, ev.sig};
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

  // 4. Record-level audit over the decoded events. Undecodable payloads
  // cannot occur on an intact chain (the entry hash commits to the encoding
  // verified above), so decoding failures are already counted in the chain
  // verdicts and skipped here.
  std::vector<TraceRecord> traces;
  for (const ledger::LedgerEntry& e : trace_ledger.entries()) {
    try {
      traces.push_back(trace_from_event(e.event()));
    } catch (const std::exception&) {
    }
  }
  std::vector<RdRecord> records;
  for (const ledger::LedgerEntry& e : rd_ledger.entries()) {
    try {
      records.push_back(rd_from_event(e.event()));
    } catch (const std::exception&) {
    }
  }
  out.records =
      audit(pub, aserver_id, traces, records, permitted_keywords, pool);
  return out;
}

}  // namespace hcpp::core
