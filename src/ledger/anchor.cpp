#include "src/ledger/anchor.h"

#include "src/hash/sha256.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace hcpp::ledger {

namespace {
constexpr const char* kProtocol = "ledger.anchor";
}

std::vector<std::string> default_anchor_authorities() {
  return {"hospital-anchor", "state-anchor", "federal-anchor"};
}

// ---- AnchorAuthority -------------------------------------------------------

AnchorAuthority::AnchorAuthority(const ibc::PublicParams& pub, std::string id,
                                 const curve::Point& signing_key)
    : pub_(pub),
      id_(std::move(id)),
      signer_(*pub.ctx, signing_key, id_),
      rng_(to_bytes("hcpp-anchor-authority-" + id_)) {}

std::optional<Bytes> AnchorAuthority::handle_anchor(
    const AnchoredCheckpoint& partial) {
  Bytes stmt = partial.cp.statement();

  // Lower levels must have countersigned this exact statement; a forged,
  // malformed or transplanted signature chain is an authoritative rejection.
  // All their signatures are checked in one batch, as an auditor would.
  std::vector<std::string> lower;
  for (const AnchorSignature& s : partial.sigs) lower.push_back(s.authority_id);
  if (!verify_anchor_sigs(pub_, partial, lower)) return std::nullopt;

  auto key = std::make_pair(partial.cp.ledger_id, partial.cp.epoch);
  auto it = accepted_.find(key);
  if (it != accepted_.end()) {
    if (it->second.first == stmt) return it->second.second;  // idempotent
    // Conflicting statement for an epoch we already signed: refuse, and keep
    // both statements — the pair is the divergence proof.
    divergence_.push_back(
        {partial.cp.ledger_id, partial.cp.epoch, it->second.first, stmt});
    obs::count(obs::kLedgerAnchorDivergence);
    return std::nullopt;
  }

  Bytes sig = signer_.sign(stmt, rng_).to_bytes();
  accepted_.emplace(std::move(key), std::make_pair(std::move(stmt), sig));
  return sig;
}

// ---- AnchorChain -----------------------------------------------------------

AnchorChain::AnchorChain(const ibc::Domain& domain,
                         std::vector<std::string> ids)
    : pub_(domain.pub()), ids_(std::move(ids)) {
  authorities_.reserve(ids_.size());
  for (const std::string& id : ids_) {
    authorities_.emplace_back(pub_, id, domain.extract(id));
  }
}

AnchorOutcome AnchorChain::anchor_checkpoint(sim::Transport& transport,
                                             const std::string& from,
                                             Checkpoint cp) {
  obs::Span span("ledger:", "anchor");
  AnchorOutcome out;
  AnchoredCheckpoint partial;
  partial.cp = std::move(cp);
  Bytes stmt = partial.cp.statement();

  for (AnchorAuthority& authority : authorities_) {
    // The key names (statement, authority): retries of the same statement
    // are answered from the cache; a conflicting statement gets a fresh key
    // and must face the authority's acceptance map.
    Bytes idem = hash::sha256_bytes(
        concat(stmt, to_bytes(std::string("|") + authority.id())));
    auto call = transport.request<Bytes>(
        from, authority.id(), partial.to_bytes().size(), idem, kProtocol,
        [&]() { return authority.handle_anchor(partial); },
        [](const Bytes& sig) { return sig.size(); });
    if (call.status == sim::CallStatus::kRejected) {
      out.divergence = true;
      out.detail = "authority " + authority.id() +
                   " refused the checkpoint for epoch " +
                   std::to_string(partial.cp.epoch);
      return out;
    }
    if (call.status != sim::CallStatus::kOk) {
      out.detail = "anchoring exhausted retries at authority " +
                   authority.id() + " (transient; retry the epoch)";
      return out;
    }
    partial.sigs.push_back({authority.id(), *call.response});
  }
  out.anchored = true;
  out.anchor = std::move(partial);
  return out;
}

std::vector<AnchorAuthority::Divergence> AnchorChain::divergence_log() const {
  std::vector<AnchorAuthority::Divergence> all;
  for (const AnchorAuthority& a : authorities_) {
    all.insert(all.end(), a.divergence_log().begin(),
               a.divergence_log().end());
  }
  return all;
}

// ---- drivers ---------------------------------------------------------------

AnchorOutcome anchor_epoch(Ledger& led, AnchorChain& chain,
                           sim::Transport& transport, const std::string& from,
                           uint64_t epoch, uint64_t now) {
  obs::count(obs::kLedgerAnchorAttempts);
  if (const AnchoredCheckpoint* existing = led.anchor_for_epoch(epoch)) {
    AnchorOutcome out;
    out.anchored = true;
    out.anchor = *existing;
    out.detail = "epoch already anchored";
    return out;
  }
  Checkpoint cp = led.checkpoint_for_epoch(epoch, now);
  AnchorOutcome out = chain.anchor_checkpoint(transport, from, std::move(cp));
  if (out.anchored) led.record_anchor(*out.anchor);
  return out;
}

bool verify_anchor_sigs(const ibc::PublicParams& pub,
                        const AnchoredCheckpoint& anchored,
                        std::span<const std::string> expected_authorities,
                        par::ThreadPool* pool) {
  if (anchored.sigs.size() != expected_authorities.size()) return false;
  Bytes stmt = anchored.cp.statement();
  std::vector<ibc::IbsBatchItem> items;
  items.reserve(anchored.sigs.size());
  for (size_t i = 0; i < anchored.sigs.size(); ++i) {
    if (anchored.sigs[i].authority_id != expected_authorities[i]) {
      return false;
    }
    ibc::IbsBatchItem item;
    item.id = anchored.sigs[i].authority_id;
    item.message = stmt;
    try {
      item.sig = ibc::IbsSignature::from_bytes(*pub.ctx, anchored.sigs[i].sig);
    } catch (const std::exception&) {
      return false;
    }
    items.push_back(std::move(item));
  }
  std::vector<uint8_t> ok = ibc::ibs_verify_batch(pub, items, pool);
  for (uint8_t good : ok) {
    if (good == 0) return false;
  }
  return true;
}

}  // namespace hcpp::ledger
