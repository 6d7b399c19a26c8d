// Checkpoint anchoring up the authority hierarchy (hospital → state →
// federal). Each level is an AnchorAuthority holding an IBS key extracted
// from the state domain; anchoring a checkpoint walks the chain in order,
// collecting one countersignature per level over the *same* canonical
// Checkpoint::statement(). An anchored checkpoint pins a ledger prefix: the
// holder can no longer truncate or rewrite history below it without
// verify_against() reporting kTruncated/kForked.
//
// Exactly-once under a faulty network, by three composing layers:
//   1. sim::Transport idempotency — the request key is H(statement ‖
//      authority), so wire duplicates and honest retries of the same
//      statement never re-execute the handler;
//   2. authority-side acceptance map — an authority signs one statement per
//      (ledger, epoch), returns the identical signature on re-presentation,
//      and refuses (recording divergence evidence) when a *conflicting*
//      statement arrives for an epoch it already signed;
//   3. ledger-side checkpoint pinning — Ledger::checkpoint_for_epoch()
//      returns the identical statement across retries until the epoch
//      anchors, so a partially-anchored epoch resumes instead of forking.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/cipher/drbg.h"
#include "src/ibc/ibs.h"
#include "src/ledger/ledger.h"
#include "src/sim/transport.h"

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::ledger {

/// The canonical three-level hierarchy: hospital office → state registry →
/// federal registry. Tests, Deployment and the CLI all anchor through these
/// identities so partitions/downtime address well-known node names.
std::vector<std::string> default_anchor_authorities();

/// One level of the anchoring hierarchy. In-process server endpoint: the
/// transport charges the wire legs, handle_anchor() is the handler.
class AnchorAuthority {
 public:
  /// Conflicting statement seen for an epoch this authority already signed —
  /// the proof a fork was attempted (or that the requester lost its state).
  struct Divergence {
    std::string ledger_id;
    uint64_t epoch = 0;
    Bytes accepted_statement;  // what this authority signed first
    Bytes offered_statement;   // the conflicting re-presentation
  };

  AnchorAuthority(const ibc::PublicParams& pub, std::string id,
                  const curve::Point& signing_key);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

  /// Verifies every countersignature already on `partial` (lower levels must
  /// have signed the same statement), then signs it. Returns the serialized
  /// IbsSignature, or nullopt for an authoritative rejection: a bad lower
  /// signature, or a conflicting statement for an already-signed epoch.
  std::optional<Bytes> handle_anchor(const AnchoredCheckpoint& partial);

  [[nodiscard]] const std::vector<Divergence>& divergence_log() const noexcept {
    return divergence_;
  }

 private:
  ibc::PublicParams pub_;
  std::string id_;
  ibc::IbsSigner signer_;
  cipher::Drbg rng_;
  // (ledger_id, epoch) → (statement signed, serialized signature).
  std::map<std::pair<std::string, uint64_t>, std::pair<Bytes, Bytes>>
      accepted_;
  std::vector<Divergence> divergence_;
};

/// What one anchoring drive concluded. Exactly one of `anchored` /
/// `divergence` / transient failure (both false) holds.
struct AnchorOutcome {
  bool anchored = false;    // full signature chain collected and recorded
  bool divergence = false;  // an authority refused: conflicting statement
  std::optional<AnchoredCheckpoint> anchor;
  std::string detail;
};

/// The ordered hierarchy. Owns the authorities; every signing key comes from
/// the same state IBC domain, so one PublicParams verifies the whole chain.
class AnchorChain {
 public:
  AnchorChain(const ibc::Domain& domain, std::vector<std::string> ids);

  [[nodiscard]] const std::vector<std::string>& authority_ids() const noexcept {
    return ids_;
  }
  [[nodiscard]] std::vector<AnchorAuthority>& authorities() noexcept {
    return authorities_;
  }
  [[nodiscard]] const ibc::PublicParams& pub() const noexcept { return pub_; }

  /// Walks the hierarchy in order over the retrying transport, collecting
  /// countersignatures on `cp`. Transient exhaustion returns a retriable
  /// outcome (anchored == divergence == false) — already-collected
  /// signatures are re-fetched idempotently on the next drive.
  AnchorOutcome anchor_checkpoint(sim::Transport& transport,
                                  const std::string& from, Checkpoint cp);

  /// All divergence evidence across the chain's authorities.
  [[nodiscard]] std::vector<AnchorAuthority::Divergence> divergence_log()
      const;

 private:
  ibc::PublicParams pub_;
  std::vector<std::string> ids_;
  std::vector<AnchorAuthority> authorities_;
};

/// Drives one epoch of `led` up the chain: pin (or re-load) the epoch's
/// checkpoint, collect the signature chain, record the anchor. Idempotent —
/// an already-anchored epoch short-circuits to success.
AnchorOutcome anchor_epoch(Ledger& led, AnchorChain& chain,
                           sim::Transport& transport, const std::string& from,
                           uint64_t epoch, uint64_t now);

/// Auditor side: checks the anchored checkpoint carries exactly the expected
/// authority chain, batch-verifying all IBS countersignatures over the
/// statement (ibc::ibs_verify_batch; `pool` parallelizes, nullptr = serial).
bool verify_anchor_sigs(const ibc::PublicParams& pub,
                        const AnchoredCheckpoint& anchored,
                        std::span<const std::string> expected_authorities,
                        par::ThreadPool* pool = nullptr);

}  // namespace hcpp::ledger
