// Tamper-evident break-the-glass audit ledger (§V.A, ROADMAP item 5).
//
// The paper's accountability artifacts — the A-server trace TR and the
// P-device record RD — used to live as loose in-memory vectors: a compromised
// or crashed holder could silently drop, reorder or truncate the emergency
// access history and audit() would only ever notice bad signatures. This
// module rebuilds them as a verifiable data structure, reproduced without a
// chain (cf. the blockchain-EHR literature in PAPERS.md):
//
//   * append-only hash chain — entry i commits to entry i-1's hash and a
//     monotone sequence number, so truncation, reordering, forks and
//     gap-in-sequence tampering are all detectable from the log alone;
//   * Merkle tree over the entry hashes — O(log n) inclusion proofs let an
//     auditor check one access against a signed checkpoint without replaying
//     the whole log;
//   * epoch checkpoints (anchor.h) — IBS-signed digests of a chain prefix,
//     countersigned hospital → state → federal, that pin the history a
//     holder can no longer rewrite;
//   * a patient notification stream — every appended emergency-access event
//     is queued for the patient's phone (the MediTrust-style "the moment the
//     data is accessed, the patient is alerted" guarantee);
//   * a crash-safe write-ahead log — append() flushes one frame per entry;
//     recover() replays the file, discards a torn tail, and verifies the
//     surviving prefix against the last anchored checkpoint.
//
// The ledger layer is deliberately core-agnostic: events carry plain fields
// (actor, subject pseudonym, keywords, timestamps, an embedded signature).
// The A-server's and P-device's ledgers are the TR and RD logs themselves:
// the protocol handlers append AccessEvents and core::audit() reads them.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"

namespace hcpp::ledger {

inline constexpr size_t kHashSize = 32;

/// What kind of accountability artifact an event mirrors.
enum class EventKind : uint8_t {
  kTrace = 1,   // A-server TR: a physician requested emergency access
  kAccess = 2,  // P-device RD: a physician searched the patient's PHI
};

/// One emergency-access event, the ledger's payload unit.
struct AccessEvent {
  EventKind kind = EventKind::kAccess;
  std::string actor_id;               // physician
  Bytes subject;                      // patient pseudonym TPp (serialized)
  std::vector<std::string> keywords;  // searched keywords (empty for TR)
  uint64_t t10 = 0;                   // request timestamp (TR only)
  uint64_t t11 = 0;                   // passcode-issue timestamp
  Bytes sig;  // embedded IBS evidence (physician's for TR, A-server's for RD)

  [[nodiscard]] Bytes to_bytes() const;
  /// Inverse of to_bytes. Throws on an unknown kind or a truncated encoding,
  /// and std::invalid_argument on trailing bytes, so one event has one
  /// encoding.
  static AccessEvent from_bytes(BytesView b);
};

/// One chain entry. `payload` is the canonical AccessEvent encoding — the
/// bytes the hash commits to — so re-serialization can never drift.
struct LedgerEntry {
  uint64_t seq = 0;
  Bytes payload;
  Bytes prev_hash;   // kHashSize; genesis_hash() for seq 0
  Bytes entry_hash;  // H(domain ‖ seq ‖ payload ‖ prev_hash)

  [[nodiscard]] AccessEvent event() const { return AccessEvent::from_bytes(payload); }
};

/// Recomputes what `entry.entry_hash` must be.
Bytes entry_hash(uint64_t seq, BytesView payload, BytesView prev_hash);

/// Outcome of a chain or anchor verification. `ok()` means no defect; every
/// defect names the first offending sequence number so chaos tests can
/// assert *which* tampering was detected, not just that something failed.
struct ChainVerdict {
  enum class Defect : uint8_t {
    kNone = 0,
    kGap,        // sequence numbers skip or repeat (entry removed/reordered)
    kBrokenLink, // prev_hash does not match the previous entry's hash
    kBadHash,    // entry_hash does not match the recomputed commitment
    kTruncated,  // chain is shorter than an anchored checkpoint's count
    kForked,     // chain diverges from an anchored checkpoint's digest
  };
  Defect defect = Defect::kNone;
  uint64_t at_seq = 0;   // first offending sequence number
  uint64_t checked = 0;  // entries verified before the defect (all, when ok)
  std::string detail;

  [[nodiscard]] bool ok() const noexcept { return defect == Defect::kNone; }
};

[[nodiscard]] const char* to_string(ChainVerdict::Defect d) noexcept;

/// Merkle inclusion proof for entry `seq` within the first `count` entries.
/// `path` is the sibling chain leaf→root: (sibling_is_left, sibling_hash).
struct InclusionProof {
  uint64_t seq = 0;
  uint64_t count = 0;
  Bytes leaf;  // the entry hash being proven
  std::vector<std::pair<bool, Bytes>> path;
};

/// Signed digest of a chain prefix, the unit that gets anchored up the
/// authority hierarchy. `statement()` is the canonical byte string every
/// anchoring authority signs.
struct Checkpoint {
  std::string ledger_id;
  uint64_t epoch = 0;
  uint64_t count = 0;  // entries covered: [0, count)
  Bytes head_hash;     // entry_hash of entry count-1
  Bytes merkle_root;   // Merkle root over entry hashes [0, count)
  uint64_t t = 0;

  [[nodiscard]] Bytes statement() const;
  [[nodiscard]] Bytes to_bytes() const;
  static Checkpoint from_bytes(BytesView b);
};

/// One authority's countersignature on a checkpoint statement.
struct AnchorSignature {
  std::string authority_id;
  Bytes sig;  // serialized ibc::IbsSignature over Checkpoint::statement()
};

/// A checkpoint plus the full hospital → state → federal signature chain.
struct AnchoredCheckpoint {
  Checkpoint cp;
  std::vector<AnchorSignature> sigs;  // in anchoring order

  [[nodiscard]] Bytes to_bytes() const;
  static AnchoredCheckpoint from_bytes(BytesView b);
};

/// Patient-alert queue element (§VI.A countermeasure, MediTrust-style).
struct Notification {
  uint64_t seq = 0;
  AccessEvent event;
};

/// What recover() found in a write-ahead log.
struct RecoveryReport {
  size_t entries = 0;        // chain entries replayed
  size_t anchors = 0;        // anchored checkpoints replayed
  size_t torn_bytes = 0;     // trailing bytes discarded as a torn write
  bool tail_discarded = false;
};

// ---------------------------------------------------------------------------
class Ledger {
 public:
  explicit Ledger(std::string id = "ledger");

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<LedgerEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const LedgerEntry& entry(uint64_t seq) const {
    return entries_.at(seq);
  }
  /// Every entry's decoded event, in sequence order. A payload that does not
  /// decode is skipped: append() writes none, so only a rewritten chain
  /// holds one, and like a dropped entry it shows against an anchor
  /// (verify_against()).
  [[nodiscard]] std::vector<AccessEvent> events() const;
  /// Hash of the newest entry; genesis_hash() when empty.
  [[nodiscard]] Bytes head_hash() const;
  static Bytes genesis_hash();

  /// Appends one event, returns its sequence number. When a WAL is attached
  /// the frame is written and flushed before the in-memory state changes, so
  /// a crash can only ever lose (tear) the newest entry.
  uint64_t append(const AccessEvent& ev);

  // ---- verification -------------------------------------------------------
  /// Recomputes every commitment: sequence monotonicity, prev-hash links and
  /// entry hashes. Detects gaps, reorderings and payload tampering.
  [[nodiscard]] ChainVerdict verify_chain() const;
  /// Chain check plus comparison against an anchored checkpoint: a chain
  /// shorter than the anchored count is kTruncated; one whose prefix digest
  /// differs from the anchored root is kForked.
  [[nodiscard]] ChainVerdict verify_against(const AnchoredCheckpoint& anchor) const;

  // ---- Merkle proofs ------------------------------------------------------
  /// Root over entry hashes [0, count); count ≤ size(), count ≥ 1.
  [[nodiscard]] Bytes merkle_root(uint64_t count) const;
  /// O(log n)-sized inclusion proof for `seq` within [0, count).
  [[nodiscard]] InclusionProof prove(uint64_t seq, uint64_t count) const;
  /// Auditor side: recompute the root from the proof and compare.
  static bool verify_proof(BytesView root, const InclusionProof& proof);

  // ---- checkpoints --------------------------------------------------------
  /// The checkpoint for `epoch`, created on first call and pinned until the
  /// epoch is anchored: retried anchoring must present the *identical*
  /// statement (entries appended meanwhile roll into the next epoch).
  Checkpoint checkpoint_for_epoch(uint64_t epoch, uint64_t now);
  /// Records a fully countersigned checkpoint (and WAL-persists it).
  void record_anchor(AnchoredCheckpoint anchor);
  [[nodiscard]] const std::vector<AnchoredCheckpoint>& anchors() const noexcept {
    return anchors_;
  }
  [[nodiscard]] const AnchoredCheckpoint* last_anchor() const noexcept {
    return anchors_.empty() ? nullptr : &anchors_.back();
  }
  [[nodiscard]] const AnchoredCheckpoint* anchor_for_epoch(uint64_t epoch) const;

  // ---- patient notification stream ---------------------------------------
  /// Emergency-access events queued since the last drain (kAccess kind; TR
  /// traces notify too — the patient wants to know either way).
  std::vector<Notification> drain_notifications();
  [[nodiscard]] size_t pending_notifications() const noexcept {
    return notifications_.size();
  }

  // ---- crash-safe persistence --------------------------------------------
  /// Attaches a write-ahead log at `path` (created if missing; existing
  /// frames are NOT replayed — use recover() for that). Every subsequent
  /// append()/record_anchor() writes-and-flushes one frame.
  bool attach_wal(const std::string& path);
  /// Replays a WAL: reads frames until the first torn/invalid one, truncates
  /// the file to the last valid frame (discarding the torn tail), and
  /// returns a ledger with the WAL re-attached for further appends. Replay
  /// validates each frame against the chain as it goes, so the survivor is
  /// the longest chain-consistent prefix; whether that prefix reaches the
  /// last *anchored* checkpoint is the auditor's question — verify_against()
  /// reports kTruncated/kForked when it does not.
  static Ledger recover(const std::string& path, std::string id,
                        RecoveryReport* report = nullptr);

  /// Adopts entries verbatim — no recomputation, no WAL. This is how tests
  /// (and the recovery path) materialize arbitrary — possibly tampered —
  /// chains for verify_chain()/audit to judge.
  static Ledger from_entries(std::string id, std::vector<LedgerEntry> entries);

 private:
  void wal_frame(uint8_t type, BytesView body);

  std::string id_;
  std::vector<LedgerEntry> entries_;
  std::vector<AnchoredCheckpoint> anchors_;
  std::map<uint64_t, Checkpoint> pending_checkpoints_;
  std::vector<Notification> notifications_;
  std::string wal_path_;
  std::ofstream wal_;
};

}  // namespace hcpp::ledger
