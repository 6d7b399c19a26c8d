// The six HCPP entities (§III.A) and their protocol roles. Client-driven
// protocols (storage, retrieval, privilege, emergency, MHI) are methods on
// the initiating entity; servers expose handle_* methods that verify MACs /
// signatures / freshness and never trust their inputs.
//
// Construction order for a deployment: AServer (owns the IBC domain) →
// SServer / Physician (keys extracted from the domain) → Patient (pseudonym
// issued, then self-rerandomized) → Family / PDevice (receive the privilege
// bundle from the patient). See Deployment in setup.h for a one-call wiring.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/be/broadcast.h"
#include "src/cipher/drbg.h"
#include "src/core/errors.h"
#include "src/core/messages.h"
#include "src/core/mhi_stream.h"
#include "src/core/record.h"
#include "src/ibc/domain.h"
#include "src/ibc/hibc.h"
#include "src/ledger/ledger.h"
#include "src/peks/peks.h"
#include "src/sim/network.h"
#include "src/sse/dynamic.h"
#include "src/store/store.h"

namespace hcpp::sim {
class OnionNetwork;
}

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::core {

class AServer;
class SServer;
class SServerGroup;   // cluster.h — replicated hospital storage (§VI.D)
class AServerCluster;  // cluster.h — replicated state authority (§VI.D)

/// The servers a client protocol addresses: a lone server — a replicated
/// group of one — or a §VI.D replica group. Non-owning and built implicitly
/// at the call site, so each protocol is written once for both (call.h's
/// mirror() and failover() walk the holders).
template <class Server, class Group>
class Target {
 public:
  Target(Server& server) noexcept : server_(&server) {}  // NOLINT: implicit
  Target(Group& group) noexcept : group_(&group) {}      // NOLINT: implicit

  /// The servers holding pseudonym `tp`'s state, in failover order.
  [[nodiscard]] std::vector<Server*> holders(BytesView tp) const {
    if (group_ != nullptr) return group_->holders(tp);
    return {server_};
  }

 private:
  Server* server_ = nullptr;
  Group* group_ = nullptr;
};
using StorageTarget = Target<SServer, SServerGroup>;
using AuthorityTarget = Target<AServer, AServerCluster>;

// ---------------------------------------------------------------------------
/// State A-server: trusted government authority (§III.A). Owns the IBC
/// domain (PKG), tracks on-duty physicians, runs the emergency
/// authentication of §IV.E.2, extracts MHI role keys, and keeps the TR
/// accountability log.
class AServer {
 public:
  AServer(sim::Network& net, const curve::CurveCtx& ctx, std::string id,
          RandomSource& seed);
  /// Replica constructor (§VI.D): joins an existing domain — same master
  /// secret, own identity — so any local office can serve requests.
  AServer(sim::Network& net, const ibc::Domain& shared_domain, std::string id,
          RandomSource& seed);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const ibc::Domain& domain() const noexcept { return domain_; }
  [[nodiscard]] const ibc::PublicParams& pub() const noexcept {
    return domain_.pub();
  }
  [[nodiscard]] const curve::CurveCtx& ctx() const noexcept {
    return domain_.ctx();
  }
  [[nodiscard]] sim::Network& net() const noexcept { return *net_; }

  /// Provisioning: extract Γ_entity (run out-of-band at enrolment).
  [[nodiscard]] curve::Point provision(std::string_view entity_id) const;
  /// Hospital-assisted pseudonym issuance (§IV.B).
  [[nodiscard]] ibc::Domain::Pseudonym issue_pseudonym() const;

  /// The published "today's on-duty physicians" list (§IV.E.2).
  void set_on_duty(const std::string& physician_id, bool on_duty);
  [[nodiscard]] bool is_on_duty(const std::string& physician_id) const;

  /// §IV.E.2 steps 1–3. Returns the two signed outbound messages, or nullopt
  /// when the signature fails, the timestamp is stale, or the physician is
  /// not on duty.
  struct EmergencyAuthOutcome {
    PasscodeToPhysician to_physician;
    PasscodeToPDevice to_pdevice;
  };
  std::optional<EmergencyAuthOutcome> handle_emergency_auth(
      const EmergencyAuthRequest& req);

  /// MHI role-key extraction for an authenticated on-duty physician.
  std::optional<curve::Point> handle_role_key_request(
      const RoleKeyRequest& req);

  /// The TR log (audited in accountability.h): every accepted
  /// handle_emergency_auth appends its trace as a hash-chained kTrace event,
  /// so the audit can detect a truncated/reordered/forked history, not just
  /// bad signatures.
  [[nodiscard]] ledger::Ledger& trace_ledger() noexcept {
    return trace_ledger_;
  }
  [[nodiscard]] const ledger::Ledger& trace_ledger() const noexcept {
    return trace_ledger_;
  }

 private:
  /// The one door both IBS-signed requests open with: the freshness/replay
  /// guard on the signature bytes first, so a replay is refused before any
  /// pairing runs, then a strict signature decode, the physician's IBS over
  /// req.body(), and the on-duty list.
  template <class Req>
  bool admit(const Req& req);

  sim::Network* net_;
  std::string id_;
  ibc::Domain domain_;
  curve::Point self_key_;  // Γ_A (signing / shared keys)
  ibc::SharedKeyDeriver key_deriver_;  // fixed-Γ_A NIKE precomputation
  ibc::IbsSigner signer_;              // fixed-Γ_A IBS signing tables
  std::map<std::string, bool> on_duty_;
  ledger::Ledger trace_ledger_;
  mutable cipher::Drbg rng_;
};

// ---------------------------------------------------------------------------
/// Hospital storage server (§III.A): public, honest-but-curious. Stores
/// per-pseudonym accounts of (SI, Λ, d, BE_U(d)) plus, in its MhiStreamHub,
/// MHI windows; answers searches without learning keywords, contents, or
/// ownership.
class SServer {
 public:
  /// `service_id` is the identity whose Γ_S this server holds for deriving
  /// pairwise keys (ν, ρ). It defaults to `id`; replicas in an SServerGroup
  /// share one service identity while keeping distinct instance ids for
  /// addressing and replay caching, so any replica can serve any client.
  SServer(sim::Network& net, const AServer& authority, std::string id,
          std::string service_id = {});

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const std::string& service_id() const noexcept {
    return service_id_;
  }
  [[nodiscard]] sim::Network& net() const noexcept { return *net_; }

  /// The wire seam: strictly parses the request named by `label`, runs its
  /// handle_* and returns the encoded reply (empty for a bare ack). nullopt
  /// when the bytes do not parse or the handler refuses.
  std::optional<Bytes> dispatch(std::string_view label, BytesView wire);

  // §IV.B — accepts (SI, Λ) plus the privilege material.
  bool handle_store(const StoreRequest& req);
  // §IV.D — owner search with plain trapdoors.
  std::optional<RetrieveResponse> handle_retrieve(const RetrieveRequest& req);
  // §IV.E.1 messages 1–2 — hand out the current BE_{U'}(d).
  std::optional<BeBlobResponse> handle_be_request(const BeBlobRequest& req);
  // §IV.E.1 messages 3–4 — privileged search with θ_d-wrapped trapdoors.
  std::optional<RetrieveResponse> handle_privileged_retrieve(
      const PrivilegedRetrieveRequest& req);
  // Dynamic PHI update (DESIGN.md §12) — O(delta) forward-private
  // ADD/DELETE: append update-log entries, upsert/drop the touched file
  // blobs. The packed index and the base store record are untouched.
  bool handle_update(const UpdateRequest& req);
  // Folds the update log away: replaces the packed index (rebuilt
  // owner-side with fresh randomness) and clears the log.
  bool handle_compact(const CompactRequest& req);
  // §IV.C REVOKE — re-key d and replace BE_U(d).
  bool handle_revoke(const RevokeRequest& req);
  // §IV.E.2 — MHI storage and role-based PEKS search, both answered by the
  // hub, which also tests each landing window against standing queries.
  bool handle_mhi_store(const MhiStoreRequest& req);
  std::optional<MhiRetrieveResponse> handle_mhi_retrieve(
      const MhiRetrieveRequest& req);
  // DESIGN.md §13 — standing-query registration and hit drain.
  bool handle_mhi_register(const MhiRegisterRequest& req);
  std::optional<MhiHitsResponse> handle_mhi_hits(const MhiHitsRequest& req);

  /// The MHI hub: shelved windows and standing trapdoor registrations.
  [[nodiscard]] MhiStreamHub& mhi_hub() noexcept { return mhi_hub_; }
  [[nodiscard]] const MhiStreamHub& mhi_hub() const noexcept {
    return mhi_hub_;
  }
  /// Shards the hub's batched PEKS tests (peks::peks_test_matrix) onto
  /// `pool` (nullptr = serial). The pool must outlive the server.
  void attach_mhi_pool(par::ThreadPool* pool) noexcept { mhi_pool_ = pool; }

  /// ν for a presented pseudonym: ê(Γ_S, TPp).
  [[nodiscard]] Bytes shared_key_for(BytesView tp_bytes) const;
  /// The fixed-Γ_S precomputation behind shared_key_for.
  [[nodiscard]] const ibc::SharedKeyDeriver& nu_deriver() const noexcept {
    return nu_deriver_;
  }

  /// Durable state: everything the hospital must retain across restarts
  /// (accounts and the hub's MHI shelf — all ciphertext). Versioned format;
  /// import replaces the current state and rejects malformed blobs.
  [[nodiscard]] Bytes export_state() const;
  bool import_state(BytesView state);

  /// What the curious server can see — used by the unlinkability tests and
  /// baseline comparison (E5).
  [[nodiscard]] size_t account_count() const noexcept {
    return accounts_.size();
  }
  [[nodiscard]] std::vector<std::string> visible_account_ids() const;
  [[nodiscard]] size_t stored_bytes() const;
  [[nodiscard]] size_t mhi_entry_count() const noexcept {
    return mhi_hub_.shelf().windows();
  }

  /// The account-map key for a pseudonym + collection pair — also the key of
  /// the account's base record in the attached store.
  static std::string account_key(BytesView tp, const std::string& collection);

  /// Attaches a persistent account store (src/store) at `dir`: recovers it,
  /// hydrates the in-memory map from the surviving records, writes through
  /// any in-memory accounts the store is missing, and from then on mirrors
  /// every account mutation into the log. The map stays the serving copy —
  /// the store is the durable one — which is exactly what makes it a
  /// differential oracle: store_consistent() can compare the two byte for
  /// byte at any point. The hub's MHI shelf is not in the store; it is kept
  /// only by export_state (ciphertext-only; see DESIGN.md §11).
  bool attach_store(const std::string& dir,
                    store::StoreRecoveryReport* report = nullptr);
  [[nodiscard]] bool has_store() const noexcept { return store_.is_open(); }
  [[nodiscard]] store::AccountStore& account_store() noexcept {
    return store_;
  }
  [[nodiscard]] const store::AccountStore& account_store() const noexcept {
    return store_;
  }
  /// Differential oracle: true iff the store holds exactly the accounts the
  /// in-memory map does, each serialized byte-identical. Always true without
  /// an attached store.
  [[nodiscard]] bool store_consistent() const;

 private:
  struct Account {
    sse::SecureIndex index;  // replaced whole only by STORE/COMPACT
    sse::EncryptedCollection files;
    sse::UpdateLog log;  // forward-private ADD/DELETE entries
    Bytes d;
    Bytes be_blob;
  };

  /// The one authenticated door every handle_* opens with (DESIGN.md §5):
  /// the key the request type names — ν = ê(Γ_S, TPp) from req.tp, or, for
  /// the role-keyed MHI requests that carry no pseudonym, ρ = ê(PK_r, Γ_S)
  /// from req.role_id — then the MAC, so unauthenticated bytes never enter
  /// the replay cache, then the freshness/replay guard of [26]. Returns the
  /// key, to seal the reply, or nullopt to refuse.
  template <class Req>
  std::optional<Bytes> admit(const Req& req);

  Account* find_account(BytesView tp, const std::string& collection);

  // Store key layout (DESIGN.md §12): an account spans one base record
  // `<key>` (index ‖ d ‖ BE_U(d)) plus one record per file blob
  // (`<key>#f/<hex fid>`) and one per update-log entry (`<key>#l/<label>`),
  // so an UPDATE is O(delta) disk appends and never rewrites the index.
  static std::string file_record_key(const std::string& key, sse::FileId id);
  static std::string log_record_key(const std::string& key,
                                    const std::string& label);
  /// Base-record serialization (index ‖ d ‖ BE_U(d)) — the byte format
  /// store_consistent() compares against.
  static Bytes account_base_bytes(const Account& acct);
  /// Write-through helpers: no-ops when no store is attached.
  void store_put_base(const std::string& key, const Account& acct);
  void store_put_file(const std::string& key, sse::FileId id, BytesView blob);
  void store_erase_file(const std::string& key, sse::FileId id);
  void store_put_log(const std::string& key, const std::string& label,
                     BytesView entry);
  /// Mirrors every record of one account (base + files + log).
  void store_put_all(const std::string& key, const Account& acct);
  /// Erases every record of `acct` (the in-memory image tells us exactly
  /// which sub-records exist — no store-wide key scan).
  void store_erase_all(const std::string& key, const Account& acct);
  void store_put_checked(const std::string& key, BytesView value);
  /// Write-through for whole-map replacement (import_state): rewrites every
  /// account and tombstones store keys the new map no longer has.
  void store_replace_all();

  sim::Network* net_;
  std::string id_;
  std::string service_id_;
  const curve::CurveCtx* ctx_;
  curve::Point self_key_;  // Γ_S (for service_id_)
  ibc::SharedKeyDeriver nu_deriver_;  // fixed-Γ_S ν/ρ precomputation
  std::map<std::string, Account> accounts_;
  MhiStreamHub mhi_hub_;
  par::ThreadPool* mhi_pool_ = nullptr;
  store::AccountStore store_;  // unopened until attach_store()
};

template <class Req>
std::optional<Bytes> SServer::admit(const Req& req) {
  Bytes key;
  try {
    if constexpr (requires { req.tp; }) {
      key = shared_key_for(req.tp);
    } else {
      key = nu_deriver_.with_point(ibc::Domain::public_key(*ctx_, req.role_id));
    }
  } catch (const std::exception&) {
    return std::nullopt;  // malformed or small-order TPp
  }
  if (!protocol_mac_ok(key, Req::kLabel, req.body(), req.t, req.mac) ||
      !net_->accept_fresh(id_, req.mac, req.t, kFreshnessWindowNs)) {
    return std::nullopt;
  }
  return key;
}

template <class Req>
bool AServer::admit(const Req& req) {
  if (!net_->accept_fresh(id_, req.sig, req.t, kFreshnessWindowNs)) {
    return false;
  }
  ibc::IbsSignature sig;
  try {
    sig = ibc::IbsSignature::from_bytes(domain_.ctx(), req.sig);
  } catch (const std::exception&) {
    return false;
  }
  return ibc::ibs_verify(pub(), req.physician_id, req.body(), sig) &&
         is_on_duty(req.physician_id);
}

// ---------------------------------------------------------------------------
/// The privilege bundle of §IV.C's ASSIGN: everything family/P-device need
/// to retrieve on the patient's behalf (TPp, ν, a..d, s, KI, dictionary, X).
struct PrivilegeBundle {
  Bytes tp;  // serialized TPp
  Bytes nu;  // ν — the pairwise key with the S-server (family cannot derive
             // it without Γp, so the patient hands it over directly)
  /// Serialized Γp — included only in the P-device's bundle, which must
  /// decrypt IBE_TPp passcode deliveries (§IV.E.2 step 3). Empty for family.
  Bytes gamma;
  sse::Keys keys;
  KeywordIndex ki;
  std::string collection;
  be::MemberKeys member_keys;  // X
  /// Aliases per logical keyword in the stored index (§VI.B countermeasure).
  uint32_t alias_count = 1;
  /// Per-keyword update-chain positions as of the ASSIGN. Privileged
  /// entities search the collection as of this point — they cannot derive
  /// post-assignment states (forward privacy working as specified).
  sse::UpdateState update_state;

  [[nodiscard]] Bytes to_bytes() const;
  static PrivilegeBundle from_bytes(BytesView b);
};

// ---------------------------------------------------------------------------
/// Patient (§III.A): person + computing facilities. Owns the SSE keys, the
/// keyword index, the pseudonym and the broadcast-encryption group.
class Patient {
 public:
  Patient(sim::Network& net, std::string name, RandomSource& seed);

  /// §IV.A+B setup: obtain a temporary key pair from the hospital's
  /// authority and self-rerandomize it, generate SSE keys and the BE group.
  void setup(const AServer& authority, const std::string& sserver_id);

  /// Registers freshly created PHI files (after a diagnosis/test).
  void add_files(std::vector<sse::PlainFile> files);

  /// §VI.B category-1 countermeasure: index each logical keyword under `n`
  /// aliases; retrievals rotate through them so the server cannot tell two
  /// searches for the same keyword apart. Call before try_store_phi. n >= 1.
  void set_keyword_aliases(size_t n);
  [[nodiscard]] const std::vector<sse::PlainFile>& files() const noexcept {
    return files_;
  }

  /// Dynamic PHI update (DESIGN.md §12): registers `added` files (upsert by
  /// id) and tombstones `removed` ids, shipping O(delta) forward-private
  /// log inserts plus only the touched blobs — no index rebuild, no
  /// whole-collection re-encryption. Local state (files, KI, counters)
  /// commits unconditionally; the generated labels are deterministic, so a
  /// transport retry re-sends identical records. Returns how many replicas
  /// applied the update (see mirror() in call.h).
  Result<size_t> try_update_phi(StorageTarget storage,
                                std::vector<sse::PlainFile> added,
                                std::span<const sse::FileId> removed = {});

  /// COMPACT: folds the accumulated update log back into a freshly built
  /// packed index (new randomness) and resets the counters under a bumped
  /// epoch. Local state commits only on success; an applied-but-unacked
  /// compaction is still safe (stale dynamic trapdoors degrade to the
  /// rebuilt static index, which already contains every live file).
  Result<void> try_compact_phi(SServer& server);

  [[nodiscard]] const sse::UpdateState& update_state() const noexcept {
    return update_state_;
  }

  /// §IV.B: build SI + KI on the home PC and upload (SI, Λ, d, BE_U(d)) to
  /// every replica holding the account. Returns how many applied it.
  Result<size_t> try_store_phi(StorageTarget storage);

  /// §IV.D: one-round keyword retrieval; decrypts Λ(kw) on the cell phone.
  /// Fails over replica by replica (§VI.D).
  Result<std::vector<sse::PlainFile>> try_retrieve(
      StorageTarget storage, std::span<const std::string> keywords);

  // §VI.B countermeasure: the same two protocols carried over the anonymous
  // onion overlay, so the S-server (and any network observer past the entry
  // relay) sees only the exit relay as the traffic origin.
  bool store_phi_anonymous(SServer& server, sim::OnionNetwork& onion);
  [[nodiscard]] std::vector<sse::PlainFile> retrieve_anonymous(
      SServer& server, sim::OnionNetwork& onion,
      std::span<const std::string> keywords);

  /// §IV.C ASSIGN: seal the privilege bundle for member slot `slot` under
  /// the pre-shared key μ. `include_gamma` adds Γp (P-device bundles only).
  [[nodiscard]] Bytes make_sealed_bundle(size_t slot, BytesView mu,
                                         bool include_gamma = false);

  /// §IV.C REVOKE: re-key d, re-broadcast, and mirror the one re-keying to
  /// every replica holding the account. Returns how many applied it; a
  /// replica left out keeps honoring revoked trapdoors until the next
  /// SServerGroup::sync_replicas, so the patient should retry on failure.
  Result<size_t> try_revoke_member(StorageTarget storage, size_t slot);

  [[nodiscard]] const ibc::Domain::Pseudonym& pseudonym() const noexcept {
    return pseudonym_;
  }
  [[nodiscard]] Bytes tp_bytes() const;
  [[nodiscard]] const sse::Keys& keys() const noexcept { return keys_; }
  [[nodiscard]] const KeywordIndex& keyword_index() const noexcept {
    return ki_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& collection() const noexcept {
    return collection_;
  }
  [[nodiscard]] Bytes shared_key_nu() const;  // ν with the S-server
  [[nodiscard]] RandomSource& rng() noexcept { return rng_; }
  [[nodiscard]] sim::Network& net() const noexcept { return *net_; }

 private:
  sim::Network* net_;
  std::string name_;
  std::string sserver_id_;
  std::string collection_ = "phi-main";
  const curve::CurveCtx* ctx_ = nullptr;
  ibc::Domain::Pseudonym pseudonym_;
  Bytes nu_;  // ν with the S-server, fixed once setup() pins the pseudonym
  sse::Keys keys_;
  KeywordIndex ki_;
  std::vector<sse::PlainFile> files_;
  std::unique_ptr<be::BroadcastGroup> be_group_;
  size_t alias_count_ = 1;
  std::map<std::string, size_t> alias_cursor_;  // per-keyword rotation
  sse::UpdateState update_state_;  // per-alias update-chain counters
  mutable cipher::Drbg rng_;

  /// Logical keyword -> the alias to search this time (rotating).
  [[nodiscard]] std::string next_alias(const std::string& kw);
  /// Wire trapdoors for a keyword batch: rotates aliases and emits the
  /// 100-byte dynamic encoding for updated keywords, the legacy 60-byte
  /// static one otherwise (so never-updated flows stay byte-identical).
  [[nodiscard]] std::vector<Bytes> make_trapdoor_blobs(
      std::span<const std::string> keywords);
  /// Shared body of try_update_phi: commits local state and builds the
  /// request (update.cpp).
  UpdateRequest build_update_request(std::vector<sse::PlainFile> added,
                                     std::span<const sse::FileId> removed);
};

// ---------------------------------------------------------------------------
/// Family (§III.A): trusted person holding the privilege bundle; can run
/// the 4-message emergency retrieval of §IV.E.1.
class Family {
 public:
  Family(sim::Network& net, std::string name);

  /// Receives E'_μ(bundle) from the patient (local link).
  bool receive_bundle(BytesView sealed, BytesView mu);
  [[nodiscard]] bool has_bundle() const noexcept {
    return bundle_.has_value();
  }
  [[nodiscard]] const PrivilegeBundle& bundle() const { return *bundle_; }

  /// §IV.E.1: recover the current d from BE_{U'}(d), submit θ_d-wrapped
  /// trapdoors, decrypt the returned files. kRevoked when outside the
  /// current broadcast cover; fails over replica by replica (§VI.D).
  Result<std::vector<sse::PlainFile>> try_emergency_retrieve(
      StorageTarget storage, std::span<const std::string> keywords);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  sim::Network* net_;
  std::string name_;
  std::optional<PrivilegeBundle> bundle_;
};

// ---------------------------------------------------------------------------
/// P-device (§III.A): the patient-owned device for sudden emergencies. Runs
/// the passcode-gated emergency retrieval of §IV.E.2, collects and stores
/// MHI, keeps the RD accountability log, and alerts the patient whenever
/// its retrieval secrets are touched (§VI.A countermeasure).
class PDevice {
 public:
  PDevice(sim::Network& net, std::string id, RandomSource& seed);

  bool receive_bundle(BytesView sealed, BytesView mu);
  [[nodiscard]] bool has_bundle() const noexcept {
    return bundle_.has_value();
  }
  [[nodiscard]] const PrivilegeBundle& bundle() const { return *bundle_; }

  /// The emergency button: arms the device and connects to the A-server.
  void press_emergency_button();

  /// A-server → P-device delivery (§IV.E.2 step 3). Verifies the A-server's
  /// IBS and decrypts the nonce with the bundled Γp.
  bool deliver_passcode(const AServer& authority,
                        const PasscodeToPDevice& msg);

  /// The physician physically types (ID, nonce). One attempt per delivered
  /// passcode; success opens a retrieval session bound to that physician.
  bool enter_passcode(const std::string& physician_id, BytesView nonce);

  /// §IV.E.2 PHI retrieval: dictionary-checked keywords, family-style
  /// 4-message exchange, RD record appended. Requires an open session.
  Result<std::vector<sse::PlainFile>> try_emergency_retrieve(
      StorageTarget storage, std::span<const std::string> keywords);

  // ---- MHI (§IV.E.2) ----
  void collect_mhi(MhiWindow window);
  /// Encrypts each collected window under `role_id` with IBE, tags it with
  /// PEKS keywords (the window's day plus `extra_keywords`), uploads —
  /// through the same per-epoch encryptor as try_stream_mhi.
  Result<void> try_store_mhi(const AServer& authority, SServer& server,
                             const std::string& role_id,
                             std::span<const std::string> extra_keywords);

  /// Streaming upload (DESIGN.md §13): encrypts and uploads ONE window for
  /// the current role epoch, with the per-epoch pairings cached across
  /// calls (first window of an epoch pays them; the rest are pairing-free).
  /// Passing a different `role_id` than the previous call rolls the epoch.
  Result<void> try_stream_mhi(const AServer& authority, SServer& server,
                              const std::string& role_id,
                              const MhiWindow& window,
                              std::span<const std::string> extra_keywords);
  /// The streaming encryptor's current epoch, empty when none started.
  [[nodiscard]] std::string mhi_stream_epoch() const {
    return mhi_ingestor_ ? mhi_ingestor_->role_id() : std::string{};
  }

  /// §VI.A: count of "your secrets were accessed" alerts sent to the
  /// patient's phone.
  [[nodiscard]] int alert_count() const noexcept { return alerts_; }

  /// The RD log (audited in accountability.h): every emergency retrieval
  /// appends its record as a hash-chained kAccess event and queues a patient
  /// notification (Ledger::drain_notifications — the phone's alert feed).
  [[nodiscard]] ledger::Ledger& rd_ledger() noexcept { return rd_ledger_; }
  [[nodiscard]] const ledger::Ledger& rd_ledger() const noexcept {
    return rd_ledger_;
  }

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  /// The one MHI upload both entry points share: `window` encoded by the
  /// streaming encryptor (started or rolled to `role_id`), sealed under ν,
  /// sent as one MhiStoreRequest.
  Result<void> send_mhi_window(const AServer& authority, SServer& server,
                               const std::string& role_id,
                               const MhiWindow& window,
                               std::span<const std::string> extra_keywords,
                               std::string_view what,
                               uint32_t* attempts = nullptr);

  sim::Network* net_;
  std::string id_;
  std::optional<PrivilegeBundle> bundle_;
  bool emergency_mode_ = false;
  std::optional<Bytes> pending_nonce_;
  std::optional<std::string> pending_physician_;
  std::optional<std::string> session_physician_;
  uint64_t session_t11_ = 0;
  Bytes session_aserver_sig_;
  std::vector<MhiWindow> mhi_;
  std::optional<MhiIngestor> mhi_ingestor_;  // lazy, rolled per epoch
  ledger::Ledger rd_ledger_;
  int alerts_ = 0;
  mutable cipher::Drbg rng_;
};

// ---------------------------------------------------------------------------
/// Physician (§III.A): healthcare provider + workstation. Authenticates to
/// the A-server with IBS for emergency access and MHI role keys.
class Physician {
 public:
  Physician(sim::Network& net, const AServer& authority, std::string id);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

  /// §IV.E.2 steps 1–2: request the one-time passcode for the patient whose
  /// pseudonym the P-device displays. On success the A-server has also
  /// pushed the IBE-wrapped passcode to the P-device (step 3), which the
  /// caller delivers via PDevice::deliver_passcode. Against an
  /// AServerCluster a timed-out office fails over to the next (§VI.D); on
  /// success `serving_office` (if non-null) receives the index of the office
  /// that answered, so the caller can address follow-up messages to it.
  struct PasscodeResult {
    Bytes nonce;                   // the decrypted one-time passcode
    PasscodeToPDevice for_device;  // step-3 message to forward
  };
  Result<PasscodeResult> try_request_passcode(AuthorityTarget authority,
                                              BytesView patient_tp,
                                              size_t* serving_office = nullptr);

  /// MHI: obtain Γr for a role identity (on-duty only).
  Result<curve::Point> try_request_role_key(AServer& authority,
                                            const std::string& role_id);

  /// MHI retrieval (§IV.E.2): compute TDr(kw), search, decrypt with Γr.
  Result<std::vector<MhiWindow>> try_retrieve_mhi(
      SServer& server, const std::string& role_id,
      const curve::Point& role_key, std::string_view keyword);

  /// Standing query (DESIGN.md §13): parks TDr(kw) on the S-server so every
  /// window landing for `role_id` is tested immediately; matched windows
  /// queue up server-side until try_fetch_mhi_hits drains them.
  Result<void> try_register_mhi(SServer& server, const std::string& role_id,
                                const curve::Point& role_key,
                                std::string_view keyword);
  /// Drains and decrypts the hits this physician's standing query matched.
  Result<std::vector<MhiWindow>> try_fetch_mhi_hits(
      SServer& server, const std::string& role_id,
      const curve::Point& role_key);

 private:
  sim::Network* net_;
  std::string id_;
  const curve::CurveCtx* ctx_;
  ibc::PublicParams authority_pub_;
  std::string authority_id_;
  curve::Point private_key_;  // Γ_i
  ibc::SharedKeyDeriver key_deriver_;  // fixed-Γ_i NIKE precomputation
  ibc::IbsSigner signer_;              // fixed-Γ_i IBS signing tables
  mutable cipher::Drbg rng_;
};

}  // namespace hcpp::core
