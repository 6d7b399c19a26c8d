// Wire messages for every HCPP protocol (§IV.B–E). Each request/response is
// HMAC-authenticated under the appropriate pairwise key (the paper's ν, ϖ, ρ)
// and carries a timestamp for the freshness/replay guard of [26], or is
// IBS-signed. Every type states its field layout once (`fields`, plus `auth`
// for signed types); body(), to_wire() and the strict from_wire() are all
// derived from it. body() is what the MAC or signature covers; to_wire() is
// the body as one length-prefixed block followed by the authenticator, and
// it is the only thing that crosses the S-server boundary
// (SServer::dispatch) and what the network simulator charges.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/ibc/ibe.h"
#include "src/ibc/ibs.h"
#include "src/sse/sse.h"

namespace hcpp::core {

/// Freshness window for all protocol timestamps.
inline constexpr uint64_t kFreshnessWindowNs = 120'000'000'000ull;  // 2 min

/// MAC = HMAC_key(label ‖ body ‖ timestamp).
Bytes protocol_mac(BytesView key, std::string_view label, BytesView body,
                   uint64_t timestamp_ns);
bool protocol_mac_ok(BytesView key, std::string_view label, BytesView body,
                     uint64_t timestamp_ns, BytesView mac);

/// The send side of every MAC'd exchange (DESIGN.md §5): stamps `msg` with
/// `now` and its MAC under `key`. A request seals under its own kLabel, a
/// reply under its request's; open_reply (call.h) and SServer::admit are
/// the receive sides.
template <class M>
void seal(M& msg, BytesView key, std::string_view label, uint64_t now) {
  msg.t = now;
  msg.mac = protocol_mac(key, label, msg.body(), now);
}

namespace wire {

/// A body slot the signer and the recipient both already know (the
/// recipient's identity or pseudonym): signed over, never sent.
struct Known {};
inline constexpr Known kKnown{};
/// A fixed string inside a signed body (the paper's m').
struct Tag {
  std::string_view text;
};

/// Field encoder. `known` fills the Known slots in order (the signed form);
/// left empty, the slots are skipped (the sent form).
struct Encoder {
  io::Writer& w;
  std::span<const BytesView> known = {};

  template <class... F>
  void operator()(const F&... f) {
    (put(f), ...);
  }
  void put(const Known&) {
    if (known.empty()) return;
    w.bytes(known.front());
    known = known.subspan(1);
  }
  void put(const Tag& t) { w.str(t.text); }
  void put(const Bytes& b) { w.bytes(b); }
  void put(const std::string& s) { w.str(s); }
  void put(uint64_t v) { w.u64(v); }
  template <class A, class B>
  void put(const std::pair<A, B>& p) {
    put(p.first);
    put(p.second);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    w.u32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) put(e);
  }
};

/// Fewest bytes one encoded T can occupy (bounds untrusted element counts).
template <class T>
constexpr size_t min_size() {
  if constexpr (std::is_same_v<T, uint64_t>) {
    return 8;
  } else if constexpr (requires { typename T::first_type; }) {
    return min_size<typename T::first_type>() +
           min_size<typename T::second_type>();
  } else {
    return 4;  // u32 length or count prefix
  }
}

/// Field decoder; throws std::out_of_range / std::invalid_argument.
struct Decoder {
  io::Reader& r;

  template <class... F>
  void operator()(F&... f) {
    (get(f), ...);
  }
  void get(const Known&) {}
  void get(const Tag& t) {
    if (r.str() != t.text) throw std::invalid_argument("wire: bad tag");
  }
  void get(Bytes& b) { b = r.bytes(); }
  void get(std::string& s) { s = r.str(); }
  void get(uint64_t& v) { v = r.u64(); }
  template <class A, class B>
  void get(std::pair<A, B>& p) {
    get(p.first);
    get(p.second);
  }
  template <class T>
  void get(std::vector<T>& v) {
    v.resize(r.count32(min_size<T>()));
    for (T& e : v) get(e);
  }
};

template <class Fields>
Bytes encode(const Fields& fields, std::span<const BytesView> known = {}) {
  io::Writer w;
  std::apply(Encoder{w, known}, fields);
  return w.take();
}

/// The authenticator after the body: `auth` for signed types, otherwise the
/// timestamp and MAC.
template <class M>
auto auth(M& m) {
  if constexpr (requires { std::remove_const_t<M>::auth(m); }) {
    return std::remove_const_t<M>::auth(m);
  } else {
    return std::tie(m.t, m.mac);
  }
}

template <class M>
Bytes to_wire(const M& m) {
  io::Writer w;
  w.bytes(encode(M::fields(m)));
  std::apply(Encoder{w}, auth(m));
  return w.take();
}

/// Strict: the frame and the body must both be consumed exactly, so the body
/// a receiver re-encodes for its MAC/signature check is byte-equal to the
/// one it received.
template <class M>
M from_wire(BytesView bytes) {
  M m;
  io::Reader frame(bytes);
  Bytes body = frame.bytes();
  io::Reader r(body);
  std::apply(Decoder{r}, M::fields(m));
  std::apply(Decoder{frame}, auth(m));
  r.expect_done("wire");
  frame.expect_done("wire");
  return m;
}

}  // namespace wire

/// body(), to_wire() and from_wire(), derived from the type's layout.
#define HCPP_WIRE_CODEC(T)                                                 \
  [[nodiscard]] Bytes body() const { return wire::encode(fields(*this)); } \
  [[nodiscard]] Bytes to_wire() const { return wire::to_wire(*this); }     \
  static T from_wire(BytesView b) { return wire::from_wire<T>(b); }

// ---- §IV.B private PHI storage: patient → S-server, one message ----------
struct StoreRequest {
  static constexpr std::string_view kLabel = "phi-storage";
  Bytes tp;                // TPp (serialized point)
  std::string collection;  // collection label (one patient may keep several)
  Bytes index;             // serialized sse::SecureIndex
  Bytes files;             // serialized sse::EncryptedCollection
  Bytes d;                 // current privilege key (server-held, §IV.C)
  Bytes be_blob;           // BE_U(d)
  uint64_t t = 0;          // t1
  Bytes mac;               // HMAC_ν

  static auto fields(auto& m) {
    return std::tie(m.tp, m.collection, m.index, m.files, m.d, m.be_blob);
  }
  HCPP_WIRE_CODEC(StoreRequest)
};

// ---- §IV.D common-case retrieval ------------------------------------------
struct RetrieveRequest {
  static constexpr std::string_view kLabel = "phi-retrieval";
  Bytes tp;
  std::string collection;
  std::vector<Bytes> trapdoors;  // TD(kw), possibly several keywords
  uint64_t t = 0;                // t4
  Bytes mac;

  static auto fields(auto& m) {
    return std::tie(m.tp, m.collection, m.trapdoors);
  }
  HCPP_WIRE_CODEC(RetrieveRequest)
};

/// Λ(kw): the answer to both the owner (§IV.D) and the privileged (§IV.E.1)
/// retrieval, MAC'd under the request's label.
struct RetrieveResponse {
  std::vector<std::pair<sse::FileId, Bytes>> files;  // Λ(kw)
  uint64_t t = 0;                                    // t5
  Bytes mac;

  static auto fields(auto& m) { return std::tie(m.files); }
  HCPP_WIRE_CODEC(RetrieveResponse)
};

// ---- §IV.E.1 family-based emergency retrieval -----------------------------
struct BeBlobRequest {
  static constexpr std::string_view kLabel = "emergency-be-request";
  Bytes tp;
  std::string collection;
  uint64_t t = 0;  // t6
  Bytes mac;

  static auto fields(auto& m) { return std::tie(m.tp, m.collection); }
  HCPP_WIRE_CODEC(BeBlobRequest)
};

struct BeBlobResponse {
  Bytes be_blob;  // BE_{U'}(d)
  uint64_t t = 0;  // t7
  Bytes mac;

  static auto fields(auto& m) { return std::tie(m.be_blob); }
  HCPP_WIRE_CODEC(BeBlobResponse)
};

/// Messages 3–4.
struct PrivilegedRetrieveRequest {
  static constexpr std::string_view kLabel = "emergency-privileged-retrieval";
  Bytes tp;
  std::string collection;
  std::vector<Bytes> wrapped_trapdoors;  // TD_U(kw) = θ_d(TD(kw))
  uint64_t t = 0;                        // t8
  Bytes mac;

  static auto fields(auto& m) {
    return std::tie(m.tp, m.collection, m.wrapped_trapdoors);
  }
  HCPP_WIRE_CODEC(PrivilegedRetrieveRequest)
};

// ---- Dynamic PHI update (DESIGN.md §12) -----------------------------------
/// O(delta) ADD/DELETE: forward-private update-log inserts plus the touched
/// file blobs — the whole-account re-upload of StoreRequest becomes an
/// append proportional to the change.
struct UpdateRequest {
  static constexpr std::string_view kLabel = "phi-update";
  Bytes tp;
  std::string collection;
  /// (label, entry) pairs for the server's update log (sse::LogInsert).
  std::vector<std::pair<std::string, Bytes>> log_inserts;
  /// Freshly encrypted blobs for added files (per-file AEAD, not the whole
  /// collection).
  std::vector<std::pair<sse::FileId, Bytes>> files_upsert;
  /// File ids whose blobs the server should drop (DELETE tombstones make
  /// them unreachable via SEARCH; dropping the blob reclaims the bytes).
  std::vector<sse::FileId> files_remove;
  uint64_t t = 0;
  Bytes mac;  // HMAC_ν

  static auto fields(auto& m) {
    return std::tie(m.tp, m.collection, m.log_inserts, m.files_upsert,
                    m.files_remove);
  }
  HCPP_WIRE_CODEC(UpdateRequest)
};

/// COMPACT: replace the packed index with one rebuilt (fresh randomness)
/// from the owner's live file set and clear the update log. Counters reset
/// owner-side (epoch bump), so post-compaction trapdoors are purely static
/// until the next update.
struct CompactRequest {
  static constexpr std::string_view kLabel = "phi-compact";
  Bytes tp;
  std::string collection;
  Bytes index;  // serialized sse::SecureIndex
  uint64_t t = 0;
  Bytes mac;  // HMAC_ν

  static auto fields(auto& m) {
    return std::tie(m.tp, m.collection, m.index);
  }
  HCPP_WIRE_CODEC(CompactRequest)
};

// ---- §IV.C REVOKE ----------------------------------------------------------
struct RevokeRequest {
  static constexpr std::string_view kLabel = "privilege-revoke";
  Bytes tp;
  std::string collection;
  Bytes sealed;    // E'_ν(d' ‖ BE'_{U'}(d'))
  uint64_t t = 0;  // t3
  Bytes mac;

  static auto fields(auto& m) {
    return std::tie(m.tp, m.collection, m.sealed);
  }
  HCPP_WIRE_CODEC(RevokeRequest)
};

// ---- §IV.E.2 emergency authentication (physician ↔ A-server ↔ P-device) ---
struct EmergencyAuthRequest {
  static constexpr std::string_view kLabel = "emergency-auth";
  static constexpr wire::Tag kM{"passcode-request"};  // the paper's m'
  std::string physician_id;
  Bytes tp;        // the patient pseudonym read off the P-device
  uint64_t t = 0;  // t10
  Bytes sig;       // IBS_Γi(id ‖ m' ‖ tp ‖ t10)

  static auto fields(auto& m) {
    return std::tie(m.physician_id, kM, m.tp, m.t);
  }
  static auto auth(auto& m) { return std::tie(m.sig); }
  HCPP_WIRE_CODEC(EmergencyAuthRequest)
};

struct PasscodeToPhysician {
  Bytes enc_nonce;  // E'_ϖ(nonce)
  uint64_t t = 0;   // t11
  Bytes sig;        // IBS_ΓA(id ‖ tp ‖ enc ‖ t11)

  static auto fields(auto& m) {
    return std::tie(wire::kKnown, wire::kKnown, m.enc_nonce, m.t);
  }
  static auto auth(auto& m) { return std::tie(m.sig); }
  HCPP_WIRE_CODEC(PasscodeToPhysician)
  /// The signed form: the recipient's id and the patient's TPp included.
  [[nodiscard]] Bytes body(std::string_view physician_id, BytesView tp) const {
    const BytesView known[] = {
        {reinterpret_cast<const uint8_t*>(physician_id.data()),
         physician_id.size()},
        tp};
    return wire::encode(fields(*this), known);
  }
};

struct PasscodeToPDevice {
  std::string physician_id;
  Bytes ibe_blob;  // IBE_TPp(id ‖ nonce ‖ t11)
  uint64_t t = 0;  // t11
  Bytes sig;       // IBS_ΓA(id ‖ tp ‖ blob ‖ t11)
  /// Compact signed statement IBS_ΓA(rd_statement(id, tp, t11)) that the
  /// P-device stores inside its RD record, so the patient can later prove
  /// the transaction to third parties without keeping the bulky IBE blob.
  Bytes audit_sig;

  static auto fields(auto& m) {
    return std::tie(m.physician_id, wire::kKnown, m.ibe_blob, m.t);
  }
  static auto auth(auto& m) { return std::tie(m.sig, m.audit_sig); }
  HCPP_WIRE_CODEC(PasscodeToPDevice)
  /// The signed form: the device's own TPp included.
  [[nodiscard]] Bytes body(BytesView tp) const {
    return wire::encode(fields(*this), std::span(&tp, 1));
  }
};

/// The statement the A-server's audit_sig covers.
Bytes rd_statement(std::string_view physician_id, BytesView tp, uint64_t t11);

// ---- §IV.E.2 MHI -----------------------------------------------------------
struct MhiStoreRequest {
  static constexpr std::string_view kLabel = "mhi-storage";
  Bytes tp;
  std::string role_id;           // IDr = Date ‖ Duty ‖ ServiceArea
  std::vector<Bytes> peks_tags;  // PEKS_σ(IDr, kw), one per keyword
  Bytes ibe_blob;                // IBE_IDr(MHI window)
  uint64_t t = 0;                // t12
  Bytes mac;                     // HMAC_ν

  static auto fields(auto& m) {
    return std::tie(m.tp, m.role_id, m.peks_tags, m.ibe_blob);
  }
  HCPP_WIRE_CODEC(MhiStoreRequest)
};

struct RoleKeyRequest {
  static constexpr std::string_view kLabel = "mhi-role-key";
  std::string physician_id;
  std::string role_id;
  uint64_t t = 0;
  Bytes sig;  // IBS_Γi

  static auto fields(auto& m) {
    return std::tie(m.physician_id, m.role_id, m.t);
  }
  static auto auth(auto& m) { return std::tie(m.sig); }
  HCPP_WIRE_CODEC(RoleKeyRequest)
};

struct MhiRetrieveRequest {
  static constexpr std::string_view kLabel = "mhi-retrieval";
  std::string physician_id;
  std::string role_id;
  Bytes trapdoor;  // TDr(kw)
  uint64_t t = 0;  // t13
  Bytes mac;       // HMAC_ρ

  static auto fields(auto& m) {
    return std::tie(m.physician_id, m.role_id, m.trapdoor);
  }
  HCPP_WIRE_CODEC(MhiRetrieveRequest)
};

struct MhiRetrieveResponse {
  std::vector<Bytes> ibe_blobs;  // matching IBE_IDr(MHI)
  uint64_t t = 0;                // t14
  Bytes mac;

  static auto fields(auto& m) { return std::tie(m.ibe_blobs); }
  HCPP_WIRE_CODEC(MhiRetrieveResponse)
};

/// Standing-query registration (DESIGN.md §13): the on-duty physician parks
/// TDr(kw) on the S-server, which then tests it against every MHI window as
/// it lands instead of waiting for a retrieval poll.
struct MhiRegisterRequest {
  static constexpr std::string_view kLabel = "mhi-register";
  std::string physician_id;
  std::string role_id;
  Bytes trapdoor;  // TDr(kw)
  uint64_t t = 0;
  Bytes mac;  // HMAC_ρ

  static auto fields(auto& m) {
    return std::tie(m.physician_id, m.role_id, m.trapdoor);
  }
  HCPP_WIRE_CODEC(MhiRegisterRequest)
};

/// Drains the hits a standing registration has queued for this physician.
struct MhiHitsRequest {
  static constexpr std::string_view kLabel = "mhi-hits";
  std::string physician_id;
  std::string role_id;
  uint64_t t = 0;
  Bytes mac;  // HMAC_ρ

  static auto fields(auto& m) { return std::tie(m.physician_id, m.role_id); }
  HCPP_WIRE_CODEC(MhiHitsRequest)
};

struct MhiHitsResponse {
  std::vector<Bytes> ibe_blobs;  // matched IBE_IDr(window)s, oldest first
  uint64_t t = 0;
  Bytes mac;

  static auto fields(auto& m) { return std::tie(m.ibe_blobs); }
  HCPP_WIRE_CODEC(MhiHitsResponse)
};

#undef HCPP_WIRE_CODEC

}  // namespace hcpp::core
