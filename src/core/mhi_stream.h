// Streaming MHI pipeline (DESIGN.md §13): the continuous body-area-network
// workload of RSPP layered over §IV.E.2's one-shot MHI protocol. P-devices
// emit sensor windows at high rate; the S-server holds *standing* trapdoor
// registrations for the on-duty physicians, tests every window's PEKS tags
// as they land and queues hits for real-time delivery.
//
// Every pairing on the path is amortized:
//   * Ingest (MhiIngestor): g_r = ê(PK_r, Ppub) and the IBE base are cached
//     per role epoch, so a steady-state window costs Gt exponentiations and
//     fixed-base generator muls only — no pairing, no hash-to-point.
//   * Match (MhiStreamHub): each registration caches the trapdoor's Miller
//     lines, so a landing window pays one precomputed Miller loop per
//     (registration, tag) pair and ONE batched final exponentiation.
//   * Epoch rollover: IDr = Date‖Duty‖ServiceArea changes → expire_role()
//     drops stale registrations server-side and roll_epoch() rolls the
//     encrypt-side cache, so tags and trapdoors from different epochs never
//     cross-match (distinct H1 preimages).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/core/record.h"
#include "src/ibc/ibe.h"
#include "src/peks/peks.h"

namespace hcpp::core {

/// Composes the role identity IDr = Date ‖ Duty ‖ ServiceArea (§IV.E.2),
/// e.g. mhi_role_id("2011-04-12", "emergency", "gainesville").
std::string mhi_role_id(std::string_view date, std::string_view duty,
                        std::string_view service_area);

// ---------------------------------------------------------------------------
/// P-device side of the stream: encrypts windows for the current role epoch
/// with every per-epoch pairing hoisted out of the loop.
class MhiIngestor {
 public:
  MhiIngestor(const ibc::PublicParams& pub, std::string role_id);

  struct EncodedWindow {
    std::vector<Bytes> peks_tags;  // PEKS_σ(IDr, kw), serialized
    Bytes ibe_blob;                // IBE_IDr(window), serialized
  };

  /// IBE-encrypts `win` under the current epoch's role identity and tags it
  /// with PEKS over "day:<win.day>" plus `extra_keywords`. Bit-identical to
  /// the cold path (ibe_encrypt + peks_encrypt) for the same RNG stream.
  EncodedWindow encode(const MhiWindow& win,
                       std::span<const std::string> extra_keywords,
                       RandomSource& rng);

  /// Epoch rollover: subsequent windows are addressed to `new_role_id`; the
  /// stale epoch's cached pairing bases are dropped.
  void roll_epoch(const std::string& new_role_id);

  [[nodiscard]] const std::string& role_id() const noexcept {
    return role_id_;
  }
  /// Role epochs currently held in the PEKS g_r cache (1 after a roll).
  [[nodiscard]] size_t cached_roles() const noexcept {
    return peks_.cached_roles();
  }

 private:
  ibc::PublicParams pub_;
  std::string role_id_;
  peks::PeksEncryptor peks_;
  ibc::IbePrecomputed ibe_;  // ê(H1(IDr), Ppub) for the current epoch
};

// ---------------------------------------------------------------------------
/// One matched window queued for a standing registration's owner.
struct MhiHit {
  std::string role_id;
  Bytes ibe_blob;  // IBE_IDr(window) — only the role-key holder can open it
};

/// S-server side of MHI, the one holder of stored windows and standing
/// registrations. Both are tested through peks::peks_test_matrix.
class MhiStreamHub {
 public:
  explicit MhiStreamHub(const curve::CurveCtx& ctx) : ctx_(&ctx) {}

  /// Stored windows by role id. A role's tags lie back to back in arrival
  /// order; window i owns tags [ends[i − 1], ends[i]) and blobs[i].
  struct Shelf {
    struct Role {
      std::vector<peks::PeksCiphertext> tags;
      std::vector<size_t> ends;
      std::vector<Bytes> blobs;  // IBE_IDr(window)
    };
    std::map<std::string, Role, std::less<>> roles;

    [[nodiscard]] size_t windows() const noexcept {
      size_t n = 0;
      for (const auto& [role_id, role] : roles) n += role.ends.size();
      return n;
    }
    [[nodiscard]] size_t bytes() const noexcept;  // serialized tags + blobs
    /// The MHI part of SServer's v2 state: a u32 window count, then per
    /// window (role order, then arrival order) its role id, a u32 tag
    /// count, the tags and the blob. read() throws on malformed input.
    void write(io::Writer& w) const;
    static Shelf read(const curve::CurveCtx& ctx, io::Reader& r);
  };

  /// Parks TDr(kw) for `physician_id`, its Miller lines cached once. A
  /// re-registration for the same role replaces it (one query per role).
  void register_trapdoor(const std::string& physician_id,
                         const std::string& role_id,
                         const peks::Trapdoor& td);

  /// Epoch rollover: drops and counts `role_id`'s standing registrations
  /// (they never match another epoch's tags). Hits and the shelf stay.
  size_t expire_role(const std::string& role_id);

  /// Tests a landing window against its role's standing registrations in
  /// one peks_test_matrix call; each match queues one MhiHit for its
  /// physician. Returns the number of hits queued. Shelves nothing.
  size_t ingest(const std::string& role_id,
                std::span<const peks::PeksCiphertext> tags,
                const Bytes& ibe_blob, par::ThreadPool* pool = nullptr);

  /// §IV.E.2 MHI storage: ingest(), then moves the window onto its role's
  /// shelf. Returns the number of hits queued.
  size_t shelve(const std::string& role_id,
                std::vector<peks::PeksCiphertext> tags, Bytes ibe_blob,
                par::ThreadPool* pool = nullptr);

  /// One-shot search (§IV.E.2 RETRIEVE_MHI): the blobs of `role_id`'s
  /// shelved windows with a tag matching `td`, in arrival order, from one
  /// peks_test_batch over the role's tags.
  [[nodiscard]] std::vector<Bytes> search(
      const std::string& role_id, const peks::Trapdoor& td,
      par::ThreadPool* pool = nullptr) const;

  /// Hands over (and clears) the hits queued for `physician_id`. With a
  /// non-empty `role_id`, only that epoch's hits are drained — a fetch
  /// authenticated under one role key must not destroy hits whose blobs
  /// only another epoch's key could open.
  [[nodiscard]] std::vector<MhiHit> drain_hits(const std::string& physician_id,
                                               const std::string& role_id = "");
  [[nodiscard]] size_t pending_hits(const std::string& physician_id) const;
  [[nodiscard]] size_t registration_count() const noexcept;

  [[nodiscard]] const Shelf& shelf() const noexcept { return shelf_; }
  void replace_shelf(Shelf shelf) noexcept { shelf_ = std::move(shelf); }

 private:
  struct Standing {  // parallel vectors: precomps pass as one span
    std::vector<std::string> physicians;
    std::vector<peks::TrapdoorPrecomp> precomps;
  };

  const curve::CurveCtx* ctx_;
  std::map<std::string, Standing> standing_;
  std::map<std::string, std::vector<MhiHit>> hits_;  // physician → queue
  Shelf shelf_;
};

}  // namespace hcpp::core
