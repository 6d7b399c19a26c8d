// Public-key encryption with keyword search (§II.C, §IV.E), the BDOP
// construction specialised to HCPP's identity-based emergency setting.
//
// The paper writes the trapdoor as TDr(kw) = Γr · H2(kw) with both factors
// in G1, which is ill-typed; we implement the evident intent by hashing the
// keyword to a scalar h = H2'(kw) ∈ Zq* (see DESIGN.md):
//
//   PEKS_σ(IDr, kw) = (A = σ·P,  B = H3(ê(PK_r, Ppub)^{σ·h}))
//   TDr(kw)         = h · Γr                      (Γr = s0·H1(IDr))
//   Test(A, B, TD)  = [ H3(ê(TD, A)) == B ]
//
// since ê(h·s0·PK_r, σ·P) = ê(PK_r, Ppub)^{σ·h}. Consistency and security
// follow from BDH exactly as in BDOP. An Abdalla-style randomized variant
// (encrypting a random R instead of a fixed tag, §II.C's consistency fix)
// is provided as SearchableTag::kRandomized.
#pragma once

#include <map>

#include "src/ibc/domain.h"

namespace hcpp::peks {

enum class Variant : uint8_t {
  kBdop = 0,        // B = H3(g^{σh}) — the construction of [18]
  kRandomized = 1,  // [20]: additionally binds a random R for consistency
};

struct PeksCiphertext {
  Variant variant = Variant::kBdop;
  curve::Point a;  // σ·P
  Bytes b;         // H3(...) tag (kBdop) or R ⊕ KDF(...) (kRandomized)
  Bytes check;     // H(R) for kRandomized, empty otherwise

  [[nodiscard]] Bytes to_bytes() const;
  static PeksCiphertext from_bytes(const curve::CurveCtx& ctx, BytesView b);
  [[nodiscard]] size_t size() const;
};

/// Trapdoor TD = H2'(kw) · Γr (computable by anyone holding the role key).
struct Trapdoor {
  curve::Point td;

  [[nodiscard]] Bytes to_bytes() const;
  static Trapdoor from_bytes(const curve::CurveCtx& ctx, BytesView b);
};

/// Produces a searchable tag for keyword `kw` addressed to role identity
/// `role_id` (e.g. "2011-04-12|emergency|gainesville").
PeksCiphertext peks_encrypt(const ibc::PublicParams& pub,
                            std::string_view role_id, std::string_view kw,
                            RandomSource& rng,
                            Variant variant = Variant::kBdop);

/// Trapdoor computed by the physician from the extracted role key Γr.
Trapdoor peks_trapdoor(const curve::CurveCtx& ctx,
                       const curve::Point& role_private, std::string_view kw);

/// Server-side test — learns only whether the keyword matches.
bool peks_test(const curve::CurveCtx& ctx, const PeksCiphertext& ct,
               const Trapdoor& td);

/// Batched server-side test: element i equals `peks_test(ctx, cts[i], td)`.
/// The one-trapdoor case of peks_test_matrix.
std::vector<uint8_t> peks_test_batch(const curve::CurveCtx& ctx,
                                     std::span<const PeksCiphertext> cts,
                                     const Trapdoor& td,
                                     par::ThreadPool* pool = nullptr);

/// A trapdoor's Miller line cache, `TrapdoorPrecomp(ctx, td.td)`: built once
/// per standing registration (src/core/mhi_stream.h) and reused across tags.
using TrapdoorPrecomp = curve::PairingPrecomp;

/// The one batched PEKS test: R trapdoors against T tags. Each (trapdoor,
/// tag) pair costs one precomputed Miller loop over the trapdoor's cached
/// lines: all R×T of them go through one curve::miller_batch (lane groups
/// and pool shards) and one curve::final_exp_batch (one shared modular
/// inversion). Element r·T + t equals `peks_test(ctx, tags[t], trapdoor r)`.
std::vector<uint8_t> peks_test_matrix(const curve::CurveCtx& ctx,
                                      std::span<const TrapdoorPrecomp> tds,
                                      std::span<const PeksCiphertext> tags,
                                      par::ThreadPool* pool = nullptr);

/// Encrypt-side amortization for streaming tag generation. `peks_encrypt`
/// pays a hash-to-point H1(IDr) plus a full pairing ê(PK_r, Ppub) per tag,
/// but both depend only on the role identity — so PeksEncryptor caches
/// g_r = ê(PK_r, Ppub) per role epoch and each subsequent tag for that role
/// costs one fixed-base generator mul plus one Gt exponentiation. Outputs
/// are bit-identical to `peks_encrypt` given the same RNG stream.
class PeksEncryptor {
 public:
  explicit PeksEncryptor(const ibc::PublicParams& pub) : pub_(pub) {}

  PeksCiphertext encrypt(std::string_view role_id, std::string_view kw,
                         RandomSource& rng, Variant variant = Variant::kBdop);
  PeksCiphertext encrypt_set(std::string_view role_id,
                             std::span<const std::string> keywords,
                             RandomSource& rng,
                             Variant variant = Variant::kBdop);

  /// Epoch rollover: drops the cached base for `role_id` (the next tag for
  /// that role re-derives it with a fresh hash-to-point + pairing).
  void evict(std::string_view role_id);
  void clear() { cache_.clear(); }
  [[nodiscard]] size_t cached_roles() const { return cache_.size(); }
  [[nodiscard]] const ibc::PublicParams& pub() const { return pub_; }

 private:
  const curve::Gt& role_base(std::string_view role_id);

  ibc::PublicParams pub_;
  std::map<std::string, curve::Gt, std::less<>> cache_;
};

// ---- Conjunctive multi-keyword extension ----------------------------------
// §IV.E: "The single keyword PEKS shown above can be easily extended to
// enable multiple-keyword search [29]". Keyword sets are folded into one
// scalar h = Σ_i H2'(kw_i) mod q; the tag/trapdoor algebra is unchanged, so
// a trapdoor matches exactly the ciphertexts produced for the same keyword
// *set* (order-independent).

/// Tag for a keyword set under `role_id`.
PeksCiphertext peks_encrypt_set(const ibc::PublicParams& pub,
                                std::string_view role_id,
                                std::span<const std::string> keywords,
                                RandomSource& rng,
                                Variant variant = Variant::kBdop);

/// Trapdoor for a keyword set.
Trapdoor peks_trapdoor_set(const curve::CurveCtx& ctx,
                           const curve::Point& role_private,
                           std::span<const std::string> keywords);

}  // namespace hcpp::peks
