// Identity-based domain (§IV.A system setup). One Domain instance is the
// PKG role of a state A-server: it owns the master secret s0, publishes
// Ppub = s0·P, and extracts private keys Γ_ID = s0·H1(ID) for the
// physicians, S-servers and hospitals in its state.
//
// Also implements the pseudonym machinery of the private-storage protocol:
// the hospital issues a temporary key pair (TP, Γ = s0·TP) and the patient
// re-randomizes it into unlinkable pairs (r·TP, r·Γ), which still satisfy
// Γ' = s0·TP' and therefore still derive correct shared keys with any
// domain member (ν = ê(Γp, H1(ID_S)) = ê(TPp, Γ_S)).
#pragma once

#include <memory>
#include <string_view>

#include "src/curve/pairing.h"
#include "src/curve/params.h"

namespace hcpp::ibc {

/// Everything a protocol party needs to know about a domain.
struct PublicParams {
  const curve::CurveCtx* ctx = nullptr;
  curve::Point p_pub;  // s0 · P
  // Miller lines of Ppub, built once by the Domain and shared by every copy:
  // each ê(X, Ppub) is ppub_pre->pairing_with(X) (ê is symmetric).
  std::shared_ptr<const curve::PairingPrecomp> ppub_pre;
};

class Domain {
 public:
  /// Fresh domain with a random master secret.
  Domain(const curve::CurveCtx& ctx, RandomSource& rng);
  /// Deterministic domain (tests).
  Domain(const curve::CurveCtx& ctx, const mp::U512& master_secret);

  [[nodiscard]] const PublicParams& pub() const noexcept { return pub_; }
  [[nodiscard]] const curve::CurveCtx& ctx() const noexcept { return *ctx_; }

  /// Γ_ID = s0 · H1(ID).
  [[nodiscard]] curve::Point extract(std::string_view id) const;

  /// PK_ID = H1(ID) — public, needs no master secret. Memoised on the
  /// context (CurveCtx::h1_memo): the same identities sign and receive over
  /// and over.
  static curve::Point public_key(const curve::CurveCtx& ctx,
                                 std::string_view id);

  /// Issues a temporary pseudonymous key pair for a patient: random TP with
  /// Γ = s0·TP (the hospital-assisted step of §IV.B).
  struct Pseudonym {
    curve::Point tp;     // public half, TPp
    curve::Point gamma;  // private half, Γp
  };
  [[nodiscard]] Pseudonym issue_pseudonym(RandomSource& rng) const;

 private:
  const curve::CurveCtx* ctx_;
  mp::U512 s0_;
  PublicParams pub_;
};

/// Patient-side pseudonym self-generation ([25]): (r·TP, r·Γ) is a fresh,
/// unlinkable, still-valid pair.
Domain::Pseudonym rerandomize_pseudonym(const curve::CurveCtx& ctx,
                                        const Domain::Pseudonym& base,
                                        RandomSource& rng);

/// Validity check ê(TP, Ppub) == ê(Γ, P) — anyone can run it.
bool pseudonym_valid(const PublicParams& pub, const Domain::Pseudonym& pn);

/// Non-interactive shared key (the paper's ν, ϖ and ρ), named-identity side:
/// K = KDF(ê(my_private, H1(peer_id))). Symmetric pairing makes both
/// directions agree.
Bytes shared_key_with_id(const curve::CurveCtx& ctx,
                         const curve::Point& my_private,
                         std::string_view peer_id);

/// Shared key against a pseudonym: K = KDF(ê(my_private, TP_peer)). The
/// pseudonym holder computes the same value via shared_key_with_id using Γp.
Bytes shared_key_with_point(const curve::CurveCtx& ctx,
                            const curve::Point& my_private,
                            const curve::Point& peer_public);

/// Fixed-key NIKE context: precomputes the Miller-loop lines of my_private
/// once, so every subsequent ν/ϖ/ρ derivation against a fresh peer pays only
/// line evaluations. This is the per-request path of the S- and A-servers,
/// which derive ν = ê(Γ_S, TPp) for every presented pseudonym.
class SharedKeyDeriver {
 public:
  SharedKeyDeriver() = default;
  SharedKeyDeriver(const curve::CurveCtx& ctx,
                   const curve::Point& my_private);

  /// K = KDF(ê(my_private, H1(peer_id))). Same value as shared_key_with_id.
  [[nodiscard]] Bytes with_id(std::string_view peer_id) const;
  /// K = KDF(ê(my_private, peer)). Same value as shared_key_with_point.
  [[nodiscard]] Bytes with_point(const curve::Point& peer_public) const;

  [[nodiscard]] const curve::CurveCtx* ctx() const noexcept { return ctx_; }

 private:
  const curve::CurveCtx* ctx_ = nullptr;
  curve::PairingPrecomp pre_;
};

}  // namespace hcpp::ibc
