// Boneh–Franklin identity-based encryption (§II.A / [19]), hybrid form:
// BasicIdent as a KEM (U = rP, K = KDF(ê(Q_id, Ppub)^r)) wrapping the data in
// the encrypt-then-MAC AEAD. Used for
//   * the A-server delivering the one-time passcode to the P-device
//     (IBE_{TPp} in §IV.E — the pseudonym-point variant), and
//   * the P-device encrypting MHI under the role identity IDr.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/cipher/aead.h"
#include "src/ibc/domain.h"

namespace hcpp::ibc {

struct IbeCiphertext {
  curve::Point u;  // r·P
  Bytes box;       // AEAD(K; plaintext)

  [[nodiscard]] Bytes to_bytes() const;
  static IbeCiphertext from_bytes(const curve::CurveCtx& ctx, BytesView b);
  /// Wire size in bytes (for the communication benches).
  [[nodiscard]] size_t size() const;
};

/// Encrypts to a named identity (recipient key Γ_id = s0·H1(id)).
IbeCiphertext ibe_encrypt(const PublicParams& pub, std::string_view id,
                          BytesView plaintext, RandomSource& rng);

/// Encrypts to a pseudonym point TP (recipient key Γ = s0·TP).
IbeCiphertext ibe_encrypt_to_point(const PublicParams& pub,
                                   const curve::Point& recipient,
                                   BytesView plaintext, RandomSource& rng);

/// Decrypts with the recipient's extracted private key; throws
/// cipher::AuthError on tampering / wrong key.
Bytes ibe_decrypt(const curve::CurveCtx& ctx, const curve::Point& private_key,
                  const IbeCiphertext& ct);

// ---- Precomputation (§V.B.3) ------------------------------------------------
// "IBE and PEKS encrypted MHI files are for future emergency uses and can be
// pre-computed (offline). ... With pre-computation, P-device computes two
// pairings for both operations." The pairing ê(Q_id, Ppub) depends only on
// the recipient, so a sender addressing the same identity repeatedly (the
// P-device encrypting daily MHI, the A-server pushing passcodes) can hoist
// it out of every encryption. Benchmark E2 quantifies the saving.

class IbePrecomputed {
 public:
  /// Precomputes ê(H1(id), Ppub) for a named identity.
  IbePrecomputed(const PublicParams& pub, std::string_view id);
  /// Precomputes ê(TP, Ppub) for a pseudonym point.
  IbePrecomputed(const PublicParams& pub, const curve::Point& recipient);

  /// Pairing-free encryption (one scalar mult + one Gt exponentiation).
  [[nodiscard]] IbeCiphertext encrypt(BytesView plaintext,
                                      RandomSource& rng) const;

 private:
  const curve::CurveCtx* ctx_;
  curve::Gt g_id_;  // ê(Q_recipient, Ppub)
};

/// Fixed-key decryption context: precomputes the Miller-loop lines of the
/// recipient's private key Γ, so each decryption's pairing ê(Γ, U) costs
/// only line evaluations. Pays off from the second ciphertext on — the MHI
/// retrieval path decrypts whole batches under one role key, through
/// decrypt_batch.
class IbeDecryptor {
 public:
  IbeDecryptor(const curve::CurveCtx& ctx, const curve::Point& private_key);

  /// Same result as ibe_decrypt; throws cipher::AuthError on tampering.
  [[nodiscard]] Bytes decrypt(const IbeCiphertext& ct) const;

  /// Element i is decrypt(cts[i]), or nullopt where that throws
  /// cipher::AuthError. Every ê(Γ, U_i) runs in one curve::miller_batch
  /// and one curve::final_exp_batch (IFMA lane groups when there are
  /// enough of them), serially; the KEM/AEAD tail is decrypt's.
  [[nodiscard]] std::vector<std::optional<Bytes>> decrypt_batch(
      std::span<const IbeCiphertext> cts) const;

 private:
  const curve::CurveCtx* ctx_;
  curve::PairingPrecomp pre_;
};

// ---- FullIdent (CCA security via Fujisaki–Okamoto) ---------------------------
// BasicIdent is only CPA-secure; [19]'s FullIdent applies the FO transform:
// the encryption randomness is derived as r = H4(σ ‖ m), and the decryptor
// recomputes and checks U == r·P, rejecting any mauled ciphertext.

struct IbeCcaCiphertext {
  curve::Point u;  // r·P with r = H4(σ ‖ m)
  Bytes v;         // σ ⊕ KDF(g^r)
  Bytes w;         // m ⊕ KDF(σ)

  [[nodiscard]] Bytes to_bytes() const;
  static IbeCcaCiphertext from_bytes(const curve::CurveCtx& ctx, BytesView b);
  [[nodiscard]] size_t size() const;
};

IbeCcaCiphertext ibe_encrypt_cca(const PublicParams& pub, std::string_view id,
                                 BytesView plaintext, RandomSource& rng);

/// Throws cipher::AuthError when the FO consistency check fails.
Bytes ibe_decrypt_cca(const curve::CurveCtx& ctx,
                      const ibc::PublicParams& pub,
                      const curve::Point& private_key,
                      const IbeCcaCiphertext& ct);

}  // namespace hcpp::ibc
