// Hess identity-based signatures ([28], SAC 2002) — the paper's IBS used by
// physicians to authenticate to the A-server and by the A-server to sign
// passcode deliveries and accountability traces.
//
//   Sign (private key Γ = s0·H1(ID)):
//     k ∈R Zq*,  u = ê(H1(ID), P)^k,  v = H3(m ‖ u),  W = v·Γ + k·H1(ID)
//     signature = (v, W)
//   Verify:
//     u' = ê(W, P) · ê(H1(ID), Ppub)^{−v},  accept iff H3(m ‖ u') == v
#pragma once

#include "src/ibc/domain.h"

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::ibc {

struct IbsSignature {
  mp::U512 v;      // scalar challenge
  curve::Point w;  // response point

  [[nodiscard]] Bytes to_bytes() const;
  /// Throws on a malformed encoding, trailing bytes included: the A-server
  /// keys its replay cache on the raw bytes, so one signature must have
  /// exactly one accepted encoding.
  static IbsSignature from_bytes(const curve::CurveCtx& ctx, BytesView b);
  [[nodiscard]] size_t size() const;
};

/// One-shot signing, for a key used once. A party that signs repeatedly
/// holds an IbsSigner instead.
IbsSignature ibs_sign(const curve::CurveCtx& ctx,
                      const curve::Point& private_key, std::string_view id,
                      BytesView message, RandomSource& rng);

/// Fixed-key signing context: holds H1(ID) and the curve::FixedBaseTable of
/// Γ_ID and of H1(ID) (about 10 KB on the production set), so W costs one
/// curve::mul2_fixed — about c + 1 doublings and no table build or extra
/// inversion per signature. sign() draws k and pairs exactly as ibs_sign
/// does, so both give byte-identical signatures from the same RNG stream.
/// sign() is const and safe to call from several threads at once, each with
/// its own RandomSource.
class IbsSigner {
 public:
  IbsSigner(const curve::CurveCtx& ctx, const curve::Point& private_key,
            std::string_view id);

  [[nodiscard]] IbsSignature sign(BytesView message, RandomSource& rng) const;

 private:
  const curve::CurveCtx* ctx_;
  curve::Point q_id_;  // H1(ID)
  curve::FixedBaseTable gamma_table_;
  curve::FixedBaseTable q_id_table_;
};

bool ibs_verify(const PublicParams& pub, std::string_view id,
                BytesView message, const IbsSignature& sig);

/// One signature to check in a batch.
struct IbsBatchItem {
  std::string id;
  Bytes message;
  IbsSignature sig;
};

/// Batch verification: result[i] == ibs_verify(pub, items[i]...). Hess IBS
/// cannot be merged into one product check (each u' feeds its own H3), so
/// each well-formed signature puts its two fixed-argument Miller loops,
/// ê(W, P) and ê(H1(ID), Ppub), into one curve::miller_batch (lane groups
/// and pool shards), fuses them as ê_miller(W, P)·ê_miller(H1(ID),
/// Ppub)^{−v}, and every u' shares one curve::final_exp_batch (one modular
/// inversion for the whole batch).
std::vector<uint8_t> ibs_verify_batch(const PublicParams& pub,
                                      std::span<const IbsBatchItem> items,
                                      par::ThreadPool* pool = nullptr);

}  // namespace hcpp::ibc
