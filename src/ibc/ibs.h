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
  static IbsSignature from_bytes(const curve::CurveCtx& ctx, BytesView b);
  [[nodiscard]] size_t size() const;
};

IbsSignature ibs_sign(const curve::CurveCtx& ctx,
                      const curve::Point& private_key, std::string_view id,
                      BytesView message, RandomSource& rng);

/// The challenge hash H3(m ‖ u) both sign and verify compute. Exposed so the
/// cross-request coalescer (core::PairingCoalescer) can finish verifications
/// whose pairing work was batched; must stay in lock-step with ibs_sign.
mp::U512 ibs_challenge(const curve::CurveCtx& ctx, BytesView message,
                       const curve::Gt& u);

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
/// the batch wins come from structure instead: ê(H1(ID), Ppub) is computed
/// once per distinct identity, and the per-item checks spread across the
/// pool — every input is const, so no locks.
std::vector<uint8_t> ibs_verify_batch(const PublicParams& pub,
                                      std::span<const IbsBatchItem> items,
                                      par::ThreadPool* pool = nullptr);

}  // namespace hcpp::ibc
