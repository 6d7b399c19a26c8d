// Cross-request pairing coalescing (ROADMAP item 3, this PR's core-layer
// tentpole). PR 5's batch layer only aggregates pairings *within* one API
// call (ibs_verify_batch, pairing_product); this type aggregates across
// independent requests that happen to be queued together — the fixed-cost
// amortization trick RSPP applies to body-area-network traffic rates.
//
// An owner (S-server SEARCH front-end, A-server emergency/audit handler)
// collects the pairing-bearing work of one pool drain:
//   * shared-key derivations ν/ϖ = KDF(ê(Γ_owner, TP_peer)), and
//   * Hess IBS verifications u' = ê(W, P)·ê(H1(ID), Ppub)^{−v},
// then calls drain() once. The coalescer folds the whole batch into Miller
// evaluations over cached line tables plus ONE batched final exponentiation
// (one modular inversion for everything, Montgomery's trick), and dedups
// identical shared-key requests outright. Results are returned by ticket in
// request order and are byte-identical to the one-at-a-time paths
// (SharedKeyDeriver::with_point, ibs_verify) — pinned by
// tests/test_coalesce.cpp.
//
// Hess IBS cannot be merged into a single product *check* (each u' feeds its
// own H3 — see ibs.h), so per signature the two pairings become one fused
// Miller product; the final exponentiations are then shared batch-wide.
//
// Not thread-safe: one coalescer belongs to one collecting thread. Queued
// SharedKeyDeriver references must outlive the drain() call.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ibc/ibs.h"

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::core {

class PairingCoalescer {
 public:
  /// Shared-key-only coalescer (no IBS verification queue).
  explicit PairingCoalescer(const curve::CurveCtx& ctx);
  /// Full coalescer; `pub` supplies Ppub and its shared Miller line table
  /// for IBS verification.
  explicit PairingCoalescer(const ibc::PublicParams& pub);

  /// Queues K = KDF(ê(deriver's private, peer)) — the value
  /// deriver.with_point(peer) returns. Identical (deriver, peer) requests
  /// are deduplicated: they share one pairing and get equal keys. Returns
  /// the ticket indexing Drained::shared_keys.
  size_t add_shared_key(const ibc::SharedKeyDeriver& deriver,
                        const curve::Point& peer);

  /// Queues ibs_verify(pub, id, message, sig). Returns the ticket indexing
  /// Drained::ibs_ok. Throws std::logic_error on a key-only coalescer.
  size_t add_ibs_verify(std::string_view id, BytesView message,
                        const ibc::IbsSignature& sig);

  [[nodiscard]] size_t pending() const noexcept {
    return key_tickets_.size() + sigs_.size();
  }

  struct Drained {
    std::vector<Bytes> shared_keys;  // by add_shared_key ticket order
    std::vector<uint8_t> ibs_ok;     // by add_ibs_verify ticket order
    // Full pairings this drain avoided versus the one-at-a-time path:
    // one per deduplicated shared-key request plus one per signature whose
    // two verification pairings were fused into a single Miller product.
    size_t pairings_saved = 0;
  };

  /// Executes everything queued since the last drain and resets the queues.
  /// The batched final exponentiations are sharded onto `pool` when given
  /// (nullptr = serial, the deterministic schedule).
  Drained drain(par::ThreadPool* pool = nullptr);

 private:
  struct KeyReq {
    const ibc::SharedKeyDeriver* deriver;
    curve::Point peer;
  };
  struct SigReq {
    std::string id;
    Bytes message;
    ibc::IbsSignature sig;
  };

  const curve::CurveCtx* ctx_;
  std::optional<ibc::PublicParams> pub_;

  std::vector<KeyReq> key_unique_;   // deduplicated shared-key requests
  std::vector<size_t> key_tickets_;  // ticket -> index into key_unique_
  // Dedup index: (deriver address ‖ peer encoding) -> key_unique_ slot.
  std::unordered_map<std::string, size_t> key_index_;
  std::vector<SigReq> sigs_;
  size_t dedup_hits_ = 0;
};

}  // namespace hcpp::core
