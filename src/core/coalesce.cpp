#include "src/core/coalesce.h"

#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/par/pool.h"

namespace hcpp::core {

PairingCoalescer::PairingCoalescer(const curve::CurveCtx& ctx) : ctx_(&ctx) {}

PairingCoalescer::PairingCoalescer(const ibc::PublicParams& pub)
    : ctx_(pub.ctx), pub_(pub) {
  if (ctx_ == nullptr) {
    throw std::invalid_argument("PairingCoalescer: PublicParams without ctx");
  }
}

size_t PairingCoalescer::add_shared_key(const ibc::SharedKeyDeriver& deriver,
                                        const curve::Point& peer) {
  if (!deriver.ready() || deriver.ctx() != ctx_) {
    throw std::invalid_argument(
        "PairingCoalescer: deriver missing or from another curve context");
  }
  // Dedup key: the deriver's address (stable until drain — documented
  // lifetime contract) plus the peer point encoding.
  std::string dk(reinterpret_cast<const char*>(&deriver), sizeof(&deriver));
  Bytes pb = curve::point_to_bytes(peer);
  dk.append(reinterpret_cast<const char*>(pb.data()), pb.size());
  auto [it, inserted] = key_index_.try_emplace(std::move(dk),
                                               key_unique_.size());
  if (inserted) {
    key_unique_.push_back({&deriver, peer});
  } else {
    ++dedup_hits_;
  }
  key_tickets_.push_back(it->second);
  return key_tickets_.size() - 1;
}

size_t PairingCoalescer::add_ibs_verify(std::string_view id,
                                        BytesView message,
                                        const ibc::IbsSignature& sig) {
  if (!pub_.has_value()) {
    throw std::logic_error(
        "PairingCoalescer: IBS verification needs the PublicParams ctor");
  }
  sigs_.push_back({std::string(id), Bytes(message.begin(), message.end()),
                   sig});
  return sigs_.size() - 1;
}

PairingCoalescer::Drained PairingCoalescer::drain(par::ThreadPool* pool) {
  Drained d;
  const size_t total = key_tickets_.size() + sigs_.size();
  if (total == 0) return d;
  obs::count(obs::kCoalesceDrains);
  obs::count(obs::kCoalesceRequests, total);

  // Stage 1: Miller evaluations over cached line tables. Shared-key millers
  // occupy slots [0, key_unique_.size()); each valid signature appends its
  // fused product ê_miller(W, P)·ê_miller(H1(ID), Ppub)^{−v} after them.
  std::vector<field::Fp2> millers;
  millers.reserve(key_unique_.size() + sigs_.size());
  for (const KeyReq& kr : key_unique_) {
    millers.push_back(kr.deriver->precomp().miller_with(kr.peer));
  }

  constexpr size_t kInvalid = static_cast<size_t>(-1);
  std::vector<size_t> sig_slot(sigs_.size(), kInvalid);
  size_t fused = 0;
  if (!sigs_.empty()) {
    const curve::PairingPrecomp& gen_pre = curve::generator_precomp(*ctx_);
    for (size_t i = 0; i < sigs_.size(); ++i) {
      const SigReq& sr = sigs_[i];
      const ibc::IbsSignature& sig = sr.sig;
      if (sig.w.infinity || sig.v.is_zero() || !(sig.v < ctx_->q)) {
        continue;  // malformed: rejected without any pairing work
      }
      mp::U512 neg_v = mp::sub_mod(mp::U512{}, sig.v, ctx_->q);
      field::Fp2 f =
          gen_pre.miller_with(sig.w) *
          pub_->ppub_pre->miller_with(ibc::Domain::public_key(*ctx_, sr.id))
              .pow(neg_v);
      sig_slot[i] = millers.size();
      millers.push_back(f);
      ++fused;
    }
  }

  // Stage 2: one batched final exponentiation for the entire drain — a
  // single modular inversion via Montgomery's trick, cofactor powers
  // sharded onto the pool.
  std::vector<curve::Gt> gts = curve::final_exp_batch(*ctx_, millers, pool);

  // Stage 3: per-request finishes (KDF / challenge compare), duplicates
  // copying their unique result.
  std::vector<Bytes> unique_keys(key_unique_.size());
  for (size_t u = 0; u < key_unique_.size(); ++u) {
    unique_keys[u] = ibc::shared_key_kdf(gts[u]);
  }
  d.shared_keys.resize(key_tickets_.size());
  for (size_t t = 0; t < key_tickets_.size(); ++t) {
    d.shared_keys[t] = unique_keys[key_tickets_[t]];
  }
  d.ibs_ok.assign(sigs_.size(), 0);
  for (size_t i = 0; i < sigs_.size(); ++i) {
    if (sig_slot[i] == kInvalid) continue;
    d.ibs_ok[i] =
        ibc::ibs_challenge(*ctx_, sigs_[i].message, gts[sig_slot[i]]) ==
                sigs_[i].sig.v
            ? 1
            : 0;
  }

  // One pairing saved per deduplicated key request (skipped outright) and
  // per fused signature (two one-at-a-time pairings became one product).
  d.pairings_saved = dedup_hits_ + fused;
  obs::count(obs::kCoalesceDedupHits, dedup_hits_);
  obs::count(obs::kCoalescePairingsSaved, d.pairings_saved);

  key_unique_.clear();
  key_tickets_.clear();
  key_index_.clear();
  sigs_.clear();
  dedup_hits_ = 0;
  return d;
}

}  // namespace hcpp::core
