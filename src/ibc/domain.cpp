#include "src/ibc/domain.h"

#include "src/hash/hkdf.h"
#include "src/obs/metrics.h"

namespace hcpp::ibc {

Domain::Domain(const curve::CurveCtx& ctx, RandomSource& rng)
    : Domain(ctx, curve::random_scalar(ctx, rng)) {}

Domain::Domain(const curve::CurveCtx& ctx, const mp::U512& master_secret)
    : ctx_(&ctx), s0_(mp::mod(master_secret, ctx.q)) {
  pub_.ctx = ctx_;
  pub_.p_pub = curve::mul_generator(ctx, s0_);
  pub_.ppub_pre =
      std::make_shared<const curve::PairingPrecomp>(ctx, pub_.p_pub);
}

curve::Point Domain::extract(std::string_view id) const {
  return curve::mul(*ctx_, public_key(*ctx_, id), s0_);
}

curve::Point Domain::public_key(const curve::CurveCtx& ctx,
                                std::string_view id) {
  std::string key(id);
  if (std::optional<curve::Point> hit = ctx.h1_memo.find(key)) {
    obs::count(obs::kH1MemoHits);
    return *hit;
  }
  obs::count(obs::kH1MemoMisses);
  curve::Point pk = curve::hash_to_point(ctx, to_bytes(id));
  ctx.h1_memo.insert(std::move(key), pk);
  return pk;
}

Domain::Pseudonym Domain::issue_pseudonym(RandomSource& rng) const {
  mp::U512 t = curve::random_scalar(*ctx_, rng);
  Pseudonym pn;
  pn.tp = curve::mul_generator(*ctx_, t);
  pn.gamma = curve::mul(*ctx_, pn.tp, s0_);
  return pn;
}

Domain::Pseudonym rerandomize_pseudonym(const curve::CurveCtx& ctx,
                                        const Domain::Pseudonym& base,
                                        RandomSource& rng) {
  mp::U512 r = curve::random_scalar(ctx, rng);
  return {curve::mul(ctx, base.tp, r), curve::mul(ctx, base.gamma, r)};
}

bool pseudonym_valid(const PublicParams& pub, const Domain::Pseudonym& pn) {
  const curve::CurveCtx& ctx = *pub.ctx;
  // ê(TP, Ppub) == ê(Γ, P)  ⟺  ê(TP, Ppub)·ê(−Γ, P) == 1: one multi-pairing
  // (shared squaring chain and final exponentiation) instead of two.
  const curve::PairingTerm terms[] = {
      {pn.tp, pub.p_pub},
      {curve::negate(pn.gamma), curve::generator(ctx)},
  };
  return curve::pairing_product(ctx, terms).is_one();
}

namespace {
/// K = HKDF(ê(…).to_bytes(), "hcpp-shared-key", 32), shared by every
/// derivation so both directions and every path give identical keys.
Bytes shared_key_kdf(const curve::Gt& g) {
  return hash::hkdf(g.to_bytes(), {}, to_bytes("hcpp-shared-key"), 32);
}
}  // namespace

Bytes shared_key_with_id(const curve::CurveCtx& ctx,
                         const curve::Point& my_private,
                         std::string_view peer_id) {
  curve::Point peer_pk = Domain::public_key(ctx, peer_id);
  return shared_key_kdf(curve::pairing(ctx, my_private, peer_pk));
}

Bytes shared_key_with_point(const curve::CurveCtx& ctx,
                            const curve::Point& my_private,
                            const curve::Point& peer_public) {
  return shared_key_kdf(curve::pairing(ctx, my_private, peer_public));
}

SharedKeyDeriver::SharedKeyDeriver(const curve::CurveCtx& ctx,
                                   const curve::Point& my_private)
    : ctx_(&ctx), pre_(ctx, my_private) {}

Bytes SharedKeyDeriver::with_id(std::string_view peer_id) const {
  return with_point(Domain::public_key(*ctx_, peer_id));
}

Bytes SharedKeyDeriver::with_point(const curve::Point& peer_public) const {
  return shared_key_kdf(pre_.pairing_with(peer_public));
}

}  // namespace hcpp::ibc
