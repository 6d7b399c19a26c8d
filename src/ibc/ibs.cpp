#include "src/ibc/ibs.h"

#include <stdexcept>

#include "src/common/serialize.h"

namespace hcpp::ibc {

namespace {

/// H3(m ‖ u), the challenge both sign and verify compute.
mp::U512 challenge(const curve::CurveCtx& ctx, BytesView message,
                   const curve::Gt& u) {
  Bytes input = u.to_bytes();
  append(input, message);
  return curve::hash_to_scalar(ctx, input, "hcpp-ibs-h3");
}

/// k ∈R Zq*, u = ê(H1(ID), P)^k and v = H3(m ‖ u): everything of a
/// signature but W, shared by ibs_sign and IbsSigner::sign.
struct Commitment {
  mp::U512 k, v;
};
Commitment commit(const curve::CurveCtx& ctx, const curve::Point& q_id,
                  BytesView message, RandomSource& rng) {
  mp::U512 k = curve::random_scalar(ctx, rng);
  // ê(H1(ID), P): the generator's cached Miller lines apply by symmetry.
  curve::Gt u = curve::generator_precomp(ctx).pairing_with(q_id).pow(k);
  return {k, challenge(ctx, message, u)};
}

/// Rejected without any pairing work.
bool malformed(const curve::CurveCtx& ctx, const IbsSignature& sig) {
  return sig.w.infinity || sig.v.is_zero() || !(sig.v < ctx.q);
}

/// u' = ê(W, P) · ê(H1(ID), Ppub)^{-v} before its final exponentiation: two
/// fixed-argument Miller values fused into one, since the final
/// exponentiation is a group homomorphism.
field::Fp2 verify_miller(const PublicParams& pub, std::string_view id,
                         const IbsSignature& sig) {
  const curve::CurveCtx& ctx = *pub.ctx;
  mp::U512 neg_v = mp::sub_mod(mp::U512{}, sig.v, ctx.q);
  return curve::generator_precomp(ctx).miller_with(sig.w) *
         pub.ppub_pre->miller_with(Domain::public_key(ctx, id)).pow(neg_v);
}

}  // namespace

IbsSignature ibs_sign(const curve::CurveCtx& ctx,
                      const curve::Point& private_key, std::string_view id,
                      BytesView message, RandomSource& rng) {
  curve::Point q_id = Domain::public_key(ctx, id);
  auto [k, v] = commit(ctx, q_id, message, rng);
  // W = v·Γ + k·H1(ID)
  return {v, curve::mul2(ctx, private_key, v, q_id, k)};
}

IbsSigner::IbsSigner(const curve::CurveCtx& ctx,
                     const curve::Point& private_key, std::string_view id)
    : ctx_(&ctx),
      q_id_(Domain::public_key(ctx, id)),
      gamma_table_(ctx, private_key),
      q_id_table_(ctx, q_id_) {}

IbsSignature IbsSigner::sign(BytesView message, RandomSource& rng) const {
  auto [k, v] = commit(*ctx_, q_id_, message, rng);
  return {v, curve::mul2_fixed(*ctx_, gamma_table_, v, q_id_table_, k)};
}

bool ibs_verify(const PublicParams& pub, std::string_view id,
                BytesView message, const IbsSignature& sig) {
  const curve::CurveCtx& ctx = *pub.ctx;
  if (malformed(ctx, sig)) return false;
  const field::Fp2 f = verify_miller(pub, id, sig);
  curve::Gt u = curve::final_exp_batch(ctx, std::span(&f, 1))[0];
  return challenge(ctx, message, u) == sig.v;
}

std::vector<uint8_t> ibs_verify_batch(const PublicParams& pub,
                                      std::span<const IbsBatchItem> items,
                                      par::ThreadPool* pool) {
  const curve::CurveCtx& ctx = *pub.ctx;
  std::vector<size_t> live;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!malformed(ctx, items[i].sig)) live.push_back(i);
  }
  std::vector<curve::Gt> us = curve::miller_batch(
      ctx, live.size(),
      [&](size_t k) {
        return verify_miller(pub, items[live[k]].id, items[live[k]].sig);
      },
      pool);
  std::vector<uint8_t> out(items.size(), 0);
  for (size_t k = 0; k < live.size(); ++k) {
    const IbsBatchItem& it = items[live[k]];
    out[live[k]] = challenge(ctx, it.message, us[k]) == it.sig.v ? 1 : 0;
  }
  return out;
}

Bytes IbsSignature::to_bytes() const {
  io::Writer wr;
  wr.raw(v.to_bytes_be());
  wr.bytes(curve::point_to_bytes(w));
  return wr.take();
}

IbsSignature IbsSignature::from_bytes(const curve::CurveCtx& ctx,
                                      BytesView b) {
  io::Reader r(b);
  IbsSignature sig;
  sig.v = mp::U512::from_bytes_be(r.raw(64));
  sig.w = curve::point_from_bytes(ctx, r.bytes());
  if (!r.done()) {
    throw std::invalid_argument("IbsSignature: trailing bytes");
  }
  return sig;
}

size_t IbsSignature::size() const { return to_bytes().size(); }

}  // namespace hcpp::ibc
