#include "src/ibc/ibs.h"

#include "src/common/serialize.h"
#include "src/par/pool.h"

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

/// u' = ê(W, P) · ê(H1(ID), Ppub)^{-v} before its final exponentiation,
/// from the Miller values of ê(W, P) and ê(H1(ID), Ppub): two fixed-argument
/// pairings fused into one, since the final exponentiation is a group
/// homomorphism.
field::Fp2 fuse(const curve::CurveCtx& ctx, const field::Fp2& w_p,
                const field::Fp2& id_ppub, const mp::U512& v) {
  return w_p * id_ppub.pow(mp::sub_mod(mp::U512{}, v, ctx.q));
}

field::Fp2 verify_miller(const PublicParams& pub, std::string_view id,
                         const IbsSignature& sig) {
  const curve::CurveCtx& ctx = *pub.ctx;
  return fuse(ctx, curve::generator_precomp(ctx).miller_with(sig.w),
              pub.ppub_pre->miller_with(Domain::public_key(ctx, id)), sig.v);
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
  // Two fixed-argument terms per signature, ê(W, P) and ê(H1(ID), Ppub),
  // fused once their Miller values are back.
  std::vector<curve::MillerTerm> terms;
  terms.reserve(2 * live.size());
  for (size_t i : live) {
    terms.push_back({&curve::generator_precomp(ctx), items[i].sig.w});
    terms.push_back(
        {pub.ppub_pre.get(), Domain::public_key(ctx, items[i].id)});
  }
  std::vector<field::Fp2> fs = curve::miller_batch(ctx, terms, pool);
  std::vector<field::Fp2> fused(live.size());
  auto fuse_k = [&](size_t k) {
    fused[k] = fuse(ctx, fs[2 * k], fs[2 * k + 1], items[live[k]].sig.v);
  };
  if (pool != nullptr && live.size() > 1) {
    pool->parallel_for(live.size(), fuse_k);
  } else {
    for (size_t k = 0; k < live.size(); ++k) fuse_k(k);
  }
  std::vector<curve::Gt> us = curve::final_exp_batch(ctx, fused, pool);
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
  r.expect_done("IbsSignature");
  return sig;
}

size_t IbsSignature::size() const { return to_bytes().size(); }

}  // namespace hcpp::ibc
