#include "src/ibc/ibs.h"

#include <unordered_map>

#include "src/common/serialize.h"
#include "src/par/pool.h"

namespace hcpp::ibc {

mp::U512 ibs_challenge(const curve::CurveCtx& ctx, BytesView message,
                       const curve::Gt& u) {
  Bytes input = u.to_bytes();
  append(input, message);
  return curve::hash_to_scalar(ctx, input, "hcpp-ibs-h3");
}

namespace {
mp::U512 challenge(const curve::CurveCtx& ctx, BytesView message,
                   const curve::Gt& u) {
  return ibs_challenge(ctx, message, u);
}
}  // namespace

IbsSignature ibs_sign(const curve::CurveCtx& ctx,
                      const curve::Point& private_key, std::string_view id,
                      BytesView message, RandomSource& rng) {
  curve::Point q_id = Domain::public_key(ctx, id);
  mp::U512 k = curve::random_scalar(ctx, rng);
  // ê(H1(ID), P): the generator's cached Miller lines apply by symmetry.
  curve::Gt u = curve::generator_precomp(ctx).pairing_with(q_id).pow(k);
  IbsSignature sig;
  sig.v = challenge(ctx, message, u);
  // W = v·Γ + k·H1(ID)
  sig.w = curve::mul2(ctx, private_key, sig.v, q_id, k);
  return sig;
}

bool ibs_verify(const PublicParams& pub, std::string_view id,
                BytesView message, const IbsSignature& sig) {
  const curve::CurveCtx& ctx = *pub.ctx;
  if (sig.w.infinity || sig.v.is_zero() || !(sig.v < ctx.q)) return false;
  curve::Point q_id = Domain::public_key(ctx, id);
  // u' = ê(W, P) · ê(H1(ID), Ppub)^{-v}: two fixed-argument Miller values
  // sharing one final exponentiation, which is a group homomorphism.
  mp::U512 neg_v = mp::sub_mod(mp::U512{}, sig.v, ctx.q);
  const field::Fp2 f = curve::generator_precomp(ctx).miller_with(sig.w) *
                       pub.ppub_pre->miller_with(q_id).pow(neg_v);
  curve::Gt u = curve::final_exp_batch(ctx, std::span(&f, 1))[0];
  return challenge(ctx, message, u) == sig.v;
}

std::vector<uint8_t> ibs_verify_batch(const PublicParams& pub,
                                      std::span<const IbsBatchItem> items,
                                      par::ThreadPool* pool) {
  const curve::CurveCtx& ctx = *pub.ctx;
  std::vector<uint8_t> out(items.size(), 0);
  if (items.empty()) return out;

  // ê(H1(ID), Ppub) once per distinct identity through the Ppub line table,
  // shared read-only by every worker; each check then adds one
  // fixed-argument ê(W, P).
  auto malformed = [&ctx](const IbsSignature& sig) {
    return sig.w.infinity || sig.v.is_zero() || !(sig.v < ctx.q);
  };
  std::unordered_map<std::string_view, curve::Gt> g_ids;
  for (const IbsBatchItem& it : items) {
    if (malformed(it.sig)) continue;  // rejected without any pairing work
    auto [slot, inserted] = g_ids.try_emplace(it.id);
    if (inserted) {
      slot->second =
          pub.ppub_pre->pairing_with(Domain::public_key(ctx, it.id));
    }
  }

  auto verify_one = [&](size_t i) {
    const IbsBatchItem& it = items[i];
    const IbsSignature& sig = it.sig;
    if (malformed(sig)) return;
    mp::U512 neg_v = mp::sub_mod(mp::U512{}, sig.v, ctx.q);
    curve::Gt u = curve::generator_precomp(ctx).pairing_with(sig.w) *
                  g_ids.find(std::string_view(it.id))->second.pow(neg_v);
    out[i] = challenge(ctx, it.message, u) == sig.v ? 1 : 0;
  };

  if (pool == nullptr || items.size() <= 1) {
    for (size_t i = 0; i < items.size(); ++i) verify_one(i);
  } else {
    pool->parallel_for(items.size(), verify_one);
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
  return sig;
}

size_t IbsSignature::size() const { return to_bytes().size(); }

}  // namespace hcpp::ibc
