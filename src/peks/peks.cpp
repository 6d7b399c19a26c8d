#include "src/peks/peks.h"

#include <stdexcept>

#include "src/common/serialize.h"
#include "src/hash/hkdf.h"
#include "src/hash/sha256.h"

namespace hcpp::peks {

namespace {

constexpr size_t kTagLen = 32;

Bytes h3(const curve::Gt& g) {
  return hash::hkdf(g.to_bytes(), {}, to_bytes("hcpp-peks-h3"), kTagLen);
}

mp::U512 keyword_scalar(const curve::CurveCtx& ctx, std::string_view kw) {
  return curve::hash_to_scalar(ctx, to_bytes(kw), "hcpp-peks-h2");
}

// Folds a keyword set into one scalar, order-independently.
mp::U512 keyword_set_scalar(const curve::CurveCtx& ctx,
                            std::span<const std::string> keywords) {
  if (keywords.empty()) {
    throw std::invalid_argument("peks: empty keyword set");
  }
  mp::U512 h;  // zero
  for (const std::string& kw : keywords) {
    h = mp::add_mod(h, keyword_scalar(ctx, kw), ctx.q);
  }
  if (h.is_zero()) h = mp::U512::from_u64(1);  // vanishing sums are degenerate
  return h;
}

// g_r = ê(PK_r, Ppub) — the role-identity pairing base every tag for that
// role is a power of. This is the value PeksEncryptor caches per epoch.
curve::Gt role_pairing_base(const ibc::PublicParams& pub,
                            std::string_view role_id) {
  return pub.ppub_pre->pairing_with(ibc::Domain::public_key(*pub.ctx, role_id));
}

// Shared tail of the cold and cached encrypt paths. Draws from `rng` in the
// same order as the original monolithic implementation (sigma, then R), so
// cached and cold tags are bit-identical for identical RNG streams — the
// property the differential oracle in tests/test_peks.cpp pins down.
PeksCiphertext tag_from_base(const curve::CurveCtx& ctx, const curve::Gt& g_r,
                             const mp::U512& h, RandomSource& rng,
                             Variant variant) {
  mp::U512 sigma = curve::random_scalar(ctx, rng);
  PeksCiphertext ct;
  ct.variant = variant;
  ct.a = curve::mul_generator(ctx, sigma);
  curve::Gt g = g_r.pow(mp::mul_mod(sigma, h, ctx.q));
  if (variant == Variant::kBdop) {
    ct.b = h3(g);
  } else {
    Bytes r_val = rng.bytes(kTagLen);
    ct.b = xor_bytes(r_val, h3(g));
    ct.check = hash::sha256_bytes(r_val);
  }
  return ct;
}

PeksCiphertext encrypt_with_scalar(const ibc::PublicParams& pub,
                                   std::string_view role_id, const mp::U512& h,
                                   RandomSource& rng, Variant variant) {
  return tag_from_base(*pub.ctx, role_pairing_base(pub, role_id), h, rng,
                       variant);
}

// The per-variant tag comparison shared by the scalar and batched tests.
bool tag_matches(const PeksCiphertext& ct, const curve::Gt& g) {
  Bytes mask = h3(g);
  if (ct.variant == Variant::kBdop) {
    return ct_equal(mask, ct.b);
  }
  if (ct.b.size() != mask.size()) return false;
  Bytes r_val = xor_bytes(ct.b, mask);
  return ct_equal(hash::sha256_bytes(r_val), ct.check);
}

}  // namespace

PeksCiphertext peks_encrypt(const ibc::PublicParams& pub,
                            std::string_view role_id, std::string_view kw,
                            RandomSource& rng, Variant variant) {
  return encrypt_with_scalar(pub, role_id, keyword_scalar(*pub.ctx, kw), rng,
                             variant);
}

Trapdoor peks_trapdoor(const curve::CurveCtx& ctx,
                       const curve::Point& role_private, std::string_view kw) {
  return Trapdoor{curve::mul(ctx, role_private, keyword_scalar(ctx, kw))};
}

PeksCiphertext peks_encrypt_set(const ibc::PublicParams& pub,
                                std::string_view role_id,
                                std::span<const std::string> keywords,
                                RandomSource& rng, Variant variant) {
  return encrypt_with_scalar(pub, role_id,
                             keyword_set_scalar(*pub.ctx, keywords), rng,
                             variant);
}

Trapdoor peks_trapdoor_set(const curve::CurveCtx& ctx,
                           const curve::Point& role_private,
                           std::span<const std::string> keywords) {
  return Trapdoor{
      curve::mul(ctx, role_private, keyword_set_scalar(ctx, keywords))};
}

bool peks_test(const curve::CurveCtx& ctx, const PeksCiphertext& ct,
               const Trapdoor& td) {
  return tag_matches(ct, curve::pairing(ctx, td.td, ct.a));
}

std::vector<uint8_t> peks_test_batch(const curve::CurveCtx& ctx,
                                     std::span<const PeksCiphertext> cts,
                                     const Trapdoor& td,
                                     par::ThreadPool* pool) {
  const TrapdoorPrecomp pre(ctx, td.td);
  return peks_test_matrix(ctx, std::span(&pre, 1), cts, pool);
}

std::vector<uint8_t> peks_test_matrix(const curve::CurveCtx& ctx,
                                      std::span<const TrapdoorPrecomp> tds,
                                      std::span<const PeksCiphertext> tags,
                                      par::ThreadPool* pool) {
  const size_t t = tags.size();
  std::vector<curve::MillerTerm> terms;
  terms.reserve(tds.size() * t);
  for (const TrapdoorPrecomp& td : tds) {
    for (const PeksCiphertext& tag : tags) terms.push_back({&td, tag.a});
  }
  std::vector<curve::Gt> gs = curve::final_exp_batch(
      ctx, curve::miller_batch(ctx, terms, pool), pool);
  std::vector<uint8_t> out(gs.size());
  for (size_t k = 0; k < gs.size(); ++k) {
    out[k] = tag_matches(tags[k % t], gs[k]) ? 1 : 0;
  }
  return out;
}

Bytes PeksCiphertext::to_bytes() const {
  io::Writer w;
  w.u8(static_cast<uint8_t>(variant));
  w.bytes(curve::point_to_bytes(a));
  w.bytes(b);
  w.bytes(check);
  return w.take();
}

PeksCiphertext PeksCiphertext::from_bytes(const curve::CurveCtx& ctx,
                                          BytesView data) {
  io::Reader r(data);
  PeksCiphertext ct;
  uint8_t v = r.u8();
  if (v > 1) throw std::invalid_argument("PeksCiphertext: bad variant");
  ct.variant = static_cast<Variant>(v);
  ct.a = curve::point_from_bytes(ctx, r.bytes());
  ct.b = r.bytes();
  ct.check = r.bytes();
  r.expect_done("PeksCiphertext");
  return ct;
}

size_t PeksCiphertext::size() const {
  // Mirrors to_bytes() arithmetically: u8 variant, then three u32-length-
  // prefixed fields — the 129-byte point encoding (1 byte if at infinity),
  // the tag and the kRandomized check value.
  const size_t point_len = a.infinity ? 1 : 1 + 2 * 64;
  return 1 + (4 + point_len) + (4 + b.size()) + (4 + check.size());
}

PeksCiphertext PeksEncryptor::encrypt(std::string_view role_id,
                                      std::string_view kw, RandomSource& rng,
                                      Variant variant) {
  return tag_from_base(*pub_.ctx, role_base(role_id),
                       keyword_scalar(*pub_.ctx, kw), rng, variant);
}

PeksCiphertext PeksEncryptor::encrypt_set(std::string_view role_id,
                                          std::span<const std::string> keywords,
                                          RandomSource& rng, Variant variant) {
  return tag_from_base(*pub_.ctx, role_base(role_id),
                       keyword_set_scalar(*pub_.ctx, keywords), rng, variant);
}

void PeksEncryptor::evict(std::string_view role_id) {
  auto it = cache_.find(role_id);
  if (it != cache_.end()) cache_.erase(it);
}

const curve::Gt& PeksEncryptor::role_base(std::string_view role_id) {
  auto it = cache_.find(role_id);
  if (it == cache_.end()) {
    it = cache_.emplace(std::string(role_id), role_pairing_base(pub_, role_id))
             .first;
  }
  return it->second;
}

Bytes Trapdoor::to_bytes() const { return curve::point_to_bytes(td); }

Trapdoor Trapdoor::from_bytes(const curve::CurveCtx& ctx, BytesView b) {
  return Trapdoor{curve::point_from_bytes(ctx, b)};
}

}  // namespace hcpp::peks
