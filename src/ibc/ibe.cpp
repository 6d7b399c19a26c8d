#include "src/ibc/ibe.h"

#include "src/common/serialize.h"
#include "src/hash/hkdf.h"

namespace hcpp::ibc {

namespace {

Bytes kem_key(const curve::Gt& g) {
  return hash::hkdf(g.to_bytes(), {}, to_bytes("hcpp-ibe-kem"), 32);
}

// The KEM/AEAD tail of every decryption: K = KDF(ê(Γ, U)), then the box;
// nullopt when the AEAD refuses it.
std::optional<Bytes> open_box(const curve::Gt& g, BytesView box) {
  Bytes key = kem_key(g);
  std::optional<Bytes> pt;
  try {
    pt = cipher::aead_decrypt(key, box, {});
  } catch (const cipher::AuthError&) {
  }
  secure_wipe(key);
  return pt;
}

IbeCiphertext encrypt_to_q(const PublicParams& pub, const curve::Point& q_id,
                           BytesView plaintext, RandomSource& rng) {
  const curve::CurveCtx& ctx = *pub.ctx;
  mp::U512 r = curve::random_scalar(ctx, rng);
  IbeCiphertext ct;
  ct.u = curve::mul_generator(ctx, r);
  curve::Gt g = pub.ppub_pre->pairing_with(q_id).pow(r);
  Bytes key = kem_key(g);
  ct.box = cipher::aead_encrypt(key, plaintext, {}, rng);
  secure_wipe(key);
  return ct;
}

}  // namespace

IbeCiphertext ibe_encrypt(const PublicParams& pub, std::string_view id,
                          BytesView plaintext, RandomSource& rng) {
  return encrypt_to_q(pub, Domain::public_key(*pub.ctx, id), plaintext, rng);
}

IbeCiphertext ibe_encrypt_to_point(const PublicParams& pub,
                                   const curve::Point& recipient,
                                   BytesView plaintext, RandomSource& rng) {
  return encrypt_to_q(pub, recipient, plaintext, rng);
}

Bytes ibe_decrypt(const curve::CurveCtx& ctx, const curve::Point& private_key,
                  const IbeCiphertext& ct) {
  // ê(Γ, U) = ê(s0·Q, rP) = ê(Q, Ppub)^r
  std::optional<Bytes> pt =
      open_box(curve::pairing(ctx, private_key, ct.u), ct.box);
  if (!pt) throw cipher::AuthError();
  return std::move(*pt);
}

IbeDecryptor::IbeDecryptor(const curve::CurveCtx& ctx,
                           const curve::Point& private_key)
    : ctx_(&ctx), pre_(ctx, private_key) {}

Bytes IbeDecryptor::decrypt(const IbeCiphertext& ct) const {
  std::optional<Bytes> pt = open_box(pre_.pairing_with(ct.u), ct.box);
  if (!pt) throw cipher::AuthError();
  return std::move(*pt);
}

std::vector<std::optional<Bytes>> IbeDecryptor::decrypt_batch(
    std::span<const IbeCiphertext> cts) const {
  std::vector<curve::MillerTerm> terms;
  terms.reserve(cts.size());
  for (const IbeCiphertext& ct : cts) terms.push_back({&pre_, ct.u});
  std::vector<field::Fp2> fs = curve::miller_batch(*ctx_, terms);
  // As in pairing_with, a pairing with a trivial argument is 1 and takes no
  // final exponentiation.
  auto trivial = [&](size_t i) { return pre_.trivial() || cts[i].u.infinity; };
  std::vector<field::Fp2> live;
  for (size_t i = 0; i < cts.size(); ++i) {
    if (!trivial(i)) live.push_back(std::move(fs[i]));
  }
  const std::vector<curve::Gt> gs = curve::final_exp_batch(*ctx_, live);
  std::vector<std::optional<Bytes>> out;
  out.reserve(cts.size());
  for (size_t i = 0, k = 0; i < cts.size(); ++i) {
    out.push_back(
        open_box(trivial(i) ? curve::Gt::one(*ctx_) : gs[k++], cts[i].box));
  }
  return out;
}

IbePrecomputed::IbePrecomputed(const PublicParams& pub, std::string_view id)
    : ctx_(pub.ctx),
      g_id_(pub.ppub_pre->pairing_with(Domain::public_key(*pub.ctx, id))) {}

IbePrecomputed::IbePrecomputed(const PublicParams& pub,
                               const curve::Point& recipient)
    : ctx_(pub.ctx), g_id_(pub.ppub_pre->pairing_with(recipient)) {}

IbeCiphertext IbePrecomputed::encrypt(BytesView plaintext,
                                      RandomSource& rng) const {
  mp::U512 r = curve::random_scalar(*ctx_, rng);
  IbeCiphertext ct;
  ct.u = curve::mul_generator(*ctx_, r);
  Bytes key = kem_key(g_id_.pow(r));
  ct.box = cipher::aead_encrypt(key, plaintext, {}, rng);
  secure_wipe(key);
  return ct;
}

namespace {

// FO hash H4: (σ, m) -> scalar r.
mp::U512 fo_scalar(const curve::CurveCtx& ctx, BytesView sigma,
                   BytesView message) {
  io::Writer w;
  w.bytes(sigma);
  w.bytes(message);
  return curve::hash_to_scalar(ctx, w.data(), "hcpp-ibe-fo-h4");
}

Bytes fo_mask(BytesView input, size_t out_len, std::string_view label) {
  return hash::hkdf(input, {}, to_bytes(label), out_len);
}

constexpr size_t kSigmaLen = 32;

}  // namespace

IbeCcaCiphertext ibe_encrypt_cca(const PublicParams& pub, std::string_view id,
                                 BytesView plaintext, RandomSource& rng) {
  const curve::CurveCtx& ctx = *pub.ctx;
  Bytes sigma = rng.bytes(kSigmaLen);
  mp::U512 r = fo_scalar(ctx, sigma, plaintext);
  IbeCcaCiphertext ct;
  ct.u = curve::mul_generator(ctx, r);
  curve::Gt g = pub.ppub_pre->pairing_with(Domain::public_key(ctx, id)).pow(r);
  ct.v = xor_bytes(sigma, fo_mask(g.to_bytes(), kSigmaLen, "hcpp-ibe-fo-h2"));
  ct.w = xor_bytes(Bytes(plaintext.begin(), plaintext.end()),
                   fo_mask(sigma, plaintext.size(), "hcpp-ibe-fo-h5"));
  return ct;
}

Bytes ibe_decrypt_cca(const curve::CurveCtx& ctx,
                      const ibc::PublicParams& pub,
                      const curve::Point& private_key,
                      const IbeCcaCiphertext& ct) {
  (void)pub;
  if (ct.u.infinity || ct.v.size() != kSigmaLen) throw cipher::AuthError();
  curve::Gt g = curve::pairing(ctx, private_key, ct.u);
  Bytes sigma =
      xor_bytes(ct.v, fo_mask(g.to_bytes(), kSigmaLen, "hcpp-ibe-fo-h2"));
  Bytes message =
      xor_bytes(ct.w, fo_mask(sigma, ct.w.size(), "hcpp-ibe-fo-h5"));
  // FO consistency: the randomness must rederive to the same U.
  mp::U512 r = fo_scalar(ctx, sigma, message);
  if (!(curve::mul_generator(ctx, r) == ct.u)) {
    throw cipher::AuthError();
  }
  return message;
}

Bytes IbeCcaCiphertext::to_bytes() const {
  io::Writer wr;
  wr.bytes(curve::point_to_bytes(u));
  wr.bytes(v);
  wr.bytes(w);
  return wr.take();
}

IbeCcaCiphertext IbeCcaCiphertext::from_bytes(const curve::CurveCtx& ctx,
                                              BytesView b) {
  io::Reader r(b);
  IbeCcaCiphertext ct;
  ct.u = curve::point_from_bytes(ctx, r.bytes());
  ct.v = r.bytes();
  ct.w = r.bytes();
  r.expect_done("IbeCcaCiphertext");
  return ct;
}

size_t IbeCcaCiphertext::size() const { return to_bytes().size(); }

Bytes IbeCiphertext::to_bytes() const {
  io::Writer w;
  w.bytes(curve::point_to_bytes(u));
  w.bytes(box);
  return w.take();
}

IbeCiphertext IbeCiphertext::from_bytes(const curve::CurveCtx& ctx,
                                        BytesView b) {
  io::Reader r(b);
  IbeCiphertext ct;
  ct.u = curve::point_from_bytes(ctx, r.bytes());
  ct.box = r.bytes();
  r.expect_done("IbeCiphertext");
  return ct;
}

size_t IbeCiphertext::size() const { return to_bytes().size(); }

}  // namespace hcpp::ibc
