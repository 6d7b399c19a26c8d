#include "src/hash/hmac.h"

#include <stdexcept>

namespace hcpp::hash {

HmacKey::HmacKey(BytesView key) {
  Bytes k(kSha256BlockSize, 0);
  if (key.size() > kSha256BlockSize) {
    Digest d = sha256(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  Bytes ipad(kSha256BlockSize), opad(kSha256BlockSize);
  for (size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Digest HmacKey::eval_digest(BytesView message) const {
  return eval_digest_parts({message});
}

Digest HmacKey::eval_digest_parts(
    std::initializer_list<BytesView> parts) const {
  Sha256 in = inner_;  // midstate copy — the ipad block is already absorbed
  for (BytesView part : parts) in.update(part);
  Digest inner_d = in.finish();
  Sha256 out = outer_;
  out.update(BytesView(inner_d.data(), inner_d.size()));
  return out.finish();
}

Bytes HmacKey::eval(BytesView message) const {
  Digest d = eval_digest(message);
  return Bytes(d.begin(), d.end());
}

Bytes HmacKey::eval_trunc(BytesView message, size_t out_len) const {
  if (out_len > kSha256DigestSize) {
    throw std::invalid_argument("HmacKey::eval_trunc: out_len > 32");
  }
  Digest d = eval_digest(message);
  return Bytes(d.begin(), d.begin() + static_cast<ptrdiff_t>(out_len));
}

Bytes hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).eval(message);
}

Bytes hmac_sha256_trunc(BytesView key, BytesView message, size_t out_len) {
  return HmacKey(key).eval_trunc(message, out_len);
}

}  // namespace hcpp::hash
