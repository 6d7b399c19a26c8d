#include "src/hash/hkdf.h"

#include <stdexcept>

#include "src/hash/hmac.h"
#include "src/hash/sha256.h"

namespace hcpp::hash {

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  // An empty salt stands for HashLen zero bytes (RFC 5869 §2.2); HMAC pads
  // its key with zeros to the block size, so both are the same key.
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(BytesView prk, BytesView info, size_t out_len) {
  if (out_len > 255 * kSha256DigestSize) {
    throw std::invalid_argument("hkdf_expand: output too long");
  }
  const HmacKey key(prk);
  Bytes out;
  Bytes t;
  uint8_t counter = 1;
  while (out.size() < out_len) {
    Bytes block = t;
    append(block, info);
    block.push_back(counter++);
    t = key.eval(block);
    append(out, t);
  }
  out.resize(out_len);
  return out;
}

Bytes hkdf(BytesView ikm, BytesView salt, BytesView info, size_t out_len) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, out_len);
}

}  // namespace hcpp::hash
