// HMAC-SHA256 (RFC 2104). This is the paper's HMAC_ν message authenticator
// and the round function for the HMAC-based PRFs/PRPs.
#pragma once

#include <initializer_list>

#include "src/common/bytes.h"
#include "src/hash/sha256.h"

namespace hcpp::hash {

/// Precomputed HMAC-SHA256 key schedule: the inner/outer SHA-256 midstates
/// after absorbing ipad/opad. Construction pays the two pad compressions
/// once; every eval() then costs two block copies instead — for the short
/// messages the PRF/PRP stack feeds (≤ 55 bytes), that halves the number of
/// SHA-256 compressions per call. Immutable after construction, so one
/// instance may be shared across threads.
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(BytesView key);

  /// Full 32-byte tag.
  [[nodiscard]] Bytes eval(BytesView message) const;
  /// Truncated tag (`out_len` <= 32).
  [[nodiscard]] Bytes eval_trunc(BytesView message, size_t out_len) const;
  [[nodiscard]] Digest eval_digest(BytesView message) const;
  /// Tag over the concatenation of `parts`, streamed into the compression
  /// function — identical to eval() on the joined buffer, without building
  /// it. For the AEAD's framed mac input (len ‖ aad ‖ nonce ‖ ciphertext).
  [[nodiscard]] Digest eval_digest_parts(
      std::initializer_list<BytesView> parts) const;

 private:
  Sha256 inner_;  // state after update(ipad)
  Sha256 outer_;  // state after update(opad)
};

/// Full 32-byte HMAC-SHA256 tag.
Bytes hmac_sha256(BytesView key, BytesView message);

/// Truncated tag (`out_len` <= 32), as used by the PRF f in the SSE index.
Bytes hmac_sha256_trunc(BytesView key, BytesView message, size_t out_len);

}  // namespace hcpp::hash
