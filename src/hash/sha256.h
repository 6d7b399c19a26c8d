// SHA-256 (FIPS 180-4), implemented from scratch. Streaming and one-shot
// interfaces; the one-shot form is what most of the crypto stack uses.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.h"

namespace hcpp::hash {

inline constexpr size_t kSha256DigestSize = 32;
inline constexpr size_t kSha256BlockSize = 64;

using Digest = std::array<uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(BytesView data) noexcept;
  /// Finalizes and returns the digest; the object must be reset() before
  /// further use.
  Digest finish() noexcept;

 private:
  /// Absorbs `n` whole blocks through the host's kernel (SHA-NI or
  /// portable, picked per call like the other dispatched kernels).
  void compress_blocks(const uint8_t* data, size_t n) noexcept;

  std::array<uint32_t, 8> state_{};
  uint64_t total_len_ = 0;
  std::array<uint8_t, kSha256BlockSize> buffer_{};
  size_t buffer_len_ = 0;
};

/// One-shot digest.
Digest sha256(BytesView data) noexcept;
/// One-shot digest as a Bytes buffer (convenient for concat/xor pipelines).
Bytes sha256_bytes(BytesView data);

/// The compression kernel Sha256 uses on this host right now: "sha-ni" or
/// "generic". Benchmarks record this in their JSON context.
[[nodiscard]] const char* sha256_kernel_name() noexcept;

}  // namespace hcpp::hash
