#include "src/hash/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/hash/sha256_shani.h"
#include "src/mp/dispatch.h"

namespace hcpp::hash {

namespace {

constexpr std::array<uint32_t, 8> kInit = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                           0xa54ff53a, 0x510e527f, 0x9b05688c,
                                           0x1f83d9ab, 0x5be0cd19};

inline uint32_t rotr(uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

// The portable kernel: the fallback and the differential oracle of the
// SHA-NI one.
void compress_generic(uint32_t state[8], const uint8_t* block,
                      size_t nblocks) noexcept {
  for (; nblocks != 0; --nblocks, block += kSha256BlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
             (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// Whether blocks go to the SHA-NI kernel. Checked per call (two cached
// loads), so HCPP_FORCE_GENERIC toggles take effect immediately.
inline bool use_shani() noexcept {
  return shani::compiled() && mp::cpu_features().sha && !mp::force_generic();
}

}  // namespace

void Sha256::reset() noexcept {
  state_ = kInit;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::compress_blocks(const uint8_t* data, size_t n) noexcept {
  if (n == 0) return;
  auto* kernel = use_shani() ? shani::compress_blocks : compress_generic;
  kernel(state_.data(), data, n);
}

void Sha256::update(BytesView data) noexcept {
  if (data.empty()) return;  // an empty view may carry a null data()
  total_len_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (buffer_len_ != 0) {
    size_t take = std::min(kSha256BlockSize - buffer_len_, n);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    if (buffer_len_ < kSha256BlockSize) return;
    compress_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
    p += take;
    n -= take;
  }
  compress_blocks(p, n / kSha256BlockSize);
  buffer_len_ = n % kSha256BlockSize;
  std::memcpy(buffer_.data(), p + (n - buffer_len_), buffer_len_);
}

Digest Sha256::finish() noexcept {
  // 0x80, zeros up to 56 mod 64, the 64-bit big-endian bit length; a tail of
  // 56 bytes or more spills the padding into a second block.
  buffer_[buffer_len_] = 0x80;
  std::fill(buffer_.begin() + buffer_len_ + 1, buffer_.end(), 0);
  if (buffer_len_ >= kSha256BlockSize - 8) {
    compress_blocks(buffer_.data(), 1);
    buffer_.fill(0);
  }
  uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_blocks(buffer_.data(), 1);
  Digest d;
  for (int i = 0; i < 8; ++i) {
    d[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    d[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    d[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    d[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return d;
}

Digest sha256(BytesView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes sha256_bytes(BytesView data) {
  Digest d = sha256(data);
  return Bytes(d.begin(), d.end());
}

const char* sha256_kernel_name() noexcept {
  return use_shani() ? "sha-ni" : "generic";
}

}  // namespace hcpp::hash
