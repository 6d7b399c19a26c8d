#include "src/prf/feistel.h"

#include <stdexcept>

namespace hcpp::prf {

FeistelPrp::FeistelPrp(BytesView key, size_t width_bytes)
    : mac_(key), width_(width_bytes) {
  if (width_ < 2) {
    throw std::invalid_argument("FeistelPrp: width must be >= 2 bytes");
  }
}

Bytes FeistelPrp::round_value(int round, BytesView half,
                              size_t out_len) const {
  Bytes msg;
  msg.push_back(static_cast<uint8_t>(round));
  append(msg, half);
  Bytes full = mac_.eval(msg);
  // Widths beyond 32 bytes are rare here (trapdoors are small), but stay
  // correct anyway by chaining.
  while (full.size() < out_len) {
    Bytes more = mac_.eval(full);
    append(full, more);
  }
  full.resize(out_len);
  return full;
}

Bytes FeistelPrp::forward(BytesView in) const { return permute(in, false); }

Bytes FeistelPrp::inverse(BytesView in) const { return permute(in, true); }

Bytes FeistelPrp::permute(BytesView in, bool inverse) const {
  if (in.size() != width_) {
    throw std::invalid_argument("FeistelPrp: width mismatch");
  }
  size_t l = width_ / 2;
  Bytes left(in.begin(), in.begin() + static_cast<ptrdiff_t>(l));
  Bytes right(in.begin() + static_cast<ptrdiff_t>(l), in.end());
  // The inverse runs the rounds backwards, swapping the halves first.
  for (int i = 0; i < kRounds; ++i) {
    if (inverse) std::swap(left, right);
    Bytes f = round_value(inverse ? kRounds - 1 - i : i, right, left.size());
    for (size_t k = 0; k < left.size(); ++k) left[k] ^= f[k];
    if (!inverse) std::swap(left, right);
  }
  // kRounds is even, so halves are back in their original positions.
  Bytes out = left;
  append(out, right);
  return out;
}

namespace {
// Smallest even bit count b with 2^b >= n (balanced Feistel halves).
int even_bit_width(uint64_t n) noexcept {
  int b = 2;
  while (b < 62 && (1ull << b) < n) b += 2;
  return b;
}
}  // namespace

SmallDomainPrp::SmallDomainPrp(BytesView key, uint64_t domain_size)
    : mac_(key), n_(domain_size) {
  if (n_ < 2) {
    throw std::invalid_argument("SmallDomainPrp: domain must be >= 2");
  }
  left_bits_ = even_bit_width(n_) / 2;
}

namespace {
uint64_t feistel_f(const hash::HmacKey& mac, int round, uint64_t right,
                   int out_bits) {
  uint8_t msg[9];
  msg[0] = static_cast<uint8_t>(round);
  for (int i = 0; i < 8; ++i) msg[1 + i] = static_cast<uint8_t>(right >> (8 * i));
  hash::Digest f = mac.eval_digest(BytesView(msg, 9));
  uint64_t fv = 0;
  for (int i = 0; i < 8; ++i) fv |= static_cast<uint64_t>(f[i]) << (8 * i);
  return fv & ((1ull << out_bits) - 1);
}
}  // namespace

uint64_t SmallDomainPrp::round_once(uint64_t x) const {
  const int hb = left_bits_;
  const uint64_t mask = (1ull << hb) - 1;
  uint64_t left = x >> hb;
  uint64_t right = x & mask;
  for (int round = 0; round < kRounds; ++round) {
    left ^= feistel_f(mac_, round, right, hb);
    std::swap(left, right);
  }
  return (left << hb) | right;
}

uint64_t SmallDomainPrp::unround_once(uint64_t y) const {
  const int hb = left_bits_;
  const uint64_t mask = (1ull << hb) - 1;
  uint64_t left = y >> hb;
  uint64_t right = y & mask;
  for (int round = kRounds - 1; round >= 0; --round) {
    std::swap(left, right);
    left ^= feistel_f(mac_, round, right, hb);
  }
  return (left << hb) | right;
}

uint64_t SmallDomainPrp::forward(uint64_t x) const {
  if (x >= n_) throw std::out_of_range("SmallDomainPrp::forward");
  uint64_t y = round_once(x);
  while (y >= n_) y = round_once(y);  // cycle walking
  return y;
}

uint64_t SmallDomainPrp::inverse(uint64_t y) const {
  if (y >= n_) throw std::out_of_range("SmallDomainPrp::inverse");
  uint64_t x = unround_once(y);
  while (x >= n_) x = unround_once(x);
  return x;
}

}  // namespace hcpp::prf
