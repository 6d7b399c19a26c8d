// Pseudo-random permutations (§II.B) via Luby–Rackoff Feistel networks with
// an HMAC round function.
//
//  * FeistelPrp      — PRP over fixed-width byte strings; realises the
//                      paper's ϖ (virtual-address PRP) and θ (the
//                      trapdoor-wrapping PRP of ASSIGN/REVOKE).
//  * SmallDomainPrp  — PRP over an arbitrary integer domain [0, n) via a
//                      numeric Feistel plus cycle-walking; realises φ, which
//                      scrambles node positions inside the SSE array A.
#pragma once

#include <cstdint>

#include "src/common/bytes.h"
#include "src/hash/hmac.h"

namespace hcpp::prf {

// Both PRPs precompute their HMAC key schedule at construction and are
// immutable afterwards, so instances are safe to share across pool workers.

class FeistelPrp {
 public:
  /// `width_bytes` >= 2. 8 Feistel rounds.
  FeistelPrp(BytesView key, size_t width_bytes);

  /// Permutes `in` (must be exactly width bytes).
  [[nodiscard]] Bytes forward(BytesView in) const;
  /// Inverse permutation.
  [[nodiscard]] Bytes inverse(BytesView in) const;

  [[nodiscard]] size_t width() const noexcept { return width_; }

 private:
  Bytes round_value(int round, BytesView half, size_t out_len) const;
  Bytes permute(BytesView in, bool inverse) const;

  hash::HmacKey mac_;
  size_t width_;
  static constexpr int kRounds = 8;
};

class SmallDomainPrp {
 public:
  /// Permutation over [0, domain_size), domain_size >= 2.
  SmallDomainPrp(BytesView key, uint64_t domain_size);

  [[nodiscard]] uint64_t forward(uint64_t x) const;
  [[nodiscard]] uint64_t inverse(uint64_t y) const;

  [[nodiscard]] uint64_t domain_size() const noexcept { return n_; }

 private:
  uint64_t round_once(uint64_t x) const;    // PRP over [0, 4^left_bits_)
  uint64_t unround_once(uint64_t y) const;  // its inverse

  hash::HmacKey mac_;
  uint64_t n_;
  int left_bits_;  // half of the smallest even bit width covering n, >= 1
  static constexpr int kRounds = 6;
};

}  // namespace hcpp::prf
