// Fixed-width 512-bit unsigned integer storage and generic arithmetic. All
// HCPP field and group elements fit in 512 bits; smaller parameter sets
// leave the high limbs zero. Storage stays a uniform 8 limbs, but the hot
// arithmetic is width-aware: MontCtx (mont.h) derives its active limb count
// from the modulus and only the helpers here — parameter generation,
// hashing, the division-based reductions — run full-width. Limbs are
// little-endian 64-bit words.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace hcpp::mp {

inline constexpr size_t kLimbs = 8;
inline constexpr size_t kBits = kLimbs * 64;

struct U512 {
  std::array<uint64_t, kLimbs> w;  // w[0] least significant

  constexpr U512() noexcept : w{} {}
  /// Leaves the limbs unset, for a result that a kernel writes in full
  /// (MontCtx stores all eight limbs of every result it writes).
  struct NoInit {};
  explicit U512(NoInit) noexcept {}
  static U512 from_u64(uint64_t v);
  /// Parses big-endian hex (at most 128 digits, leading zeros optional).
  static U512 from_hex(std::string_view hex);
  /// Parses big-endian bytes (at most 64).
  static U512 from_bytes_be(BytesView b);

  /// 64 big-endian bytes (fixed width).
  [[nodiscard]] Bytes to_bytes_be() const;
  /// Minimal-width big-endian bytes (at least one byte).
  [[nodiscard]] Bytes to_bytes_be_trimmed() const;
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const noexcept;
  [[nodiscard]] bool is_odd() const noexcept { return (w[0] & 1) != 0; }
  [[nodiscard]] bool bit(size_t i) const noexcept;
  /// Index of the highest set bit plus one; 0 for zero.
  [[nodiscard]] size_t bit_length() const noexcept;

  friend bool operator==(const U512& a, const U512& b) noexcept = default;
  friend std::strong_ordering operator<=>(const U512& a,
                                          const U512& b) noexcept;
};

/// 1024-bit product buffer.
using U1024 = std::array<uint64_t, 2 * kLimbs>;

/// r = a + b mod 2^512; returns the carry out.
uint64_t add(U512& r, const U512& a, const U512& b) noexcept;
/// r = a - b mod 2^512; returns the borrow out.
uint64_t sub(U512& r, const U512& a, const U512& b) noexcept;
/// Schoolbook full product.
void mul_wide(U1024& r, const U512& a, const U512& b) noexcept;

/// Logical shifts by one bit.
U512 shl1(const U512& a) noexcept;
U512 shr1(const U512& a) noexcept;
/// (a + carry_in·2^512) >> 1, used by the binary inversion ladder.
U512 shr1_carry(const U512& a, uint64_t carry_in) noexcept;

/// Quotient and remainder: a = q·m + r with r < m (m != 0). Binary long
/// division; not constant time — for public values only.
struct DivMod {
  U512 quotient;
  U512 remainder;
};
DivMod divmod(const U512& a, const U512& m);

/// a mod m via binary long division (m != 0). Not constant time; used only on
/// public values (hash outputs, parameter generation).
U512 mod(const U512& a, const U512& m);
/// Reduces a 1024-bit value mod m the same way.
U512 mod_wide(const U1024& a, const U512& m);

/// Modular arithmetic helpers for arbitrary moduli (inputs already < m).
U512 add_mod(const U512& a, const U512& b, const U512& m) noexcept;
U512 sub_mod(const U512& a, const U512& b, const U512& m) noexcept;
/// Generic modular multiply (wide product + binary reduction). Prefer
/// MontCtx::mul on hot paths.
U512 mul_mod(const U512& a, const U512& b, const U512& m);

/// a^{-1} mod m for odd m, gcd(a, m) = 1 (throws std::domain_error otherwise).
/// Binary extended Euclid: the reference the divstep MontCtx::inv is tested
/// against, not a hot path.
U512 inv_mod(const U512& a, const U512& m);

}  // namespace hcpp::mp
