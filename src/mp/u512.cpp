#include "src/mp/u512.h"

#include <stdexcept>

namespace hcpp::mp {

using uint128 = unsigned __int128;

U512 U512::from_u64(uint64_t v) {
  U512 r;
  r.w[0] = v;
  return r;
}

U512 U512::from_hex(std::string_view hex) {
  if (hex.size() > 2 * kLimbs * 8) {
    throw std::invalid_argument("U512::from_hex: too long");
  }
  U512 r;
  size_t bit = 0;  // bits consumed from the least-significant end
  for (size_t i = hex.size(); i-- > 0;) {
    char c = hex[i];
    uint64_t nib;
    if (c >= '0' && c <= '9') {
      nib = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nib = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      throw std::invalid_argument("U512::from_hex: invalid digit");
    }
    r.w[bit / 64] |= nib << (bit % 64);
    bit += 4;
  }
  return r;
}

U512 U512::from_bytes_be(BytesView b) {
  if (b.size() > kLimbs * 8) {
    throw std::invalid_argument("U512::from_bytes_be: too long");
  }
  U512 r;
  size_t shift = 0;
  for (size_t i = b.size(); i-- > 0;) {
    r.w[shift / 64] |= static_cast<uint64_t>(b[i]) << (shift % 64);
    shift += 8;
  }
  return r;
}

Bytes U512::to_bytes_be() const {
  Bytes out(kLimbs * 8);
  for (size_t i = 0; i < kLimbs * 8; ++i) {
    size_t shift = 8 * i;
    out[kLimbs * 8 - 1 - i] =
        static_cast<uint8_t>(w[shift / 64] >> (shift % 64));
  }
  return out;
}

Bytes U512::to_bytes_be_trimmed() const {
  Bytes full = to_bytes_be();
  size_t start = 0;
  while (start + 1 < full.size() && full[start] == 0) ++start;
  return Bytes(full.begin() + static_cast<ptrdiff_t>(start), full.end());
}

std::string U512::to_hex() const {
  Bytes trimmed = to_bytes_be_trimmed();
  return hex_encode(trimmed);
}

bool U512::is_zero() const noexcept {
  uint64_t acc = 0;
  for (uint64_t limb : w) acc |= limb;
  return acc == 0;
}

bool U512::bit(size_t i) const noexcept {
  if (i >= kBits) return false;
  return ((w[i / 64] >> (i % 64)) & 1) != 0;
}

size_t U512::bit_length() const noexcept {
  for (size_t i = kLimbs; i-- > 0;) {
    if (w[i] != 0) {
      return 64 * i + (64 - static_cast<size_t>(__builtin_clzll(w[i])));
    }
  }
  return 0;
}

std::strong_ordering operator<=>(const U512& a, const U512& b) noexcept {
  for (size_t i = kLimbs; i-- > 0;) {
    if (a.w[i] != b.w[i]) {
      return a.w[i] < b.w[i] ? std::strong_ordering::less
                             : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

uint64_t add(U512& r, const U512& a, const U512& b) noexcept {
  uint64_t carry = 0;
  for (size_t i = 0; i < kLimbs; ++i) {
    uint128 s = static_cast<uint128>(a.w[i]) + b.w[i] + carry;
    r.w[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  return carry;
}

uint64_t sub(U512& r, const U512& a, const U512& b) noexcept {
  uint64_t borrow = 0;
  for (size_t i = 0; i < kLimbs; ++i) {
    uint128 d = static_cast<uint128>(a.w[i]) - b.w[i] - borrow;
    r.w[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>((d >> 64) & 1);
  }
  return borrow;
}

void mul_wide(U1024& r, const U512& a, const U512& b) noexcept {
  r.fill(0);
  for (size_t i = 0; i < kLimbs; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < kLimbs; ++j) {
      uint128 cur = static_cast<uint128>(a.w[i]) * b.w[j] + r[i + j] + carry;
      r[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    r[i + kLimbs] = carry;
  }
}

U512 shl1(const U512& a) noexcept {
  U512 r;
  uint64_t carry = 0;
  for (size_t i = 0; i < kLimbs; ++i) {
    r.w[i] = (a.w[i] << 1) | carry;
    carry = a.w[i] >> 63;
  }
  return r;
}

U512 shr1(const U512& a) noexcept { return shr1_carry(a, 0); }

U512 shr1_carry(const U512& a, uint64_t carry_in) noexcept {
  U512 r;
  uint64_t carry = carry_in & 1;
  for (size_t i = kLimbs; i-- > 0;) {
    r.w[i] = (a.w[i] >> 1) | (carry << 63);
    carry = a.w[i] & 1;
  }
  return r;
}

DivMod divmod(const U512& a, const U512& m) {
  if (m.is_zero()) throw std::domain_error("divmod: zero modulus");
  DivMod out;
  if (a < m) {
    out.remainder = a;
    return out;
  }
  for (size_t bit = a.bit_length(); bit-- > 0;) {
    uint64_t carry = 0;
    {
      // remainder = remainder << 1 | a.bit(bit)
      U512& r = out.remainder;
      for (size_t i = 0; i < kLimbs; ++i) {
        uint64_t next = r.w[i] >> 63;
        r.w[i] = (r.w[i] << 1) | carry;
        carry = next;
      }
      r.w[0] |= a.bit(bit) ? 1 : 0;
    }
    out.quotient = shl1(out.quotient);
    if (!(out.remainder < m)) {
      U512 tmp;
      sub(tmp, out.remainder, m);
      out.remainder = tmp;
      out.quotient.w[0] |= 1;
    }
  }
  return out;
}

U512 mod(const U512& a, const U512& m) {
  if (m.is_zero()) throw std::domain_error("mod: zero modulus");
  if (a < m) return a;
  // Binary long division: align m's top bit with a's, then shift-subtract.
  size_t shift = a.bit_length() - m.bit_length();
  U512 r = a;
  // Build m << shift limb-wise to avoid 512 single-bit shifts.
  for (size_t s = shift + 1; s-- > 0;) {
    // den = m << s (may conceptually overflow only if s too big; bounded by
    // construction since a fits in 512 bits and m<<shift <= a's magnitude*2).
    U512 den;
    size_t limb_shift = s / 64;
    size_t bit_shift = s % 64;
    for (size_t i = kLimbs; i-- > 0;) {
      uint64_t hi = (i >= limb_shift) ? m.w[i - limb_shift] << bit_shift : 0;
      uint64_t lo = (bit_shift != 0 && i >= limb_shift + 1)
                        ? m.w[i - limb_shift - 1] >> (64 - bit_shift)
                        : 0;
      den.w[i] = hi | lo;
    }
    if (den <= r) {
      U512 tmp;
      sub(tmp, r, den);
      r = tmp;
    }
  }
  return r;
}

namespace {
// Shifts r left by one bit in place, returning the bit shifted out the top.
uint64_t shl1_into(U512& r) noexcept {
  uint64_t carry = 0;
  for (size_t i = 0; i < kLimbs; ++i) {
    uint64_t next = r.w[i] >> 63;
    r.w[i] = (r.w[i] << 1) | carry;
    carry = next;
  }
  return carry;
}
}  // namespace

U512 mod_wide(const U1024& a, const U512& m) {
  if (m.is_zero()) throw std::domain_error("mod_wide: zero modulus");
  // Process the high half one bit at a time into a 512-bit remainder, then
  // finish with the narrow reduction. Remainder r always stays < m.
  U512 r;  // running remainder
  bool high_nonzero = false;
  for (size_t i = 2 * kLimbs; i-- > kLimbs;) high_nonzero |= (a[i] != 0);
  if (!high_nonzero) {
    U512 lo;
    for (size_t i = 0; i < kLimbs; ++i) lo.w[i] = a[i];
    return mod(lo, m);
  }
  for (size_t bit = 2 * kBits; bit-- > 0;) {
    uint64_t carry = shl1_into(r);
    r.w[0] |= (a[bit / 64] >> (bit % 64)) & 1;
    // If the shift overflowed 512 bits or r >= m, subtract m. Overflow can
    // only happen when m uses all 512 bits; then r < 2m and one subtraction
    // restores the invariant.
    if (carry != 0 || !(r < m)) {
      U512 tmp;
      sub(tmp, r, m);
      r = tmp;
    }
  }
  return r;
}

U512 add_mod(const U512& a, const U512& b, const U512& m) noexcept {
  U512 r;
  uint64_t carry = add(r, a, b);
  if (carry != 0 || !(r < m)) {
    U512 tmp;
    sub(tmp, r, m);
    r = tmp;
  }
  return r;
}

U512 sub_mod(const U512& a, const U512& b, const U512& m) noexcept {
  U512 r;
  uint64_t borrow = sub(r, a, b);
  if (borrow != 0) {
    U512 tmp;
    add(tmp, r, m);
    r = tmp;
  }
  return r;
}

U512 mul_mod(const U512& a, const U512& b, const U512& m) {
  U1024 wide;
  mul_wide(wide, a, b);
  return mod_wide(wide, m);
}

}  // namespace hcpp::mp
