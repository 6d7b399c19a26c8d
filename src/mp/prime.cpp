#include "src/mp/prime.h"

#include <stdexcept>

#include "src/mp/mont.h"

namespace hcpp::mp {

U512 random_below(const U512& bound, RandomSource& rng) {
  if (bound.is_zero()) throw std::invalid_argument("random_below: zero bound");
  size_t bits = bound.bit_length();
  for (;;) {
    Bytes buf = rng.bytes((bits + 7) / 8);
    // Mask excess high bits so the rejection rate stays below 1/2.
    size_t excess = buf.size() * 8 - bits;
    buf[0] &= static_cast<uint8_t>(0xff >> excess);
    U512 v = U512::from_bytes_be(buf);
    if (v < bound) return v;
  }
}

U512 random_bits(size_t bits, RandomSource& rng) {
  if (bits == 0 || bits > kBits) {
    throw std::invalid_argument("random_bits: bad width");
  }
  Bytes buf = rng.bytes((bits + 7) / 8);
  size_t excess = buf.size() * 8 - bits;
  buf[0] &= static_cast<uint8_t>(0xff >> excess);
  buf[0] |= static_cast<uint8_t>(0x80 >> excess);  // force top bit
  return U512::from_bytes_be(buf);
}

namespace {
constexpr uint64_t kSmallPrimes[] = {
    2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199};

// n mod d for small d via per-limb folding.
uint64_t mod_small(const U512& n, uint64_t d) noexcept {
  unsigned __int128 r = 0;
  for (size_t i = kLimbs; i-- > 0;) {
    r = ((r << 64) | n.w[i]) % d;
  }
  return static_cast<uint64_t>(r);
}
}  // namespace

bool is_probable_prime(const U512& n, RandomSource& rng, int rounds) {
  if (n.bit_length() < 2) return false;  // 0, 1
  for (uint64_t p : kSmallPrimes) {
    if (n == U512::from_u64(p)) return true;
    if (mod_small(n, p) == 0) return false;
  }
  if (!n.is_odd()) return false;
  // n - 1 = d * 2^s
  U512 n_minus1;
  sub(n_minus1, n, U512::from_u64(1));
  U512 d = n_minus1;
  size_t s = 0;
  while (!d.is_odd()) {
    d = shr1(d);
    ++s;
  }
  MontCtx ctx(n);
  const U512 one_m = ctx.one();
  const U512 minus1_m = ctx.sub(U512{}, one_m);  // -1 in Montgomery form
  U512 n_minus3 = n_minus1;
  {
    U512 tmp;
    sub(tmp, n_minus3, U512::from_u64(2));
    n_minus3 = tmp;  // bases drawn from [2, n-2]
  }
  for (int round = 0; round < rounds; ++round) {
    U512 a = add_mod(random_below(n_minus3, rng), U512::from_u64(2), n);
    U512 x = ctx.pow(ctx.to_mont(a), d);
    if (x == one_m || x == minus1_m) continue;
    bool composite = true;
    for (size_t i = 1; i < s; ++i) {
      x = ctx.sqr(x);
      if (x == minus1_m) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace hcpp::mp
