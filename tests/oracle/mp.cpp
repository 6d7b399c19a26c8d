#include "tests/oracle/oracle.h"

#include <stdexcept>

#include "src/mp/prime.h"

namespace hcpp::mp {

U512 inv_mod(const U512& a, const U512& m) {
  if (!m.is_odd()) throw std::domain_error("inv_mod: even modulus");
  U512 u = mod(a, m);
  if (u.is_zero()) throw std::domain_error("inv_mod: zero input");
  U512 v = m;
  U512 x1 = U512::from_u64(1);
  U512 x2;  // 0
  const U512 one = U512::from_u64(1);
  while (u != one && v != one) {
    // gcd(a, m) != 1 drives one operand to zero; bail out instead of
    // halving zero forever.
    if (u.is_zero() || v.is_zero()) {
      throw std::domain_error("inv_mod: not invertible");
    }
    while (!u.is_odd()) {
      u = shr1(u);
      if (x1.is_odd()) {
        U512 tmp;
        uint64_t carry = add(tmp, x1, m);
        x1 = shr1_carry(tmp, carry);
      } else {
        x1 = shr1(x1);
      }
    }
    while (!v.is_odd()) {
      v = shr1(v);
      if (x2.is_odd()) {
        U512 tmp;
        uint64_t carry = add(tmp, x2, m);
        x2 = shr1_carry(tmp, carry);
      } else {
        x2 = shr1(x2);
      }
    }
    if (u >= v) {
      U512 tmp;
      sub(tmp, u, v);
      u = tmp;
      x1 = sub_mod(x1, x2, m);
    } else {
      U512 tmp;
      sub(tmp, v, u);
      v = tmp;
      x2 = sub_mod(x2, x1, m);
    }
  }
  U512 r = (u == one) ? x1 : x2;
  // gcd != 1 leaves u and v both != 1 only if the loop exited wrongly; guard
  // by verifying the result.
  if (mul_mod(mod(a, m), r, m) != one) {
    throw std::domain_error("inv_mod: not invertible");
  }
  return r;
}

U512 generate_prime(size_t bits, RandomSource& rng) {
  if (bits < 3) throw std::invalid_argument("generate_prime: too small");
  for (;;) {
    U512 candidate = random_bits(bits, rng);
    candidate.w[0] |= 1;  // odd
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace hcpp::mp
