// Bernstein–Yang "safegcd" modular inversion ("Fast constant-time gcd
// computation and modular inversion", TCHES 2019), in the variable-time form
// of libsecp256k1's modinv64_var: signed 62-bit limbs, 62 divsteps per outer
// step computed from the low bits of (f, g) alone, and one 2×2 transition
// matrix applied to (f, g) and, modulo m, to the Bézout coefficients (d, e).
// One portable implementation serves every modulus width up to 512 bits.
// Variable time: its running time depends on the operand, like the binary
// extended Euclid (mp::inv_mod) it replaces; callers use it on public or
// blinded values only.
#pragma once

#include "src/mp/u512.h"

namespace hcpp::mp {

/// Returns d with a·d ≡ 1 (mod m) for odd m > 1 and 0 < a < m when
/// gcd(a, m) = 1. For a non-invertible a the result is some value that does
/// not satisfy the congruence: callers verify it (MontCtx::inv checks one
/// Montgomery product) instead of paying for a gcd test here.
[[nodiscard]] U512 safegcd_inv(const U512& a, const U512& m) noexcept;

}  // namespace hcpp::mp
