// Slow, independently derived reference implementations that the library's
// fast paths are tested against. None of them runs in the system: the
// library never calls or links them.
#pragma once

#include <cstddef>

#include "src/common/random.h"
#include "src/curve/pairing.h"
#include "src/mp/u512.h"

namespace hcpp::curve {

/// ê(P, Q) by the original affine Miller loop (one field inversion per
/// step). The oracle for pairing, PairingPrecomp, pairing_product and
/// miller_batch with final_exp_batch (tests/test_pairing.cpp, ctest
/// pairing_consistency).
Gt pairing_reference(const CurveCtx& ctx, const Point& p_in,
                     const Point& q_in);

}  // namespace hcpp::curve

namespace hcpp::mp {

/// a^{-1} mod m for odd m, gcd(a, m) = 1 (throws std::domain_error otherwise).
/// Binary extended Euclid: the reference the divstep MontCtx::inv is tested
/// against.
U512 inv_mod(const U512& a, const U512& m);

/// Random prime with exactly `bits` bits.
U512 generate_prime(size_t bits, RandomSource& rng);

}  // namespace hcpp::mp
