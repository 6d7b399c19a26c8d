// Primality testing and random sampling for parameter generation.
#pragma once

#include <cstddef>

#include "src/common/random.h"
#include "src/mp/u512.h"

namespace hcpp::mp {

/// Uniform value in [0, bound) by rejection sampling. bound must be nonzero.
U512 random_below(const U512& bound, RandomSource& rng);

/// Uniform value with exactly `bits` bits (top bit set). 1 <= bits <= 512.
U512 random_bits(size_t bits, RandomSource& rng);

/// Miller–Rabin with `rounds` random bases (deterministic small-prime
/// trial division first). Error probability <= 4^-rounds.
bool is_probable_prime(const U512& n, RandomSource& rng, int rounds = 32);

}  // namespace hcpp::mp
