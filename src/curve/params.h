// Named pairing parameter sets and fresh parameter generation.
//
//  * kTest       — 256-bit p / q = 2^149 + 2^12 − 1: fast, used by the tests.
//  * kProduction — 512-bit p / q = 2^159 + 2^17 + 1: the "1024-bit RSA
//                  equivalent" setting the paper's §V.B.3 timing discussion
//                  assumes.
//
// Both named sets are generated deterministically (fixed seeds) on first use
// and cached for the process lifetime, so every test/bench run shares one
// context per set.
#pragma once

#include <memory>

#include "src/curve/ec.h"

namespace hcpp::curve {

enum class ParamSet { kTest, kProduction };

/// Shared immutable context for a named set (never null).
const CurveCtx& params(ParamSet set);

struct GeneratedParams {
  mp::U512 p, q, gx, gy;
};

/// Generates a fresh domain: the first Solinas prime q = 2^(q_bits−1) + 2^b ± 1
/// (smallest b, +1 first; PBC's "type A" group order), a prime p = c·q − 1
/// of about `p_bits` bits with a random c ≡ 0 (mod 4), so p ≡ 3 (mod 4), and a
/// generator of the order-q subgroup. The sparse q makes almost every Miller
/// step a doubling; security rests on |q| and |p²|, not on q's form.
GeneratedParams generate_params(size_t q_bits, size_t p_bits,
                                RandomSource& rng);

/// Wraps generated parameters in a context (validates q | p+1, generator
/// order and curve membership; throws std::invalid_argument on failure).
std::unique_ptr<CurveCtx> make_curve(const GeneratedParams& gp,
                                     std::string name);

}  // namespace hcpp::curve
