#pragma once
// AVX-512 IFMA lane kernels: the F_p work of up to eight independent
// pairings at once, one pairing per 64-bit lane of a zmm register (the
// batched-lane technique of Cheng, Großschädl et al., "Batching CSIDH Group
// Actions using AVX-512", TCHES 2021).
//
// A lane holds an F_p element as L limbs of radix 2^52 (L = 10 for the
// 512-bit production modulus, 5 for the 256-bit test one), in its own
// Montgomery domain R' = 2^(52L) — not the R = 2^(64n) of MontCtx. Every
// product is VPMADD52LUQ/HUQ columns and one Montgomery reduction. Inside a
// kernel values stay below 2m (every reduction input is below 16m² and
// R' > 16m on both sets, so no reduction needs a final subtraction), and
// each output is reduced to [0, m) once,
// where the kernel writes it. The column loops are unrolled in full, so a
// product's 2L columns stay in zmm registers, and each product shape is one
// out-of-line body per width: a product, a square (L(L+1)/2 limb
// products), a line value l0 = c1·x + c0 left below 3m, and the line
// product f·(l0 + y·i) (four products, two reductions). Values cross between
// R and R' only where a kernel enters and leaves, by one lane product
// each:
//   to R':   mont'(a·R, to_lane)   with to_lane   = R'²/R mod m,
//   to R:    mont'(a·R', from_lane) with from_lane = R mod m.
// So a kernel returns the same field element, limb for limb, as the scalar
// MULX or portable code running the same formulas.
//
// The TU is built with -mavx512f -mavx512ifma -mavx512vl and entered only
// after mp::cpu_features() reports all three with OS support for the zmm
// state; compiled() is false where the compiler could not build it, and no
// other entry point may then be called. The Consts of a modulus are built
// by MontCtx (mont.cpp), outside this TU.

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/mp/u512.h"

namespace hcpp::mp::ifma {

inline constexpr size_t kLanes = 8;

// True when this TU holds the IFMA kernels.
bool compiled() noexcept;

/// A modulus and its lane-domain constants, all as 64-bit-limb integers.
struct Consts {
  size_t limbs = 0;  // L, with R' = 2^(52L): 5 or 10
  uint64_t n0 = 0;   // −m^(−1) mod 2^52
  U512 m;
  U512 one;        // R' mod m: 1 in the lane domain
  U512 to_lane;    // R'²/R mod m
  U512 from_lane;  // R mod m
};

/// The lane primitives. Lane l of the lanes (1 ≤ lanes ≤ 8) computes r[l]
/// from a[l] (and b[l]), each below 2m, and reduces it below m; r may alias
/// a or b.
///   kMul     r = a·b·R'^(−1) mod m
///   kSqr     r = a²·R'^(−1) mod m    (b unused)
///   kAdd     r = a + b mod m
///   kSub     r = a − b mod m
///   kToLane  r = a·R'/R mod m        (b unused; PairingPrecomp converts
///                                     its lines' c0 with it)
///   kFromLane r = a·R/R' mod m       (b unused)
enum class Op { kMul, kSqr, kAdd, kSub, kToLane, kFromLane };
void apply(const Consts& c, Op op, size_t lanes, U512* r, const U512* a,
           const U512* b) noexcept;

/// One step of the Miller loop, for the differential tests: lane l sets
///   g = (f0 + f1·i)²·R'^(−1),   l0 = c1·x·R'^(−1) + c0,
///   re + im·i = g·(l0 + y·i)·R'^(−1), reduced below m,
/// from element l of each input: f0, f1, x and y below 2m (a kernel's
/// values between products), c0 and c1 below m (a precomp's lines).
struct MillerStep {
  const U512 *f0, *f1, *c0, *c1, *x, *y;
  U512 *re, *im;
};
void miller_step(const Consts& c, size_t lanes, const MillerStep& s) noexcept;

/// One term of a fixed-argument Miller loop: the precomputed lines of P and
/// the point Q. Line k's c0 limbs are at c0 + k·stride, already in the lane
/// domain (c0·R' mod m, as kToLane gives), and its c1 limbs at
/// c0 + k·stride + c1_offset (in words), an R-domain residue like x_Q, y_Q.
struct MillerLane {
  const uint64_t* c0;
  const U512* xq;
  const U512* yq;
  U512* re;  // the Miller value f_(q,P)(ψ(Q)), written at exit
  U512* im;
};

/// Runs the loop of PairingPrecomp::miller_with for every lane in lockstep:
/// per digit after the first of `digits`, f = f², then f = f·((c0 + c1·x_Q)
/// + y_Q·i) for the doubling line and, on a nonzero digit, the addition
/// line. Bit l of ident[k] marks lane l's line k as the constant 1.
void miller(const Consts& c, std::span<const int8_t> digits, size_t stride,
            size_t c1_offset, std::span<const uint8_t> ident,
            std::span<const MillerLane> lanes) noexcept;

/// The final exponentiation's lane stages for Miller values f = re + im·i
/// with re·im ≠ 0 (curve::final_exp_batch keeps the others scalar):
///   fe_denominator: d = 4·re·im·(re² + im²), the element it inverts;
///   fe_finish:      (g_re, g_im) = f^((p²−1)/q) given d_inv = 1/d and the
///                   cofactor e, through t = conj(f)²/N(f) and the Lucas
///                   ladder of Fp2::pow_unitary.
void fe_denominator(const Consts& c, size_t lanes, const U512* re,
                    const U512* im, U512* d) noexcept;
void fe_finish(const Consts& c, size_t lanes, const U512* re, const U512* im,
               const U512* d_inv, const U512& e, U512* g_re,
               U512* g_im) noexcept;

}  // namespace hcpp::mp::ifma
