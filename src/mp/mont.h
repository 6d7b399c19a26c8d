// Width-aware Montgomery modular arithmetic context (CIOS multiplication)
// for a fixed odd modulus. Every hot multiplication in the field/curve/
// pairing stack runs through this context. The active limb count n is
// derived from the modulus width (R = 2^{64n}), so a 256-bit modulus pays
// for 4-limb kernels instead of the full 8-limb storage width; the hot
// paths dispatch to unrolled fixed-width kernels for n = 4 (test set) and
// n = 8 (production set), with a generic any-width loop as fallback.
#pragma once

#include <span>

#include "src/mp/u512.h"

namespace hcpp::mp {

class MontCtx {
 public:
  /// `modulus` must be odd and > 2 (throws std::invalid_argument otherwise).
  explicit MontCtx(const U512& modulus);

  [[nodiscard]] const U512& modulus() const noexcept { return m_; }
  /// R mod m, the Montgomery representation of 1.
  [[nodiscard]] const U512& one() const noexcept { return one_; }
  /// Active limb count n: R = 2^{64n} with n = ceil(bits(m)/64).
  [[nodiscard]] size_t limbs() const noexcept { return n_; }
  /// Which multiply kernel this context dispatches to: "mulx-adx" when the
  /// fixed-width BMI2/ADX path was selected at construction (CPU supports
  /// both extensions and HCPP_FORCE_GENERIC is unset), "generic" otherwise.
  [[nodiscard]] const char* kernel_name() const noexcept {
    return mulx_ ? "mulx-adx" : "generic";
  }

  /// a (plain, any value — reduced mod m first if needed) -> aR mod m.
  [[nodiscard]] U512 to_mont(const U512& a) const;
  /// aR -> a.
  [[nodiscard]] U512 from_mont(const U512& a) const noexcept;

  /// Montgomery product: (aR)(bR)R^{-1} = abR. Operands must be < m.
  [[nodiscard]] U512 mul(const U512& a, const U512& b) const noexcept;
  [[nodiscard]] U512 sqr(const U512& a) const noexcept { return mul(a, a); }
  /// Modular add/sub on Montgomery (or plain) residues < m.
  [[nodiscard]] U512 add(const U512& a, const U512& b) const noexcept;
  [[nodiscard]] U512 sub(const U512& a, const U512& b) const noexcept;
  /// (base in Montgomery form)^exp, result in Montgomery form. `exp` plain.
  [[nodiscard]] U512 pow(const U512& base, const U512& exp) const noexcept;
  /// Inverse of a Montgomery residue, in Montgomery form: the divstep
  /// inversion of safegcd.h (variable time), checked with one Montgomery
  /// product. Throws std::domain_error on zero or a non-invertible input.
  [[nodiscard]] U512 inv(const U512& a) const;

  /// Montgomery's trick: inverts every residue in `xs` in place at the cost
  /// of one modular inversion plus 3(k-1) multiplications. Throws
  /// std::domain_error on a zero element (before modifying anything), the
  /// same contract as per-element inv().
  void batch_inv(std::span<U512> xs) const;

  /// F_{p^2} = F_p[i]/(i^2+1) product and square. The portable kernels use
  /// lazy reduction: Karatsuba over double-width accumulators with one
  /// Montgomery reduction per output coefficient, intermediate sums kept
  /// subtraction-free in [0, 2m) resp. [0, 5m^2) wide. The MULX/ADX kernels
  /// (mont_mulx.h) instead compose fully reduced asm CIOS products — three
  /// for the product (Karatsuba), two for the square — with modular adds
  /// and subtracts; both give the same fully reduced outputs in [0, m).
  /// Inputs/outputs are Montgomery residues; output references may alias
  /// the inputs.
  void fp2_mul(U512& c_re, U512& c_im, const U512& a_re, const U512& a_im,
               const U512& b_re, const U512& b_im) const noexcept;
  void fp2_sqr(U512& c_re, U512& c_im, const U512& a_re,
               const U512& a_im) const noexcept;

 private:
  U512 m_;
  size_t n_ = kLimbs;   // active limbs, R = 2^{64 n_}
  uint64_t n0inv_ = 0;  // -m^{-1} mod 2^64
  bool mulx_ = false;   // fixed-width MULX/ADX kernels selected (n = 4 or 8)
  U512 r2_;             // R^2 mod m
  U512 r3_;             // R^3 mod m
  U512 one_;            // R mod m
  // 2·m^2 as a wide little-endian constant: the non-negativity bias added to
  // the a_re·b_re − a_im·b_im channel of the portable fp2_mul before its
  // single reduction (2m^2 can exceed 2^{1024} for a full-width modulus,
  // hence the extra limbs).
  std::array<uint64_t, 2 * kLimbs + 2> mm2_{};
};

/// The kernel variant a freshly constructed fixed-width (n = 4 or 8) MontCtx
/// would dispatch to on this host right now: "mulx-adx" or "generic".
/// Benchmarks record this in their JSON context so numbers are comparable
/// across machines.
[[nodiscard]] const char* mont_kernel_name() noexcept;

}  // namespace hcpp::mp
