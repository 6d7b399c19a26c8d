// Width-aware Montgomery modular arithmetic context (CIOS multiplication)
// for a fixed odd modulus. Every hot field operation in the field/curve/
// pairing stack runs through this context. The active limb count n is
// derived from the modulus width (R = 2^{64n}), so a 256-bit modulus pays
// for 4-limb kernels instead of the full 8-limb storage width. Every kernel
// — mul, sqr, add, sub and the F_{p^2} product and square — dispatches to
// the MULX/ADX asm of mont_mulx.h for n = 4 (test set) and n = 8
// (production set) when the CPU has it, else to portable kernels unrolled
// for those widths, with a generic any-width loop as fallback. Batches of
// pairings also run eight at a time in the AVX-512 IFMA lanes of
// mont_ifma.h, whose constants the context holds (lanes()).
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>

#include "src/mp/mont_ifma.h"
#include "src/mp/mont_mulx.h"
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

  /// The IFMA lane constants of this modulus (mont_ifma.h); set for the
  /// fixed widths n = 4 and 8 only (limbs == 0 otherwise).
  [[nodiscard]] const ifma::Consts& lane_consts() const noexcept {
    return lane_;
  }
  /// The lane constants when this context runs the batched pairing stages
  /// in IFMA lanes — n = 4 or 8, the CPU has AVX-512 IFMA (with VL and the
  /// OS zmm state) and HCPP_FORCE_GENERIC was unset at construction — else
  /// nullptr.
  [[nodiscard]] const ifma::Consts* lanes() const noexcept {
    return lanes_ ? &lane_ : nullptr;
  }

  /// a (plain, any value — reduced mod m first if needed) -> aR mod m.
  [[nodiscard]] U512 to_mont(const U512& a) const;
  /// aR -> a.
  [[nodiscard]] U512 from_mont(const U512& a) const noexcept;

  /// Montgomery product: (aR)(bR)R^{-1} = abR. Operands must be < m. The
  /// in-place forms write straight into r, which may alias an operand.
  void mul(U512& r, const U512& a, const U512& b) const noexcept {
    kernel(
        [&](auto N) {
          mulx::mul<N>(r.w.data(), a.w.data(), b.w.data(), m_.w.data(),
                       n0inv_);
        },
        [&] { portable_mul(r, a, b); }, r);
  }
  /// Montgomery square a²R^{-1}; the MULX kernel skips the symmetric half
  /// of the product, the portable one is mul(a, a).
  void sqr(U512& r, const U512& a) const noexcept {
    kernel(
        [&](auto N) {
          mulx::sqr<N>(r.w.data(), a.w.data(), m_.w.data(), n0inv_);
        },
        [&] { portable_mul(r, a, a); }, r);
  }
  /// Modular add/sub on Montgomery (or plain) residues < m.
  void add(U512& r, const U512& a, const U512& b) const noexcept {
    kernel(
        [&](auto N) {
          mulx::add_mod<N>(r.w.data(), a.w.data(), b.w.data(), m_.w.data());
        },
        [&] { portable_add(r, a, b); }, r);
  }
  void sub(U512& r, const U512& a, const U512& b) const noexcept {
    kernel(
        [&](auto N) {
          mulx::sub_mod<N>(r.w.data(), a.w.data(), b.w.data(), m_.w.data());
        },
        [&] { portable_sub(r, a, b); }, r);
  }
  [[nodiscard]] U512 mul(const U512& a, const U512& b) const noexcept {
    U512 r(U512::NoInit{});
    mul(r, a, b);
    return r;
  }
  [[nodiscard]] U512 sqr(const U512& a) const noexcept {
    U512 r(U512::NoInit{});
    sqr(r, a);
    return r;
  }
  [[nodiscard]] U512 add(const U512& a, const U512& b) const noexcept {
    U512 r(U512::NoInit{});
    add(r, a, b);
    return r;
  }
  [[nodiscard]] U512 sub(const U512& a, const U512& b) const noexcept {
    U512 r(U512::NoInit{});
    sub(r, a, b);
    return r;
  }
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

  /// F_{p^2} = F_p[i]/(i^2+1) product and square. The products use lazy
  /// reduction: Karatsuba over three double-width products with one
  /// Montgomery reduction per output coefficient, the a_re·b_re − a_im·b_im
  /// channel kept non-negative by a 2m^2 bias (the MULX kernel biases the
  /// imaginary channel too, as its Karatsuba sums are reduced mod m). The
  /// portable square is lazy as well; the MULX square is two asm CIOS
  /// products. All give the same fully reduced outputs in [0, m).
  /// Inputs/outputs are Montgomery residues; every kernel reads its inputs
  /// before it writes an output, so the outputs may alias the inputs.
  void fp2_mul(U512& c_re, U512& c_im, const U512& a_re, const U512& a_im,
               const U512& b_re, const U512& b_im) const noexcept;
  void fp2_sqr(U512& c_re, U512& c_im, const U512& a_re,
               const U512& a_im) const noexcept;

  /// The Lucas ladder of a unitary power (Fp2::pow_unitary): (lo, hi) =
  /// (V_e, V_{e+1}) of V_0 = 2, V_1 = v1, V_{2k} = V_k² − 2 and
  /// V_{2k+1} = V_k·V_{k+1} − v1, one product and one square per bit of e.
  /// v1 and the outputs are Montgomery residues; e is plain.
  void lucas(U512& lo, U512& hi, const U512& v1, const U512& e) const noexcept;

 private:
  // Runs fast(N), the MULX kernel of width N = 4 or 8, when the context
  // selected one — inline, so an Fp operation costs one call — else slow(),
  // the portable kernel, out of line. Either stores the n active limbs of
  // each result in `outs`; their limbs n..7 are zeroed here, as U512
  // comparisons and encodings read all eight.
  template <typename Fast, typename Slow, typename... Out>
  void kernel(Fast&& fast, Slow&& slow, Out&... outs) const {
    if (mulx_ == 8) {
      fast(std::integral_constant<size_t, 8>{});
    } else if (mulx_ == 4) {
      fast(std::integral_constant<size_t, 4>{});
      (std::fill_n(outs.w.data() + 4, kLimbs - 4, 0), ...);
    } else {
      slow();
      (std::fill(outs.w.begin() + n_, outs.w.end(), 0), ...);
    }
  }
  void portable_mul(U512& r, const U512& a, const U512& b) const noexcept;
  void portable_add(U512& r, const U512& a, const U512& b) const noexcept;
  void portable_sub(U512& r, const U512& a, const U512& b) const noexcept;

  U512 m_;
  size_t n_ = kLimbs;   // active limbs, R = 2^{64 n_}
  uint64_t n0inv_ = 0;  // -m^{-1} mod 2^64
  size_t mulx_ = 0;     // width of the selected MULX/ADX kernels, or 0
  U512 r2_;             // R^2 mod m
  U512 r3_;             // R^3 mod m
  U512 one_;            // R mod m
  // 2·m^2 as a wide little-endian constant: the non-negativity bias added to
  // the a_re·b_re − a_im·b_im channel of the portable fp2_mul before its
  // single reduction (2m^2 can exceed 2^{1024} for a full-width modulus,
  // hence the extra limbs).
  std::array<uint64_t, 2 * kLimbs + 2> mm2_{};
  // Conditional subtractions that fully reduce the MULX fp2_mul's REDC of a
  // channel below 3m^2: ⌈3m/R⌉, or one more.
  uint64_t fp2_subs_ = 0;
  ifma::Consts lane_;
  bool lanes_ = false;
};

/// The kernel variant a freshly constructed fixed-width (n = 4 or 8) MontCtx
/// would dispatch to on this host right now: "mulx-adx" or "generic".
/// Benchmarks record this in their JSON context so numbers are comparable
/// across machines.
[[nodiscard]] const char* mont_kernel_name() noexcept;

/// The lane kernel the batched pairing stages run on this host right now:
/// "avx512ifma", or "none" when they run the scalar kernels above.
[[nodiscard]] const char* lane_kernel_name() noexcept;

}  // namespace hcpp::mp
