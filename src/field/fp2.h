// Quadratic extension F_{p^2} = F_p[i] / (i^2 + 1), valid because
// p ≡ 3 (mod 4) makes -1 a non-residue. This is the pairing target group's
// home; the Frobenius map is complex conjugation, which the final
// exponentiation exploits.
#pragma once

#include "src/field/fp.h"

namespace hcpp::field {

class Fp2 {
 public:
  Fp2() = default;
  Fp2(Fp a, Fp b) : a_(a), b_(b) {}

  static Fp2 zero(const FpCtx* ctx) { return {Fp::zero(ctx), Fp::zero(ctx)}; }
  static Fp2 one(const FpCtx* ctx) { return {Fp::one(ctx), Fp::zero(ctx)}; }

  [[nodiscard]] const Fp& re() const noexcept { return a_; }
  [[nodiscard]] const Fp& im() const noexcept { return b_; }
  [[nodiscard]] const FpCtx* ctx() const noexcept { return a_.ctx(); }
  [[nodiscard]] bool is_zero() const noexcept {
    return a_.is_zero() && b_.is_zero();
  }
  [[nodiscard]] bool is_one() const;

  [[nodiscard]] Fp2 operator+(const Fp2& o) const;
  [[nodiscard]] Fp2 operator-(const Fp2& o) const;
  /// Lazy-reduction Karatsuba in the Montgomery engine: three wide
  /// products, one reduction per output coefficient, written straight into
  /// the result (vs. three fully reduced muls plus five modular add/subs of
  /// the element-wise formulation).
  [[nodiscard]] Fp2 operator*(const Fp2& o) const {
    assert(ctx() != nullptr && ctx() == o.ctx());
    Fp2 r(ctx());
    ctx()->mont.fp2_mul(r.a_.v_, r.b_.v_, a_.v_, b_.v_, o.a_.v_, o.b_.v_);
    return r;
  }
  /// (a+bi)^2 = (a^2 - b^2) + 2ab·i, lazily reduced in the engine.
  [[nodiscard]] Fp2 sqr() const {
    assert(ctx() != nullptr);
    Fp2 r(ctx());
    ctx()->mont.fp2_sqr(r.a_.v_, r.b_.v_, a_.v_, b_.v_);
    return r;
  }
  [[nodiscard]] Fp2 conj() const;
  [[nodiscard]] Fp2 inv() const;
  [[nodiscard]] Fp2 pow(const mp::U512& e) const;
  /// *this^e for an element a + b·i of norm a² + b² = 1 with b ≠ 0, given
  /// inv_2b = 1/(2b): the Lucas ladder of Scott–Barreto ("Compressed
  /// Pairings", CRYPTO 2004), one F_p multiplication and one F_p squaring
  /// per bit of e. The pairing's final exponentiation runs through here.
  [[nodiscard]] Fp2 pow_unitary(const mp::U512& e, const Fp& inv_2b) const;

  friend bool operator==(const Fp2& a, const Fp2& b) noexcept = default;

  /// 128-byte canonical encoding (plain a || plain b), for key derivation.
  [[nodiscard]] Bytes to_bytes() const;

 private:
  // A result in ctx, its limbs left for a kernel to write.
  explicit Fp2(const FpCtx* ctx) noexcept : a_(ctx), b_(ctx) {}

  Fp a_;  // real part
  Fp b_;  // coefficient of i
};

}  // namespace hcpp::field
