// Prime field F_p used by the pairing curve. Elements are stored in
// Montgomery form and carry a pointer to their shared field context;
// contexts outlive all elements (they live in the Params registry).
#pragma once

#include <cassert>
#include <optional>

#include "src/mp/mont.h"
#include "src/mp/u512.h"

namespace hcpp::field {

struct FpCtx {
  mp::U512 p;
  mp::MontCtx mont;
  mp::U512 sqrt_exp;      // (p+1)/4 — valid because p ≡ 3 (mod 4)
  mp::U512 legendre_exp;  // (p-1)/2

  /// `p` must be an odd prime ≡ 3 (mod 4) (checked for the mod-4 condition;
  /// primality is the caller's contract).
  explicit FpCtx(const mp::U512& prime);
};

class Fp {
 public:
  /// Default-constructed elements are detached placeholders; using them in
  /// arithmetic is a programming error (asserted in debug).
  Fp() = default;
  Fp(const FpCtx* ctx, const mp::U512& plain);

  static Fp zero(const FpCtx* ctx);
  static Fp one(const FpCtx* ctx);

  [[nodiscard]] const FpCtx* ctx() const noexcept { return ctx_; }
  /// Plain (non-Montgomery) value.
  [[nodiscard]] mp::U512 value() const;
  [[nodiscard]] bool is_zero() const noexcept { return v_.is_zero(); }

  // The ring operations: the kernel writes straight into the result's limbs.
  [[nodiscard]] Fp operator+(const Fp& o) const {
    assert(ctx_ != nullptr && ctx_ == o.ctx_);
    Fp r(ctx_);
    ctx_->mont.add(r.v_, v_, o.v_);
    return r;
  }
  [[nodiscard]] Fp operator-(const Fp& o) const {
    assert(ctx_ != nullptr && ctx_ == o.ctx_);
    Fp r(ctx_);
    ctx_->mont.sub(r.v_, v_, o.v_);
    return r;
  }
  [[nodiscard]] Fp operator*(const Fp& o) const {
    assert(ctx_ != nullptr && ctx_ == o.ctx_);
    Fp r(ctx_);
    ctx_->mont.mul(r.v_, v_, o.v_);
    return r;
  }
  [[nodiscard]] Fp neg() const {
    assert(ctx_ != nullptr);
    Fp r(ctx_);
    ctx_->mont.sub(r.v_, mp::U512{}, v_);
    return r;
  }
  [[nodiscard]] Fp sqr() const {
    assert(ctx_ != nullptr);
    Fp r(ctx_);
    ctx_->mont.sqr(r.v_, v_);
    return r;
  }
  [[nodiscard]] Fp inv() const;
  [[nodiscard]] Fp pow(const mp::U512& e) const;
  /// Square root if one exists (p ≡ 3 mod 4 method).
  [[nodiscard]] std::optional<Fp> sqrt() const;
  /// True iff the element is a nonzero quadratic residue.
  [[nodiscard]] bool is_square() const;

  friend bool operator==(const Fp& a, const Fp& b) noexcept = default;

  /// Internal Montgomery representation (for serialization fast paths).
  [[nodiscard]] const mp::U512& raw() const noexcept { return v_; }
  static Fp from_raw(const FpCtx* ctx, const mp::U512& mont_value);

 private:
  friend class Fp2;
  // A result in ctx, its limbs left for a kernel to write.
  explicit Fp(const FpCtx* ctx) noexcept
      : ctx_(ctx), v_(mp::U512::NoInit{}) {}

  const FpCtx* ctx_ = nullptr;
  mp::U512 v_;  // Montgomery form
};

}  // namespace hcpp::field
