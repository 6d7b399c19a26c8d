#include "src/field/fp.h"

#include <cassert>
#include <stdexcept>

namespace hcpp::field {

FpCtx::FpCtx(const mp::U512& prime) : p(prime), mont(prime) {
  if ((prime.w[0] & 3) != 3) {
    throw std::invalid_argument("FpCtx: p must be 3 mod 4");
  }
  mp::U512 p_plus1;
  // p+1 cannot overflow 512 bits for our parameter sets (p < 2^512 - 1).
  mp::add(p_plus1, p, mp::U512::from_u64(1));
  sqrt_exp = mp::shr1(mp::shr1(p_plus1));
  mp::U512 p_minus1;
  mp::sub(p_minus1, p, mp::U512::from_u64(1));
  legendre_exp = mp::shr1(p_minus1);
}

Fp::Fp(const FpCtx* ctx, const mp::U512& plain) : ctx_(ctx) {
  assert(ctx != nullptr);
  v_ = ctx->mont.to_mont(mp::mod(plain, ctx->p));
}

Fp Fp::zero(const FpCtx* ctx) {
  Fp r;
  r.ctx_ = ctx;
  return r;
}

Fp Fp::one(const FpCtx* ctx) {
  Fp r;
  r.ctx_ = ctx;
  r.v_ = ctx->mont.one();
  return r;
}

Fp Fp::from_raw(const FpCtx* ctx, const mp::U512& mont_value) {
  Fp r(ctx);
  r.v_ = mont_value;
  return r;
}

mp::U512 Fp::value() const {
  assert(ctx_ != nullptr);
  return ctx_->mont.from_mont(v_);
}

Fp Fp::inv() const {
  assert(ctx_ != nullptr);
  if (is_zero()) throw std::domain_error("Fp::inv: zero");
  return from_raw(ctx_, ctx_->mont.inv(v_));
}

Fp Fp::pow(const mp::U512& e) const {
  assert(ctx_ != nullptr);
  return from_raw(ctx_, ctx_->mont.pow(v_, e));
}

bool Fp::is_square() const {
  assert(ctx_ != nullptr);
  if (is_zero()) return false;
  return pow(ctx_->legendre_exp) == one(ctx_);
}

std::optional<Fp> Fp::sqrt() const {
  assert(ctx_ != nullptr);
  if (is_zero()) return zero(ctx_);
  Fp r = pow(ctx_->sqrt_exp);
  if (r.sqr() == *this) return r;
  return std::nullopt;
}

}  // namespace hcpp::field
