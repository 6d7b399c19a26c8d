#include "src/field/fp2.h"

namespace hcpp::field {

bool Fp2::is_one() const {
  return b_.is_zero() && a_ == Fp::one(a_.ctx());
}

Fp2 Fp2::operator+(const Fp2& o) const { return {a_ + o.a_, b_ + o.b_}; }

Fp2 Fp2::operator-(const Fp2& o) const { return {a_ - o.a_, b_ - o.b_}; }

Fp2 Fp2::conj() const { return {a_, b_.neg()}; }

Fp2 Fp2::inv() const {
  // (a+bi)^{-1} = (a-bi) / (a^2 + b^2)
  Fp norm = a_.sqr() + b_.sqr();
  Fp ninv = norm.inv();
  return {a_ * ninv, b_.neg() * ninv};
}

Fp2 Fp2::pow(const mp::U512& e) const {
  // Fixed 4-bit windows (see MontCtx::pow): the final exponentiation of the
  // pairing raises to the ~(p-bits − q-bits)-bit cofactor through here, so
  // the ~n/4 saved multiplications are a hot-path win, not a nicety.
  size_t nbits = e.bit_length();
  if (nbits == 0) return one(ctx());
  Fp2 table[16];
  table[1] = *this;
  for (size_t i = 2; i < 16; ++i) table[i] = table[i - 1] * *this;
  Fp2 result = one(ctx());
  bool started = false;
  for (size_t wi = (nbits + 3) / 4; wi-- > 0;) {
    if (started) {
      result = result.sqr().sqr().sqr().sqr();
    }
    uint64_t d = (e.w[(4 * wi) / 64] >> ((4 * wi) % 64)) & 15;
    if (d != 0) {
      result = started ? result * table[d] : table[d];
      started = true;
    }
  }
  return started ? result : one(ctx());
}

Fp2 Fp2::pow_unitary(const mp::U512& e, const Fp& inv_2b) const {
  // V_k = t^k + t^(−k) = 2·Re(t^k) with V_0 = 2, V_1 = 2a. The ladder keeps
  // (V_k, V_(k+1)) while k takes the bits of e from the top:
  //   V_2k = V_k² − 2,   V_(2k+1) = V_k·V_(k+1) − V_1.
  // Re(t^(e+1)) = a·Re(t^e) − b·Im(t^e) then gives the imaginary part:
  //   t^e = V_e/2 + ((a·V_e − V_(e+1))/(2b))·i,   1/2 = b·inv_2b.
  // The ladder is one MontCtx kernel on raw limbs.
  Fp lo(ctx()), hi(ctx());
  ctx()->mont.lucas(lo.v_, hi.v_, (a_ + a_).v_, e);
  return {lo * (b_ * inv_2b), (a_ * lo - hi) * inv_2b};
}

Bytes Fp2::to_bytes() const {
  Bytes out = a_.value().to_bytes_be();
  append(out, b_.value().to_bytes_be());
  return out;
}

}  // namespace hcpp::field
