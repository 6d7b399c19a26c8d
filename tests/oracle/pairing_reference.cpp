#include "tests/oracle/oracle.h"

namespace hcpp::curve {

using field::Fp;
using field::Fp2;

// The original affine loop, one extended-GCD inversion per step.

namespace {

Fp2 ref_double_step(const CurveCtx& ctx, Point& v, const Fp& neg_xq,
                    const Fp& yq) {
  const Fp one = Fp::one(&ctx.fp);
  Fp x_sq = v.x.sqr();
  Fp slope = (x_sq + x_sq + x_sq + one) * (v.y + v.y).inv();
  // l(X, Y) = Y − y_v − m(X − x_v); at ψ(Q) = (−x_q, y_q·i):
  // real = −y_v − m(−x_q − x_v) = m(x_v − (−x_q)) − y_v, imag = y_q.
  Fp real = slope * (v.x - neg_xq) - v.y;
  Fp2 line(real, yq);
  Fp x3 = slope.sqr() - v.x - v.x;
  Fp y3 = slope * (v.x - x3) - v.y;
  v = Point{x3, y3, false};
  return line;
}

Fp2 ref_add_step(const CurveCtx& ctx, Point& v, const Point& p,
                 const Fp& neg_xq, const Fp& yq) {
  if (v.x == p.x) {
    if (v.y == p.y.neg()) {
      v = Point::at_infinity();
      return Fp2::one(&ctx.fp);
    }
    return ref_double_step(ctx, v, neg_xq, yq);
  }
  Fp slope = (p.y - v.y) * (p.x - v.x).inv();
  Fp real = slope * (v.x - neg_xq) - v.y;
  Fp2 line(real, yq);
  Fp x3 = slope.sqr() - v.x - p.x;
  Fp y3 = slope * (v.x - x3) - v.y;
  v = Point{x3, y3, false};
  return line;
}

}  // namespace

Gt pairing_reference(const CurveCtx& ctx, const Point& p_in,
                     const Point& q_in) {
  if (p_in.infinity || q_in.infinity) return Gt::one(ctx);
  const Fp neg_xq = q_in.x.neg();
  const Fp yq = q_in.y;
  Fp2 f = Fp2::one(&ctx.fp);
  Point v = p_in;
  for (size_t i = ctx.q.bit_length() - 1; i-- > 0;) {
    f = f.sqr();
    if (!v.infinity) f = f * ref_double_step(ctx, v, neg_xq, yq);
    if (ctx.q.bit(i) && !v.infinity) {
      f = f * ref_add_step(ctx, v, p_in, neg_xq, yq);
    }
  }
  Fp2 t = f.conj() * f.inv();
  return Gt(t.pow(ctx.cofactor));
}

}  // namespace hcpp::curve
