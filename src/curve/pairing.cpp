#include "src/curve/pairing.h"

#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/par/pool.h"

namespace hcpp::curve {

using field::Fp;
using field::Fp2;

// ---------------------------------------------------------------------------
// Projective (inversion-free) Miller loop.
//
// The loop point V lives in Jacobian coordinates (X, Y, Z), x = X/Z²,
// y = Y/Z³. Each step emits the line through the step's points, evaluated at
// ψ(Q) = (−x_Q, y_Q·i) and scaled by a nonzero F_p factor (2YZ³ for
// tangents, 2HZ for chords). The scale factors are killed by the (p−1) part
// of the final exponentiation, exactly like the vertical-line denominators
// the affine loop already drops, so no step ever inverts anything.
//
// Lines are produced as coefficients (c0, c1, c2) with
//     l(Q) = (c0 + c1·x_Q) + (c2·y_Q)·i,
// which is what PairingPrecomp stores; the one-shot paths evaluate them
// immediately.

namespace {

struct LineCoeffs {
  Fp c0, c1, c2;
  bool ident = false;  // degenerate step (V at infinity / vertical line)
};

// Jacobian loop point. infinity uses the flag, not Z == 0, to mirror Point.
struct MillerPoint {
  Fp x, y, z;
  bool infinity = false;
};

LineCoeffs ident_line() {
  LineCoeffs lc;
  lc.ident = true;
  return lc;
}

// Tangent line at V, scaled by 2YZ³, then V <- 2V (dbl-2007-bl, a = 1):
//   M = 3X² + Z⁴,  l = (M·X − 2Y² + M·Z²·x_Q) + (Z₃·Z²·y_Q)·i,  Z₃ = 2YZ.
LineCoeffs double_step(MillerPoint& v) {
  if (v.infinity) return ident_line();
  if (v.y.is_zero()) {  // 2-torsion: tangent is vertical, value in F_p
    v.infinity = true;
    return ident_line();
  }
  Fp xx = v.x.sqr();
  Fp yy = v.y.sqr();
  Fp yyyy = yy.sqr();
  Fp zz = v.z.sqr();
  Fp s = (v.x + yy).sqr() - xx - yyyy;
  s = s + s;
  Fp z4 = zz.sqr();
  Fp m = xx + xx + xx + z4;  // a = 1
  Fp t = m.sqr() - s - s;
  Fp z3 = (v.y + v.z).sqr() - yy - zz;  // 2YZ
  LineCoeffs lc;
  lc.c0 = m * v.x - (yy + yy);
  lc.c1 = m * zz;
  lc.c2 = z3 * zz;
  Fp eight_yyyy = yyyy + yyyy;
  eight_yyyy = eight_yyyy + eight_yyyy;
  eight_yyyy = eight_yyyy + eight_yyyy;
  v.x = t;
  v.y = m * (s - t) - eight_yyyy;
  v.z = z3;
  return lc;
}

// Chord through V and the affine base point (px, py), scaled by 2HZ, then
// V <- V + P (mixed add-2007-bl):
//   l = (R·p_x − p_y·Z₃ + R·x_Q) + (Z₃·y_Q)·i,  R = 2(S₂ − Y),  Z₃ = 2HZ.
LineCoeffs add_step(MillerPoint& v, const Fp& px, const Fp& py) {
  if (v.infinity) return ident_line();
  Fp z1z1 = v.z.sqr();
  Fp u2 = px * z1z1;
  Fp s2 = py * z1z1 * v.z;
  if (v.x == u2) {
    if (v.y == s2) return double_step(v);
    // V = −P: the chord is vertical, its value lies in F_p and is wiped by
    // the final exponentiation; the sum is the point at infinity.
    v.infinity = true;
    return ident_line();
  }
  Fp h = u2 - v.x;
  Fp hh = h.sqr();
  Fp i4 = hh + hh;
  i4 = i4 + i4;
  Fp j = h * i4;
  Fp rr = s2 - v.y;
  rr = rr + rr;
  Fp vv = v.x * i4;
  Fp z3 = (v.z + h).sqr() - z1z1 - hh;  // 2HZ
  LineCoeffs lc;
  lc.c0 = rr * px - py * z3;
  lc.c1 = rr;
  lc.c2 = z3;
  Fp x3 = rr.sqr() - j - vv - vv;
  Fp two_yj = v.y * j;
  two_yj = two_yj + two_yj;
  v.y = rr * (vv - x3) - two_yj;
  v.x = x3;
  v.z = z3;
  return lc;
}

Fp2 eval_line(const LineCoeffs& lc, const Fp& xq, const Fp& yq) {
  return Fp2(lc.c0 + lc.c1 * xq, lc.c2 * yq);
}

MillerPoint miller_start(const CurveCtx& ctx, const Point& p) {
  return MillerPoint{p.x, p.y, Fp::one(&ctx.fp), false};
}

// f^((p²−1)/q) = (f^(p−1))^c with f^(p−1) = conj(f)·f^{-1} (the Frobenius on
// F_{p^2} is conjugation). The single inversion of the whole pairing.
Gt final_exponentiation(const CurveCtx& ctx, const Fp2& f) {
  obs::count(obs::kFinalExp);
  Fp2 t = f.conj() * f.inv();
  return Gt(t.pow(ctx.cofactor));
}

}  // namespace

Gt pairing(const CurveCtx& ctx, const Point& p_in, const Point& q_in) {
  obs::count(obs::kPairing);
  if (p_in.infinity || q_in.infinity) return Gt::one(ctx);
  const Fp& xq = q_in.x;
  const Fp& yq = q_in.y;
  Fp2 f = Fp2::one(&ctx.fp);
  MillerPoint v = miller_start(ctx, p_in);
  for (size_t i = ctx.q.bit_length() - 1; i-- > 0;) {
    f = f.sqr();
    LineCoeffs lc = double_step(v);
    if (!lc.ident) f = f * eval_line(lc, xq, yq);
    if (ctx.q.bit(i)) {
      lc = add_step(v, p_in.x, p_in.y);
      if (!lc.ident) f = f * eval_line(lc, xq, yq);
    }
  }
  return final_exponentiation(ctx, f);
}

// ---------------------------------------------------------------------------
// Fixed-argument precomputation.

PairingPrecomp::PairingPrecomp(const CurveCtx& ctx, const Point& p)
    : ctx_(&ctx) {
  obs::count(obs::kPairingPrecompBuild);
  if (p.infinity) return;
  // One doubling line per loop iteration plus one addition line per set bit;
  // record them in exactly the order pairing_with will consume them.
  const size_t nbits = ctx.q.bit_length();
  std::vector<LineCoeffs> raw;
  raw.reserve(2 * nbits);
  MillerPoint v = miller_start(ctx, p);
  for (size_t i = nbits - 1; i-- > 0;) {
    raw.push_back(double_step(v));
    if (ctx.q.bit(i)) raw.push_back(add_step(v, p.x, p.y));
  }
  // Normalize each line by its c2 (2YZ³·Z² for tangents, 2HZ for chords —
  // never zero on a non-degenerate step). Dividing a line by an F_p scalar
  // changes the pairing value only by a factor the final exponentiation
  // kills, and the normalized form drops the c2·y_Q multiplication from
  // every pairing_with line evaluation. One batch inversion for the whole
  // cache via Montgomery's trick.
  std::vector<mp::U512> c2s;
  c2s.reserve(raw.size());
  for (const LineCoeffs& lc : raw) {
    if (!lc.ident) c2s.push_back(lc.c2.raw());
  }
  ctx.fp.mont.batch_inv(c2s);
  lines_.reserve(raw.size());
  size_t k = 0;
  for (const LineCoeffs& lc : raw) {
    if (lc.ident) {
      lines_.push_back({Fp(), Fp(), true});
      continue;
    }
    Fp c2inv = Fp::from_raw(&ctx.fp, c2s[k++]);
    lines_.push_back({lc.c0 * c2inv, lc.c1 * c2inv, false});
  }
}

Fp2 PairingPrecomp::miller_with(const Point& q) const {
  // Each call is one full pairing whose Miller-loop point arithmetic the
  // line cache already paid for — the quantity benches call "saved loops".
  obs::count(obs::kPairingFixed);
  if (trivial() || q.infinity) {
    if (ctx_ == nullptr) {
      throw std::logic_error("PairingPrecomp: default-constructed");
    }
    return Fp2::one(&ctx_->fp);
  }
  const Fp& xq = q.x;
  const Fp& yq = q.y;
  Fp2 f = Fp2::one(&ctx_->fp);
  size_t k = 0;
  for (size_t i = ctx_->q.bit_length() - 1; i-- > 0;) {
    f = f.sqr();
    const Line& dl = lines_[k++];
    if (!dl.ident) f = f * Fp2(dl.c0 + dl.c1 * xq, yq);
    if (ctx_->q.bit(i)) {
      const Line& al = lines_[k++];
      if (!al.ident) f = f * Fp2(al.c0 + al.c1 * xq, yq);
    }
  }
  return f;
}

Gt PairingPrecomp::pairing_with(const Point& q) const {
  if (trivial() || q.infinity) {
    if (ctx_ == nullptr) {
      throw std::logic_error("PairingPrecomp: default-constructed");
    }
    obs::count(obs::kPairingFixed);
    return Gt::one(*ctx_);
  }
  return final_exponentiation(*ctx_, miller_with(q));
}

// ---------------------------------------------------------------------------
// Multi-pairing.

Gt pairing_product(const CurveCtx& ctx, std::span<const PairingTerm> terms) {
  struct Term {
    MillerPoint v;
    const Point* p;
    const Point* q;
  };
  obs::count(obs::kPairingProduct);
  obs::count(obs::kPairingProductTerms, terms.size());
  std::vector<Term> live;
  live.reserve(terms.size());
  for (const PairingTerm& t : terms) {
    if (t.first.infinity || t.second.infinity) continue;
    live.push_back({miller_start(ctx, t.first), &t.first, &t.second});
  }
  if (live.empty()) return Gt::one(ctx);
  Fp2 f = Fp2::one(&ctx.fp);
  for (size_t i = ctx.q.bit_length() - 1; i-- > 0;) {
    f = f.sqr();  // shared across every term
    for (Term& t : live) {
      LineCoeffs lc = double_step(t.v);
      if (!lc.ident) f = f * eval_line(lc, t.q->x, t.q->y);
    }
    if (ctx.q.bit(i)) {
      for (Term& t : live) {
        LineCoeffs lc = add_step(t.v, t.p->x, t.p->y);
        if (!lc.ident) f = f * eval_line(lc, t.q->x, t.q->y);
      }
    }
  }
  return final_exponentiation(ctx, f);  // shared across every term
}

std::vector<Gt> final_exp_batch(const CurveCtx& ctx,
                                std::span<const Fp2> fs,
                                par::ThreadPool* pool) {
  std::vector<Gt> out(fs.size());
  if (fs.empty()) return out;
  obs::count(obs::kFinalExpBatched, fs.size());
  // f^(p−1) = conj(f)·f^{−1} = conj(f)²·(re²+im²)^{−1}: the inverse needed
  // is of the F_p norm, so one Montgomery-trick batch inversion replaces the
  // per-pairing inversion — the only inversion a pairing performs at all.
  std::vector<mp::U512> norms(fs.size());
  for (size_t i = 0; i < fs.size(); ++i) {
    norms[i] = (fs[i].re().sqr() + fs[i].im().sqr()).raw();
  }
  ctx.fp.mont.batch_inv(norms);  // Miller values are never 0
  auto finish = [&](size_t i) {
    Fp2 c2 = fs[i].conj().sqr();
    Fp ninv = Fp::from_raw(&ctx.fp, norms[i]);
    Fp2 t(c2.re() * ninv, c2.im() * ninv);
    out[i] = Gt(t.pow(ctx.cofactor));
  };
  if (pool != nullptr && fs.size() > 1) {
    pool->parallel_for(fs.size(), finish);
  } else {
    for (size_t i = 0; i < fs.size(); ++i) finish(i);
  }
  return out;
}

std::vector<Gt> miller_batch(const CurveCtx& ctx, size_t n,
                             const std::function<Fp2(size_t)>& miller_of_i,
                             par::ThreadPool* pool) {
  std::vector<Fp2> fs(n);
  auto run = [&](size_t i) { fs[i] = miller_of_i(i); };
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, run);
  } else {
    for (size_t i = 0; i < n; ++i) run(i);
  }
  return final_exp_batch(ctx, fs, pool);
}

const PairingPrecomp& generator_precomp(const CurveCtx& ctx) {
  std::call_once(ctx.gen_precomp_once, [&ctx] {
    ctx.gen_precomp =
        std::make_unique<PairingPrecomp>(ctx, generator(ctx));
  });
  return *ctx.gen_precomp;
}

// ---------------------------------------------------------------------------
// Reference implementation: the original affine loop, one extended-GCD
// inversion per step. Oracle only.

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
  obs::count(obs::kPairingReference);
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
