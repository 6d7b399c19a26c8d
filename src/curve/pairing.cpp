#include "src/curve/pairing.h"

#include <cassert>
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
//
// Every loop walks ctx.miller_schedule, the NAF of q: a doubling step per
// digit after the leading one, then an addition step of +P or −P = (x, −y)
// for a ±1 digit. Adding −P is the Miller step f_(m−1) = f_m·l_(mP,−P)/v_P
// whose vertical v_P lies in F_p, so it is dropped like every other vertical.

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

// Chord through V and the affine point (px, py) — ±P — scaled by 2HZ, then
// V <- V ± P (mixed add-2007-bl):
//   l = (R·p_x − p_y·Z₃ + R·x_Q) + (Z₃·y_Q)·i,  R = 2(S₂ − Y),  Z₃ = 2HZ.
LineCoeffs add_step(MillerPoint& v, const Fp& px, const Fp& py) {
  if (v.infinity) return ident_line();
  Fp z1z1 = v.z.sqr();
  Fp u2 = px * z1z1;
  Fp s2 = py * z1z1 * v.z;
  if (v.x == u2) {
    if (v.y == s2) return double_step(v);
    // V = −(px, py): the chord is vertical, its value lies in F_p and is
    // wiped by the final exponentiation; the sum is the point at infinity.
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

// Π_i f_(q,P_i)(ψ(Q_i)) under one shared squaring chain — the loop of both
// pairing (one term) and pairing_product. Infinity terms contribute 1.
Fp2 miller_product(const CurveCtx& ctx, std::span<const PairingTerm> terms) {
  struct Term {
    MillerPoint v;
    const Point* p;
    Fp neg_py;
    const Point* q;
  };
  std::vector<Term> live;
  live.reserve(terms.size());
  for (const PairingTerm& t : terms) {
    if (t.first.infinity || t.second.infinity) continue;
    live.push_back({miller_start(ctx, t.first), &t.first, t.first.y.neg(),
                    &t.second});
  }
  Fp2 f = Fp2::one(&ctx.fp);
  const std::vector<int8_t>& digits = ctx.miller_schedule;
  for (size_t i = 1; i < digits.size(); ++i) {
    f = f.sqr();  // shared across every term
    for (Term& t : live) {
      LineCoeffs lc = double_step(t.v);
      if (!lc.ident) f = f * eval_line(lc, t.q->x, t.q->y);
    }
    if (digits[i] == 0) continue;
    for (Term& t : live) {
      LineCoeffs lc =
          add_step(t.v, t.p->x, digits[i] > 0 ? t.p->y : t.neg_py);
      if (!lc.ident) f = f * eval_line(lc, t.q->x, t.q->y);
    }
  }
  return f;
}

// The one element the final exponentiation of f inverts: 4·f₀f₁·N(f), with
// N(f) = f₀² + f₁² never 0 for a Miller value — or N(f) alone when f₀f₁ = 0.
Fp fe_denominator(const Fp2& f) {
  Fp norm = f.re().sqr() + f.im().sqr();
  Fp f0f1 = f.re() * f.im();
  if (f0f1.is_zero()) return norm;
  Fp four_f0f1 = f0f1 + f0f1;
  four_f0f1 = four_f0f1 + four_f0f1;
  return four_f0f1 * norm;
}

// f^((p²−1)/q) = t^c with t = f^(p−1) = conj(f)·f^(−1) = conj(f)²/N(f) (the
// Frobenius on F_{p^2} is conjugation), given d_inv = fe_denominator(f)^(−1).
// t has norm 1, so Fp2::pow_unitary raises it; its 1/(2·Im t) is
// −N(f)/(4·f₀f₁) = −N(f)²·d_inv, and 1/N(f) = 4·f₀f₁·d_inv, so d_inv is the
// only inversion. When f₀f₁ = 0, t = ±1 and the generic pow finishes.
Gt fe_finish(const CurveCtx& ctx, const Fp2& f, const Fp& d_inv) {
  Fp2 c2 = f.conj().sqr();  // (f₀² − f₁²) − 2f₀f₁·i
  if (c2.im().is_zero()) {
    return Gt(Fp2(c2.re() * d_inv, c2.im()).pow(ctx.cofactor));
  }
  Fp norm = f.re().sqr() + f.im().sqr();
  Fp inv_norm = (c2.im() + c2.im()).neg() * d_inv;
  Fp2 t(c2.re() * inv_norm, c2.im() * inv_norm);
  return Gt(t.pow_unitary(ctx.cofactor, (norm.sqr() * d_inv).neg()));
}

// The single inversion of the whole pairing.
Gt final_exponentiation(const CurveCtx& ctx, const Fp2& f) {
  obs::count(obs::kFinalExp);
  return fe_finish(ctx, f, fe_denominator(f).inv());
}

}  // namespace

Gt Gt::pow(const mp::U512& e) const {
  assert(v_.re().sqr() + v_.im().sqr() == Fp::one(v_.ctx()));
  if (v_.im().is_zero()) return Gt(v_.pow(e));  // ±1
  // Width-5 wNAF: the odd powers x, x³, …, x^15, conjugated for a negative
  // digit, and about |e|/6 products instead of the 4-bit window's |e|/4.
  Fp2 odd[8] = {v_};
  const Fp2 x2 = v_.sqr();
  for (size_t i = 1; i < 8; ++i) odd[i] = odd[i - 1] * x2;
  const std::vector<int8_t> naf = wnaf(e, 5);
  if (naf.empty()) return Gt(Fp2::one(v_.ctx()));
  auto digit = [&odd](int d) {
    return d > 0 ? odd[d / 2] : odd[-d / 2].conj();
  };
  Fp2 r = digit(naf.back());  // the top digit is positive
  for (size_t i = naf.size() - 1; i-- > 0;) {
    r = r.sqr();
    if (naf[i] != 0) r = r * digit(naf[i]);
  }
  return Gt(r);
}

Gt pairing(const CurveCtx& ctx, const Point& p_in, const Point& q_in) {
  obs::count(obs::kPairing);
  if (p_in.infinity || q_in.infinity) return Gt::one(ctx);
  const PairingTerm term{p_in, q_in};
  return final_exponentiation(ctx, miller_product(ctx, std::span(&term, 1)));
}

// ---------------------------------------------------------------------------
// Fixed-argument precomputation.

PairingPrecomp::PairingPrecomp(const CurveCtx& ctx, const Point& p)
    : ctx_(&ctx) {
  obs::count(obs::kPairingPrecompBuild);
  if (p.infinity) return;
  // One doubling line per schedule digit plus one addition line per nonzero
  // digit; record them in exactly the order pairing_with will consume them.
  const std::vector<int8_t>& digits = ctx.miller_schedule;
  const Fp neg_py = p.y.neg();
  std::vector<LineCoeffs> raw;
  raw.reserve(2 * digits.size());
  MillerPoint v = miller_start(ctx, p);
  for (size_t i = 1; i < digits.size(); ++i) {
    raw.push_back(double_step(v));
    if (digits[i] != 0) {
      raw.push_back(add_step(v, p.x, digits[i] > 0 ? p.y : neg_py));
    }
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
  const std::vector<int8_t>& digits = ctx_->miller_schedule;
  size_t k = 0;
  for (size_t i = 1; i < digits.size(); ++i) {
    f = f.sqr();
    const Line& dl = lines_[k++];
    if (!dl.ident) f = f * Fp2(dl.c0 + dl.c1 * xq, yq);
    if (digits[i] != 0) {
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
  obs::count(obs::kPairingProduct);
  obs::count(obs::kPairingProductTerms, terms.size());
  // One final exponentiation shared across every term; none when no term
  // contributed a line (all trivial), since 1 maps to 1.
  Fp2 f = miller_product(ctx, terms);
  return f.is_one() ? Gt::one(ctx) : final_exponentiation(ctx, f);
}

std::vector<Gt> final_exp_batch(const CurveCtx& ctx,
                                std::span<const Fp2> fs,
                                par::ThreadPool* pool) {
  std::vector<Gt> out(fs.size());
  if (fs.empty()) return out;
  obs::count(obs::kFinalExpBatched, fs.size());
  // The inverse each final exponentiation needs is of an F_p element
  // (fe_denominator), so one Montgomery-trick batch inversion replaces the
  // per-pairing inversion — the only inversion a pairing performs at all.
  std::vector<mp::U512> dens(fs.size());
  for (size_t i = 0; i < fs.size(); ++i) {
    dens[i] = fe_denominator(fs[i]).raw();
  }
  ctx.fp.mont.batch_inv(dens);  // never 0: Miller values are nonzero
  auto finish = [&](size_t i) {
    out[i] = fe_finish(ctx, fs[i], Fp::from_raw(&ctx.fp, dens[i]));
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

}  // namespace hcpp::curve
