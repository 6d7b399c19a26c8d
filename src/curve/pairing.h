// Modified Tate pairing ê: G1 × G1 → GT ⊂ F_{p^2}* (the paper's bilinear map
// e of §II.A). Computed as the Tate pairing e(P, ψ(Q)) with the distortion
// map ψ(x, y) = (−x, i·y), using Miller's algorithm with denominator
// elimination (all vertical-line values land in F_p and are annihilated by
// the (p−1) factor of the final exponentiation (p²−1)/q = (p−1)·c). Every
// optimized loop walks CurveCtx::miller_schedule, the signed digits (NAF) of
// q: a −1 digit adds −P = (x, −y), whose vertical line is dropped likewise.
//
// The production entry points keep the loop point V in Jacobian coordinates
// and scale every line value by a factor in F_p (2YZ³ for tangents, 2HZ for
// chords), which the final exponentiation also annihilates — so the Miller
// loop runs without a single field inversion (Barreto–Kim–Lynn–Scott,
// CRYPTO 2002). The only inversion left in a pairing is the final
// exponentiation's: one F_p element, 4·f₀f₁·N(f), yields both 1/N(f) for
// t = f^(p−1) = conj(f)²/N(f) and the 1/(2·Im t) that the Lucas ladder of
// Fp2::pow_unitary needs to raise the norm-1 t to the cofactor c.
//
// Three evaluation modes:
//   * pairing(ctx, P, Q)        — one-shot, inversion-free projective loop.
//   * PairingPrecomp            — caches the Miller-loop line coefficients of
//     a fixed first argument (Scott, CT-RSA 2005); each pairing_with(Q) then
//     pays only 2 F_p multiplications per line plus the shared squaring
//     chain and final exponentiation.
//   * pairing_product(ctx, ts)  — Π ê(P_i, Q_i) sharing one squaring chain
//     and one final exponentiation across all terms (use negate(P_i) for an
//     inverse factor); what HIBC decrypt/verify use instead of ℓ+1
//     independent pairings.
// The affine-loop oracle all of the above are tested against is
// curve::pairing_reference in tests/oracle.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "src/curve/ec.h"

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::curve {

/// Target-group element wrapper. Elements returned by `pairing` lie in the
/// order-q subgroup of F_{p^2}*.
class Gt {
 public:
  Gt() = default;
  explicit Gt(field::Fp2 v) : v_(std::move(v)) {}

  static Gt one(const CurveCtx& ctx) {
    return Gt(field::Fp2::one(&ctx.fp));
  }

  [[nodiscard]] Gt operator*(const Gt& o) const { return Gt(v_ * o.v_); }
  /// Every Gt comes out of a final exponentiation and so has norm 1: its
  /// inverse is its conjugate, and pow runs signed windows on that.
  [[nodiscard]] Gt pow(const mp::U512& e) const;
  [[nodiscard]] Gt inv() const { return Gt(v_.conj()); }
  [[nodiscard]] bool is_one() const { return v_.is_one(); }

  friend bool operator==(const Gt& a, const Gt& b) noexcept = default;

  /// Canonical 128-byte encoding; feed into HKDF for key derivation.
  [[nodiscard]] Bytes to_bytes() const { return v_.to_bytes(); }

 private:
  field::Fp2 v_;
};

/// ê(P, Q). Returns Gt::one if either input is the point at infinity.
Gt pairing(const CurveCtx& ctx, const Point& p_in, const Point& q_in);

struct MillerTerm;

/// Cached Miller-loop line coefficients for a fixed first argument P. The
/// loop emits each line as (c0, c1, c2) with value (c0 + c1·x_Q) +
/// (c2·y_Q)·i; the constructor divides every non-degenerate line by its c2
/// (one batch inversion for the whole cache — c2 is a nonzero F_p factor,
/// annihilated by the final exponentiation like every other line scale), so
/// the stored form is (c0, c1) with value (c0 + c1·x_Q) + y_Q·i and
/// pairing_with(Q) pays one F_p multiplication less per line — no point
/// arithmetic at all. Because ê is symmetric, a fixed argument on *either*
/// side of a pairing can be hoisted through this type.
class PairingPrecomp {
 public:
  PairingPrecomp() = default;
  PairingPrecomp(const CurveCtx& ctx, const Point& p);

  /// ê(P_fixed, Q).
  [[nodiscard]] Gt pairing_with(const Point& q) const;

  /// The Miller-loop value of ê(P_fixed, Q) *before* the final
  /// exponentiation. Raising it with final_exp_batch (or multiplying several
  /// such values first — FE is a group homomorphism) yields the same Gt as
  /// pairing_with; miller_batch computes the same value for many terms at
  /// once. Returns 1 for a trivial precomp or infinite Q (throws if
  /// default-constructed, like pairing_with).
  [[nodiscard]] field::Fp2 miller_with(const Point& q) const;

  /// True when default-constructed or built from the point at infinity
  /// (every pairing_with then returns Gt::one).
  [[nodiscard]] bool trivial() const noexcept {
    return ctx_ == nullptr || lines_.empty();
  }

 private:
  // Runs lane groups over the cached lines.
  friend std::vector<field::Fp2> miller_batch(
      const CurveCtx& ctx, std::span<const MillerTerm> terms,
      par::ThreadPool* pool);

  struct Line {
    mp::U512 c0_lane;    // c0 in the IFMA lane domain, on lane contexts
    field::Fp c0, c1;    // c2-normalized: value is (c0 + c1·x_Q) + y_Q·i
    bool ident = false;  // line degenerated to 1 (post-infinity steps)
  };
  const CurveCtx* ctx_ = nullptr;
  std::vector<Line> lines_;
};

/// One multi-pairing factor ê(p, q).
using PairingTerm = std::pair<Point, Point>;

/// Π_i ê(terms[i].first, terms[i].second) with one shared squaring chain and
/// one final exponentiation. Infinity terms contribute 1. For a factor
/// ê(P, Q)^{-1} pass {negate(P), Q}.
Gt pairing_product(const CurveCtx& ctx, std::span<const PairingTerm> terms);

/// Applies the final exponentiation f^((p²−1)/q) to every Miller value in
/// `fs` at the cost of ONE modular inversion for the whole batch: each value
/// needs the inverse of one F_p element (see the header note), and those are
/// batch-inverted with Montgomery's trick. The cofactor powers (the bulk of
/// the work) run in IFMA lane groups of up to eight when the field context
/// has lanes (mont_ifma.h) and the batch is large enough for the pool's
/// width (k ≥ 2 values serially, k ≥ 3 on two threads), and are sharded
/// onto `pool` when given (nullptr = serial). Element i of the result
/// equals final exponentiation of fs[i] exactly.
std::vector<Gt> final_exp_batch(const CurveCtx& ctx,
                                std::span<const field::Fp2> fs,
                                par::ThreadPool* pool = nullptr);

/// One fixed-argument Miller loop of a batch: the loop of ê(P, q) over the
/// cached lines of `pre` (built for P on the batch's context).
struct MillerTerm {
  const PairingPrecomp* pre;
  Point q;
};

/// The one batched-pairing path: element i is terms[i].pre->miller_with(
/// terms[i].q), byte for byte. With IFMA lanes, the terms run in lockstep
/// groups of up to eight, one term per lane, when there are enough of them
/// for the pool's width (as final_exp_batch); terms with a trivial precomp
/// or an infinite q, and every term of a smaller batch or without lanes,
/// run miller_with. Groups and scalar terms are sharded onto `pool`
/// (nullptr = serial). Finish the values with final_exp_batch.
std::vector<field::Fp2> miller_batch(const CurveCtx& ctx,
                                     std::span<const MillerTerm> terms,
                                     par::ThreadPool* pool = nullptr);

/// Per-context PairingPrecomp for the group generator, built lazily and
/// cached on the CurveCtx (thread-safe). Every protocol pairing with P as
/// one argument — Hess IBS sign/verify, pseudonym validity, HIBC verify —
/// goes through this table.
const PairingPrecomp& generator_precomp(const CurveCtx& ctx);

}  // namespace hcpp::curve
