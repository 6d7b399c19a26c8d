// The pairing group G1: the order-q subgroup of the supersingular curve
//   E: y^2 = x^3 + x  over F_p,   p ≡ 3 (mod 4),   #E(F_p) = p + 1 = c·q.
// The distortion map ψ(x, y) = (−x, i·y) sends G1 into a linearly
// independent order-q subgroup of E(F_{p^2}), giving the modified Tate
// pairing ê(P, Q) = e(P, ψ(Q)) used throughout HCPP (§II.A).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/field/fp2.h"
#include "src/mp/u512.h"

namespace hcpp::curve {

/// Affine point (infinity encoded explicitly). Value type; all operations
/// take the context explicitly.
struct Point {
  field::Fp x, y;
  bool infinity = true;

  static Point at_infinity() { return Point{}; }
  friend bool operator==(const Point& a, const Point& b) noexcept;
};

class PairingPrecomp;  // pairing.h

/// Thread-safe memo from an exact input encoding to a point, holding at most
/// kCapacity entries (a full memo is emptied before the next insert). A miss
/// costs the caller exactly what the uncached call costs.
class PointMemo {
 public:
  static constexpr size_t kCapacity = 1024;

  [[nodiscard]] std::optional<Point> find(const std::string& key) const;
  void insert(std::string key, const Point& pt);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Point> map_;
};

/// Domain parameters plus derived contexts. Construct via Params (params.h)
/// or from a freshly generated set (tools/gen_params).
struct CurveCtx {
  mp::U512 p;         // field prime, p ≡ 3 (mod 4)
  mp::U512 q;         // prime group order
  mp::U512 cofactor;  // (p+1)/q
  field::FpCtx fp;    // base field context
  mp::MontCtx zq;     // scalar field context (mod q)
  // Generator of the order-q subgroup (affine coordinates, plain form).
  mp::U512 gx, gy;
  std::string name;
  // Signed binary digits of q (its NAF), most significant first: the one
  // Miller-loop schedule every optimized pairing path walks (pairing.cpp).
  std::vector<int8_t> miller_schedule;

  CurveCtx(const mp::U512& p_in, const mp::U512& q_in, const mp::U512& gx_in,
           const mp::U512& gy_in, std::string name_in);
  ~CurveCtx();  // out of line: PairingPrecomp is incomplete here

  // Lazily built fixed-base table for the generator (see mul_generator).
  mutable std::once_flag fixed_base_once;
  mutable std::vector<std::vector<Point>> fixed_base_table;
  // Lazily built Miller-loop line cache for the generator (see
  // generator_precomp in pairing.h).
  mutable std::once_flag gen_precomp_once;
  mutable std::unique_ptr<PairingPrecomp> gen_precomp;
  // H1(ID) by identity (ibc::Domain::public_key) and accepted received
  // points by encoding (checked_point_from_bytes). They live here, not in a
  // global keyed by context address, so they die with the context.
  mutable PointMemo h1_memo;
  mutable PointMemo checked_point_memo;
};

/// Generator of G1.
Point generator(const CurveCtx& ctx);

/// True iff P is on the curve (or at infinity).
bool on_curve(const CurveCtx& ctx, const Point& pt);

/// True iff P is a non-infinity point of exact prime order q. Servers must
/// check received points with this before deriving pairing keys from them:
/// an on-curve point of small order would confine ê(Γ, P) to a small,
/// brute-forceable subgroup of GT (small-subgroup attack).
bool in_prime_subgroup(const CurveCtx& ctx, const Point& pt);

Point add(const CurveCtx& ctx, const Point& a, const Point& b);
Point dbl(const CurveCtx& ctx, const Point& a);
Point negate(const Point& a);
/// Scalar multiplication k·P: one width-5 wNAF pass over Jacobian
/// coordinates with a batch-normalized table of odd multiples.
Point mul(const CurveCtx& ctx, const Point& a, const mp::U512& k);
/// a·P + b·Q in one interleaved width-5 wNAF pass (Straus–Shamir): the two
/// scalars share every doubling. Counts as one point multiplication.
Point mul2(const CurveCtx& ctx, const Point& p, const mp::U512& a,
           const Point& q, const mp::U512& b);
/// Fixed-base table of one point B for mul2_fixed: the affine odd multiples
/// {1, 3, …, 15}·2^{c·j}·B for j = 0..3, with c = ⌈|q|/4⌉ — 32 points built
/// with one batch normalization (about 5 KB on the production set). Read-only
/// after construction, so one table serves concurrent callers.
struct FixedBaseTable {
  static constexpr size_t kChunks = 4;

  FixedBaseTable(const CurveCtx& ctx, const Point& base);

  size_t chunk_bits = 0;   // c
  std::vector<Point> odd;  // entry 8·j + i is (2i+1)·2^{c·j}·B
};
/// a·P + b·Q from the fixed-base tables of P and Q: each scalar splits into
/// four c-bit chunks, and the eight width-5 wNAF chunk streams share c + 1
/// doublings. Same point as mul2, and likewise one point multiplication.
/// Scalars must be below 2^{4c} (every scalar mod q is); throws
/// std::invalid_argument otherwise.
Point mul2_fixed(const CurveCtx& ctx, const FixedBaseTable& p,
                 const mp::U512& a, const FixedBaseTable& q,
                 const mp::U512& b);
/// k·P (generator) via the context's cached fixed-base window table: only
/// point additions, no doublings. The table covers scalars below 16^⌈|q|/4⌉;
/// a wider k is reduced mod q first. Built lazily, thread-safe.
Point mul_generator(const CurveCtx& ctx, const mp::U512& k);

/// Width-w NAF recoding of k, least significant digit first: digits in
/// {0, ±1, ±3, …, ±(2^(w−1) − 1)}, no two adjacent nonzero digits.
std::vector<int8_t> wnaf(const mp::U512& k, unsigned w);

/// Uniform nonzero scalar in [1, q).
mp::U512 random_scalar(const CurveCtx& ctx, RandomSource& rng);

/// Hash-to-G1 (the scheme's H1): try-and-increment onto the curve, then
/// clear the cofactor. Domain-separated by `tag`.
Point hash_to_point(const CurveCtx& ctx, BytesView msg,
                    std::string_view tag = "hcpp-h1");

/// Hash to a nonzero scalar mod q (the PEKS keyword hash H2').
mp::U512 hash_to_scalar(const CurveCtx& ctx, BytesView msg,
                        std::string_view tag = "hcpp-h2");

/// Serialization: 1 flag byte + two 64-byte coordinates (infinity: 1 byte).
/// The decoder accepts only canonical coordinates (below p), so every point
/// has exactly one encoding; anything else throws std::invalid_argument.
Bytes point_to_bytes(const Point& pt);
Point point_from_bytes(const CurveCtx& ctx, BytesView b);

/// point_from_bytes plus in_prime_subgroup, for points received from a peer
/// that will be paired against a private key. Throws std::invalid_argument
/// unless the encoding is an on-curve point of order q. Accepted encodings
/// are memoised on the context, so a repeated pseudonym skips the check.
Point checked_point_from_bytes(const CurveCtx& ctx, BytesView b);

}  // namespace hcpp::curve
