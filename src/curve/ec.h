// The pairing group G1: the order-q subgroup of the supersingular curve
//   E: y^2 = x^3 + x  over F_p,   p ≡ 3 (mod 4),   #E(F_p) = p + 1 = c·q.
// The distortion map ψ(x, y) = (−x, i·y) sends G1 into a linearly
// independent order-q subgroup of E(F_{p^2}), giving the modified Tate
// pairing ê(P, Q) = e(P, ψ(Q)) used throughout HCPP (§II.A).
#pragma once

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
/// Scalar multiplication (Jacobian double-and-add internally).
Point mul(const CurveCtx& ctx, const Point& a, const mp::U512& k);
/// Width-4 wNAF scalar multiplication — same result, ~25% fewer additions;
/// benchmark E2 carries the ablation.
Point mul_wnaf(const CurveCtx& ctx, const Point& a, const mp::U512& k);
/// a·P + b·Q in one interleaved width-4 wNAF pass (Straus–Shamir): the two
/// scalars share every doubling. Counts as one point multiplication.
Point mul2(const CurveCtx& ctx, const Point& p, const mp::U512& a,
           const Point& q, const mp::U512& b);
/// k·P (generator) via the context's cached fixed-base window table: only
/// point additions, no doublings. Built lazily, thread-safe.
Point mul_generator(const CurveCtx& ctx, const mp::U512& k);

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
Bytes point_to_bytes(const Point& pt);
Point point_from_bytes(const CurveCtx& ctx, BytesView b);

/// point_from_bytes plus in_prime_subgroup, for points received from a peer
/// that will be paired against a private key. Throws std::invalid_argument
/// unless the encoding is an on-curve point of order q. Accepted encodings
/// are memoised on the context, so a repeated pseudonym skips the check.
Point checked_point_from_bytes(const CurveCtx& ctx, BytesView b);

/// Compressed serialization: 1 flag byte (2 | y-parity) + 64-byte x; the
/// decoder recovers y via the curve equation (p ≡ 3 mod 4 square root).
/// Halves point wire size at the cost of one field exponentiation.
Bytes point_to_bytes_compressed(const Point& pt);
Point point_from_bytes_compressed(const CurveCtx& ctx, BytesView b);

}  // namespace hcpp::curve
