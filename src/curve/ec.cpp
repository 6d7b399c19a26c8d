#include "src/curve/ec.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/curve/pairing.h"
#include "src/hash/sha256.h"
#include "src/mp/prime.h"
#include "src/obs/metrics.h"

namespace hcpp::curve {

using field::Fp;

std::vector<int8_t> wnaf(const mp::U512& k, unsigned w) {
  const int full = 1 << w;
  std::vector<int8_t> naf;
  naf.reserve(k.bit_length() + 1);
  mp::U512 rem = k;
  while (!rem.is_zero()) {
    int8_t digit = 0;
    if (rem.is_odd()) {
      int low = static_cast<int>(rem.w[0] & static_cast<uint64_t>(full - 1));
      digit = static_cast<int8_t>(low >= full / 2 ? low - full : low);
      mp::U512 tmp;
      if (digit > 0) {
        mp::sub(tmp, rem, mp::U512::from_u64(static_cast<uint64_t>(digit)));
      } else {
        mp::add(tmp, rem, mp::U512::from_u64(static_cast<uint64_t>(-digit)));
      }
      rem = tmp;
    }
    naf.push_back(digit);
    rem = mp::shr1(rem);
  }
  return naf;
}

namespace {

// One 64-byte big-endian point coordinate. Values ≥ p are refused: Fp would
// reduce them, so x + p would decode to x's point under different bytes.
Fp coordinate_from_bytes(const CurveCtx& ctx, BytesView b) {
  mp::U512 v = mp::U512::from_bytes_be(b);
  if (!(v < ctx.p)) {
    throw std::invalid_argument("point_from_bytes: coordinate not below p");
  }
  return Fp(&ctx.fp, v);
}

}  // namespace

CurveCtx::CurveCtx(const mp::U512& p_in, const mp::U512& q_in,
                   const mp::U512& gx_in, const mp::U512& gy_in,
                   std::string name_in)
    : p(p_in),
      q(q_in),
      fp(p_in),
      zq(q_in),
      gx(gx_in),
      gy(gy_in),
      name(std::move(name_in)) {
  // cofactor = (p+1)/q, and p+1 must divide exactly (runs once per set).
  mp::U512 p_plus1;
  mp::add(p_plus1, p, mp::U512::from_u64(1));
  mp::DivMod dm = mp::divmod(p_plus1, q);
  if (!dm.remainder.is_zero()) {
    throw std::invalid_argument("CurveCtx: q does not divide p+1");
  }
  cofactor = dm.quotient;
  miller_schedule = wnaf(q, 2);
  std::reverse(miller_schedule.begin(), miller_schedule.end());
}

CurveCtx::~CurveCtx() = default;

std::optional<Point> PointMemo::find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void PointMemo::insert(std::string key, const Point& pt) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.size() >= kCapacity) map_.clear();
  map_.insert_or_assign(std::move(key), pt);
}

bool operator==(const Point& a, const Point& b) noexcept {
  if (a.infinity || b.infinity) return a.infinity == b.infinity;
  return a.x == b.x && a.y == b.y;
}

Point generator(const CurveCtx& ctx) {
  Point g;
  g.x = Fp(&ctx.fp, ctx.gx);
  g.y = Fp(&ctx.fp, ctx.gy);
  g.infinity = false;
  return g;
}

bool on_curve(const CurveCtx& ctx, const Point& pt) {
  if (pt.infinity) return true;
  // y^2 == x^3 + x
  Fp lhs = pt.y.sqr();
  Fp rhs = pt.x.sqr() * pt.x + pt.x;
  (void)ctx;
  return lhs == rhs;
}

bool in_prime_subgroup(const CurveCtx& ctx, const Point& pt) {
  if (pt.infinity || !on_curve(ctx, pt)) return false;
  return mul(ctx, pt, ctx.q).infinity;
}

Point negate(const Point& a) {
  if (a.infinity) return a;
  Point r = a;
  r.y = a.y.neg();
  return r;
}

Point add(const CurveCtx& ctx, const Point& a, const Point& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  if (a.x == b.x) {
    if (a.y == b.y.neg()) return Point::at_infinity();
    return dbl(ctx, a);
  }
  Fp slope = (b.y - a.y) * (b.x - a.x).inv();
  Fp x3 = slope.sqr() - a.x - b.x;
  Fp y3 = slope * (a.x - x3) - a.y;
  return Point{x3, y3, false};
}

Point dbl(const CurveCtx& ctx, const Point& a) {
  if (a.infinity) return a;
  if (a.y.is_zero()) return Point::at_infinity();
  const Fp one = Fp::one(&ctx.fp);
  Fp x_sq = a.x.sqr();
  // slope = (3x^2 + 1) / (2y)   (curve coefficient a = 1)
  Fp num = x_sq + x_sq + x_sq + one;
  Fp den = (a.y + a.y).inv();
  Fp slope = num * den;
  Fp x3 = slope.sqr() - a.x - a.x;
  Fp y3 = slope * (a.x - x3) - a.y;
  return Point{x3, y3, false};
}

namespace {

// Jacobian coordinates (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
struct Jac {
  Fp x, y, z;
  bool infinity = true;
};

Jac to_jac(const CurveCtx& ctx, const Point& pt) {
  if (pt.infinity) return Jac{};
  return Jac{pt.x, pt.y, Fp::one(&ctx.fp), false};
}

Point from_jac(const CurveCtx& ctx, const Jac& j) {
  (void)ctx;
  if (j.infinity) return Point::at_infinity();
  Fp zinv = j.z.inv();
  Fp zinv2 = zinv.sqr();
  return Point{j.x * zinv2, j.y * zinv2 * zinv, false};
}

Jac jac_dbl(const CurveCtx& ctx, const Jac& pt) {
  if (pt.infinity || pt.y.is_zero()) return Jac{};
  const Fp one = Fp::one(&ctx.fp);
  (void)one;
  // dbl-2007-bl style for a = 1 (generic a): M = 3X^2 + a·Z^4.
  Fp xx = pt.x.sqr();
  Fp yy = pt.y.sqr();
  Fp yyyy = yy.sqr();
  Fp zz = pt.z.sqr();
  Fp s = ((pt.x + yy).sqr() - xx - yyyy);
  s = s + s;
  Fp z4 = zz.sqr();
  Fp m = xx + xx + xx + z4;  // a = 1
  Fp t = m.sqr() - s - s;
  Jac r;
  r.x = t;
  Fp eight_yyyy = yyyy + yyyy;
  eight_yyyy = eight_yyyy + eight_yyyy;
  eight_yyyy = eight_yyyy + eight_yyyy;
  r.y = m * (s - t) - eight_yyyy;
  r.z = (pt.y + pt.z).sqr() - yy - zz;
  r.infinity = false;
  return r;
}

// General Jacobian addition (add-2007-bl), used when neither operand is
// affine — e.g. while growing the odd-multiples table before its single
// batch normalization.
Jac jac_add(const CurveCtx& ctx, const Jac& a, const Jac& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  Fp z1z1 = a.z.sqr();
  Fp z2z2 = b.z.sqr();
  Fp u1 = a.x * z2z2;
  Fp u2 = b.x * z1z1;
  Fp s1 = a.y * z2z2 * b.z;
  Fp s2 = b.y * z1z1 * a.z;
  if (u1 == u2) {
    if (s1 == s2) return jac_dbl(ctx, a);
    return Jac{};
  }
  Fp h = u2 - u1;
  Fp i = (h + h).sqr();
  Fp j = h * i;
  Fp rr = s2 - s1;
  rr = rr + rr;
  Fp v = u1 * i;
  Jac r;
  r.x = rr.sqr() - j - v - v;
  Fp two_s1j = s1 * j;
  two_s1j = two_s1j + two_s1j;
  r.y = rr * (v - r.x) - two_s1j;
  r.z = ((a.z + b.z).sqr() - z1z1 - z2z2) * h;
  r.infinity = false;
  return r;
}

// Batch Jacobian→affine conversion: one shared modular inversion
// (Montgomery's trick in MontCtx::batch_inv) for the whole span, instead of
// one per point. Infinity entries pass through untouched; every finite
// Jacobian point has z != 0, so the batch never sees a zero.
std::vector<Point> jac_normalize_batch(const CurveCtx& ctx,
                                       std::span<const Jac> pts) {
  std::vector<mp::U512> zs;
  zs.reserve(pts.size());
  for (const Jac& j : pts) {
    if (!j.infinity) zs.push_back(j.z.raw());
  }
  ctx.fp.mont.batch_inv(zs);
  std::vector<Point> out(pts.size());
  size_t zi = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    const Jac& j = pts[i];
    if (j.infinity) {
      out[i] = Point::at_infinity();
      continue;
    }
    Fp zinv = Fp::from_raw(&ctx.fp, zs[zi++]);
    Fp zinv2 = zinv.sqr();
    out[i] = Point{j.x * zinv2, j.y * zinv2 * zinv, false};
  }
  return out;
}

// Mixed addition: q is affine (z = 1).
Jac jac_add_affine(const CurveCtx& ctx, const Jac& a, const Point& b) {
  if (b.infinity) return a;
  if (a.infinity) return to_jac(ctx, b);
  Fp z1z1 = a.z.sqr();
  Fp u2 = b.x * z1z1;
  Fp s2 = b.y * z1z1 * a.z;
  if (a.x == u2) {
    if (a.y == s2) return jac_dbl(ctx, a);
    return Jac{};
  }
  Fp h = u2 - a.x;
  Fp hh = h.sqr();
  Fp i = hh + hh;
  i = i + i;
  Fp j = h * i;
  Fp rr = s2 - a.y;
  rr = rr + rr;
  Fp v = a.x * i;
  Jac r;
  r.x = rr.sqr() - j - v - v;
  Fp two_y1j = a.y * j;
  two_y1j = two_y1j + two_y1j;
  r.y = rr * (v - r.x) - two_y1j;
  r.z = (a.z + h).sqr() - z1z1 - hh;
  r.infinity = false;
  return r;
}

// Bits [lo, lo + len) of k as a scalar.
mp::U512 bit_slice(const mp::U512& k, size_t lo, size_t len) {
  mp::U512 r;
  for (size_t i = 0; i < len && lo + i < mp::kBits; ++i) {
    if (k.bit(lo + i)) r.w[i / 64] |= 1ull << (i % 64);
  }
  return r;
}

// The wNAF width of the scalar multiplications: digits ±1, ±3, …, ±15,
// exactly the eight odd multiples of each table below.
constexpr unsigned kWnafWidth = 5;

// Odd multiples 1a, 3a, …, 15a of every point in `pts`, grown in Jacobian
// form and flattened to affine with one shared batch inversion; entry
// 8·i + j is (2j+1)·pts[i]. An infinite input yields infinite entries.
std::vector<Point> odd_multiples(const CurveCtx& ctx,
                                 std::span<const Jac> pts) {
  std::vector<Jac> jtab(8 * pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    Jac* t = &jtab[8 * i];
    t[0] = pts[i];
    Jac twice = jac_dbl(ctx, t[0]);
    for (int j = 1; j < 8; ++j) t[j] = jac_add(ctx, t[j - 1], twice);
  }
  return jac_normalize_batch(ctx, jtab);
}

// acc + d·a for a wNAF digit d, with table = odd multiples of a.
Jac add_digit(const CurveCtx& ctx, const Jac& acc, const Point* table,
              int8_t d) {
  if (d > 0) return jac_add_affine(ctx, acc, table[(d - 1) / 2]);
  if (d < 0) return jac_add_affine(ctx, acc, negate(table[(-d - 1) / 2]));
  return acc;
}

}  // namespace

Point mul(const CurveCtx& ctx, const Point& a, const mp::U512& k) {
  obs::count(obs::kPointMul);
  if (a.infinity || k.is_zero()) return Point::at_infinity();
  std::vector<int8_t> naf = wnaf(k, kWnafWidth);
  const Jac base = to_jac(ctx, a);
  std::vector<Point> table = odd_multiples(ctx, std::span(&base, 1));
  Jac acc;
  for (size_t i = naf.size(); i-- > 0;) {
    acc = add_digit(ctx, jac_dbl(ctx, acc), table.data(), naf[i]);
  }
  return from_jac(ctx, acc);
}

Point mul2(const CurveCtx& ctx, const Point& p, const mp::U512& a,
           const Point& q, const mp::U512& b) {
  obs::count(obs::kPointMul);
  std::vector<int8_t> na = wnaf(a, kWnafWidth);
  std::vector<int8_t> nb = wnaf(b, kWnafWidth);
  const Jac pts[2] = {to_jac(ctx, p), to_jac(ctx, q)};
  std::vector<Point> table = odd_multiples(ctx, pts);
  Jac acc;
  for (size_t i = std::max(na.size(), nb.size()); i-- > 0;) {
    acc = jac_dbl(ctx, acc);
    if (i < na.size()) acc = add_digit(ctx, acc, &table[0], na[i]);
    if (i < nb.size()) acc = add_digit(ctx, acc, &table[8], nb[i]);
  }
  return from_jac(ctx, acc);
}

FixedBaseTable::FixedBaseTable(const CurveCtx& ctx, const Point& base)
    : chunk_bits((ctx.q.bit_length() + kChunks - 1) / kChunks) {
  Jac shifted[kChunks];  // 2^{c·j}·B
  shifted[0] = to_jac(ctx, base);
  for (size_t j = 1; j < kChunks; ++j) {
    shifted[j] = shifted[j - 1];
    for (size_t d = 0; d < chunk_bits; ++d) {
      shifted[j] = jac_dbl(ctx, shifted[j]);
    }
  }
  odd = odd_multiples(ctx, shifted);
}

Point mul2_fixed(const CurveCtx& ctx, const FixedBaseTable& p,
                 const mp::U512& a, const FixedBaseTable& q,
                 const mp::U512& b) {
  obs::count(obs::kPointMul);
  const FixedBaseTable* tables[2] = {&p, &q};
  const mp::U512* scalars[2] = {&a, &b};
  // One wNAF stream per (base, chunk): scalar = Σ_j chunk_j·2^{c·j}, and
  // chunk_j multiplies the table's 2^{c·j}·B entries.
  constexpr size_t kStreams = 2 * FixedBaseTable::kChunks;
  std::vector<int8_t> nafs[kStreams];
  size_t len = 0;
  for (size_t t = 0; t < 2; ++t) {
    const size_t c = tables[t]->chunk_bits;
    if (scalars[t]->bit_length() > FixedBaseTable::kChunks * c) {
      throw std::invalid_argument("mul2_fixed: scalar wider than the table");
    }
    for (size_t j = 0; j < FixedBaseTable::kChunks; ++j) {
      std::vector<int8_t>& naf = nafs[FixedBaseTable::kChunks * t + j];
      naf = wnaf(bit_slice(*scalars[t], c * j, c), kWnafWidth);
      len = std::max(len, naf.size());
    }
  }
  Jac acc;
  for (size_t i = len; i-- > 0;) {
    acc = jac_dbl(ctx, acc);
    for (size_t s = 0; s < kStreams; ++s) {
      if (i >= nafs[s].size()) continue;
      const Point* table = &tables[s / FixedBaseTable::kChunks]
                                ->odd[8 * (s % FixedBaseTable::kChunks)];
      acc = add_digit(ctx, acc, table, nafs[s][i]);
    }
  }
  return from_jac(ctx, acc);
}

namespace {
void build_fixed_base_table(const CurveCtx& ctx) {
  // Phase 1: the ⌈|q|/4⌉ window bases 16^j · G (mul_generator reduces its
  // scalar mod q first) by repeated Jacobian doubling, normalized together.
  // G generates the odd-prime-order subgroup, so no base (nor any
  // v·16^j·G below) is ever the identity.
  const size_t windows = (ctx.q.bit_length() + 3) / 4;
  std::vector<Jac> bases(windows);
  Jac base = to_jac(ctx, generator(ctx));
  for (size_t j = 0; j < windows; ++j) {
    bases[j] = base;
    for (int d = 0; d < 4; ++d) base = jac_dbl(ctx, base);
  }
  std::vector<Point> affine_bases = jac_normalize_batch(ctx, bases);
  // Phase 2: all 15 entries v · 16^j · G per window via mixed additions on
  // the affine bases, again normalized with a single shared inversion. The
  // whole table build costs two inversions instead of one per affine
  // addition (~600 of them at |q| = 160).
  std::vector<Jac> entries;
  entries.reserve(windows * 15);
  for (size_t j = 0; j < windows; ++j) {
    Jac acc = to_jac(ctx, affine_bases[j]);
    for (int v = 1; v <= 15; ++v) {
      entries.push_back(acc);
      acc = jac_add_affine(ctx, acc, affine_bases[j]);
    }
  }
  std::vector<Point> flat = jac_normalize_batch(ctx, entries);
  ctx.fixed_base_table.assign(windows, {});
  for (size_t j = 0; j < windows; ++j) {
    ctx.fixed_base_table[j].assign(flat.begin() + static_cast<long>(j * 15),
                                   flat.begin() + static_cast<long>((j + 1) * 15));
  }
}
}  // namespace

Point mul_generator(const CurveCtx& ctx, const mp::U512& k) {
  obs::count(obs::kPointMul);
  std::call_once(ctx.fixed_base_once, [&ctx] { build_fixed_base_table(ctx); });
  const mp::U512 r = k < ctx.q ? k : mp::mod(k, ctx.q);  // k·G = (k mod q)·G
  Jac acc;  // mixed Jacobian additions only — no doublings, one inversion
  for (size_t j = 0; j < ctx.fixed_base_table.size(); ++j) {
    uint64_t v = (r.w[(4 * j) / 64] >> ((4 * j) % 64)) & 15;
    if (v != 0) {
      acc = jac_add_affine(ctx, acc, ctx.fixed_base_table[j][v - 1]);
    }
  }
  return from_jac(ctx, acc);
}

mp::U512 random_scalar(const CurveCtx& ctx, RandomSource& rng) {
  for (;;) {
    mp::U512 k = mp::random_below(ctx.q, rng);
    if (!k.is_zero()) return k;
  }
}

Point hash_to_point(const CurveCtx& ctx, BytesView msg, std::string_view tag) {
  obs::count(obs::kHashToPoint);
  for (uint32_t ctr = 0;; ++ctr) {
    Bytes input = to_bytes(tag);
    input.push_back(static_cast<uint8_t>(ctr >> 24));
    input.push_back(static_cast<uint8_t>(ctr >> 16));
    input.push_back(static_cast<uint8_t>(ctr >> 8));
    input.push_back(static_cast<uint8_t>(ctr));
    append(input, msg);
    // Two hash blocks give up to 512 candidate bits; reduce mod p.
    Bytes wide = hash::sha256_bytes(input);
    Bytes second = hash::sha256_bytes(wide);
    append(wide, second);
    mp::U512 x_candidate = mp::mod(mp::U512::from_bytes_be(wide), ctx.p);
    Fp x(&ctx.fp, x_candidate);
    Fp rhs = x.sqr() * x + x;
    std::optional<Fp> y = rhs.sqrt();
    if (!y.has_value()) continue;
    Point pt{x, *y, false};
    Point in_subgroup = mul(ctx, pt, ctx.cofactor);
    if (in_subgroup.infinity) continue;
    return in_subgroup;
  }
}

mp::U512 hash_to_scalar(const CurveCtx& ctx, BytesView msg,
                        std::string_view tag) {
  for (uint32_t ctr = 0;; ++ctr) {
    Bytes input = to_bytes(tag);
    input.push_back(static_cast<uint8_t>(ctr >> 24));
    input.push_back(static_cast<uint8_t>(ctr >> 16));
    input.push_back(static_cast<uint8_t>(ctr >> 8));
    input.push_back(static_cast<uint8_t>(ctr));
    append(input, msg);
    Bytes wide = hash::sha256_bytes(input);
    Bytes second = hash::sha256_bytes(wide);
    append(wide, second);
    mp::U512 s = mp::mod(mp::U512::from_bytes_be(wide), ctx.q);
    if (!s.is_zero()) return s;
  }
}

Bytes point_to_bytes(const Point& pt) {
  Bytes out;
  if (pt.infinity) {
    out.push_back(0);
    return out;
  }
  out.push_back(1);
  append(out, pt.x.value().to_bytes_be());
  append(out, pt.y.value().to_bytes_be());
  return out;
}

Point point_from_bytes(const CurveCtx& ctx, BytesView b) {
  if (b.empty()) throw std::invalid_argument("point_from_bytes: empty");
  if (b[0] == 0) {
    if (b.size() != 1) {
      throw std::invalid_argument("point_from_bytes: bad infinity encoding");
    }
    return Point::at_infinity();
  }
  if (b[0] != 1 || b.size() != 1 + 2 * 64) {
    throw std::invalid_argument("point_from_bytes: bad length");
  }
  Point pt{coordinate_from_bytes(ctx, b.subspan(1, 64)),
           coordinate_from_bytes(ctx, b.subspan(65, 64)), false};
  if (!on_curve(ctx, pt)) {
    throw std::invalid_argument("point_from_bytes: not on curve");
  }
  return pt;
}

Point checked_point_from_bytes(const CurveCtx& ctx, BytesView b) {
  std::string key = to_string(b);
  if (std::optional<Point> hit = ctx.checked_point_memo.find(key)) {
    obs::count(obs::kCheckedPointMemoHits);
    return *hit;
  }
  obs::count(obs::kCheckedPointMemoMisses);
  Point pt = point_from_bytes(ctx, b);
  // An on-curve point of small order would confine ê(Γ, P) to a small,
  // brute-forceable subgroup of GT (small-subgroup attack).
  if (!in_prime_subgroup(ctx, pt)) {
    throw std::invalid_argument("point not in the prime-order subgroup");
  }
  ctx.checked_point_memo.insert(std::move(key), pt);
  return pt;
}

}  // namespace hcpp::curve
