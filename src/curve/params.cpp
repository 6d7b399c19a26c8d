#include "src/curve/params.h"

#include <mutex>
#include <stdexcept>
#include <string>

#include "src/cipher/drbg.h"
#include "src/mp/prime.h"

namespace hcpp::curve {

namespace {

// The first prime q = 2^(n−1) + 2^b ± 1 for b = 1, 2, …, +1 first. A −2^b
// term would leave q with n − 1 bits, so this is also the first n-bit
// 2^(n−1) + s₁·2^b + s₂ over all four sign pairs. Its NAF has three nonzero
// digits: the Miller loop is doublings but for two addition steps.
mp::U512 solinas_prime(size_t n, RandomSource& rng) {
  for (size_t b = 1; b + 1 < n; ++b) {
    mp::U512 base;
    base.w[(n - 1) / 64] |= 1ull << ((n - 1) % 64);
    base.w[b / 64] |= 1ull << (b % 64);
    mp::U512 q = base;
    q.w[0] |= 1;  // bit 0 of base is clear
    if (mp::is_probable_prime(q, rng)) return q;
    mp::sub(q, base, mp::U512::from_u64(1));
    if (mp::is_probable_prime(q, rng)) return q;
  }
  throw std::invalid_argument("generate_params: no Solinas prime");
}

}  // namespace

GeneratedParams generate_params(size_t q_bits, size_t p_bits,
                                RandomSource& rng) {
  if (q_bits + 8 > p_bits || p_bits > mp::kBits) {
    throw std::invalid_argument("generate_params: bad widths");
  }
  GeneratedParams gp;
  gp.q = solinas_prime(q_bits, rng);
  // Both searches below expect far fewer tries than the cap (about
  // 0.35·p_bits prime candidates, two curve points); reaching it means
  // Miller–Rabin or the square root runs on broken field kernels.
  const size_t cap = 64 * p_bits;
  auto exhausted = [](const char* what) {
    return std::runtime_error(std::string("generate_params: no ") + what +
                              " within the cap; the field kernels "
                              "(MontCtx mul/sqr) are likely wrong");
  };
  const size_t c_bits = p_bits - q_bits;
  for (size_t tries = 0;; ++tries) {
    if (tries == cap) throw exhausted("prime p = c·q − 1");
    mp::U512 c = mp::random_bits(c_bits, rng);
    c.w[0] &= ~3ull;  // c ≡ 0 (mod 4) makes p = c·q − 1 ≡ 3 (mod 4)
    if (c.is_zero()) continue;
    mp::U1024 wide;
    mp::mul_wide(wide, c, gp.q);
    bool overflow = false;
    for (size_t i = mp::kLimbs; i < 2 * mp::kLimbs; ++i) {
      overflow |= (wide[i] != 0);
    }
    if (overflow) continue;
    mp::U512 cq;
    for (size_t i = 0; i < mp::kLimbs; ++i) cq.w[i] = wide[i];
    mp::U512 p;
    mp::sub(p, cq, mp::U512::from_u64(1));
    if (!mp::is_probable_prime(p, rng)) continue;
    gp.p = p;
    break;
  }
  // Find a generator: random curve point times the cofactor.
  field::FpCtx fld(gp.p);
  // cofactor = (p+1)/q = c by construction; recompute defensively via ctx in
  // make_curve. Here we only need some multiple clearing q's complement.
  for (size_t tries = 0;; ++tries) {
    if (tries == cap) throw exhausted("generator");
    mp::U512 x_raw = mp::random_below(gp.p, rng);
    field::Fp x(&fld, x_raw);
    field::Fp rhs = x.sqr() * x + x;
    std::optional<field::Fp> y = rhs.sqrt();
    if (!y.has_value()) continue;
    // Build a throwaway context to use the group law.
    CurveCtx probe(gp.p, gp.q, x.value(), y->value(), "probe");
    Point pt = generator(probe);
    Point g = mul(probe, pt, probe.cofactor);
    if (g.infinity) continue;
    if (!mul(probe, g, probe.q).infinity) {
      throw std::logic_error("generate_params: generator has wrong order");
    }
    gp.gx = g.x.value();
    gp.gy = g.y.value();
    return gp;
  }
}

std::unique_ptr<CurveCtx> make_curve(const GeneratedParams& gp,
                                     std::string name) {
  auto ctx = std::make_unique<CurveCtx>(gp.p, gp.q, gp.gx, gp.gy,
                                        std::move(name));
  Point g = generator(*ctx);
  if (!on_curve(*ctx, g) || g.infinity) {
    throw std::invalid_argument("make_curve: generator not on curve");
  }
  if (!mul(*ctx, g, ctx->q).infinity) {
    throw std::invalid_argument("make_curve: generator order != q");
  }
  return ctx;
}

namespace {

std::unique_ptr<CurveCtx> build_named(ParamSet set) {
  // Deterministic seeds keep parameters stable across runs without shipping
  // magic constants; generation takes well under a second (kTest) / a few
  // seconds at most (kProduction), once per process.
  if (set == ParamSet::kTest) {
    cipher::Drbg rng(to_bytes("hcpp-params-test-v2"));
    GeneratedParams gp = generate_params(150, 256, rng);
    return make_curve(gp, "hcpp-test-p256-q150");
  }
  cipher::Drbg rng(to_bytes("hcpp-params-production-v2"));
  GeneratedParams gp = generate_params(160, 512, rng);
  return make_curve(gp, "hcpp-production-p512-q160");
}

}  // namespace

const CurveCtx& params(ParamSet set) {
  static std::once_flag flags[2];
  static std::unique_ptr<CurveCtx> ctxs[2];
  size_t idx = (set == ParamSet::kTest) ? 0 : 1;
  std::call_once(flags[idx], [&] { ctxs[idx] = build_named(set); });
  return *ctxs[idx];
}

}  // namespace hcpp::curve
