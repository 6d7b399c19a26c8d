// Differential tests for the AVX-512 IFMA lane kernels (src/mp/mont_ifma.h)
// and the batched pairing stages built on them:
//   * every lane primitive against the MULX and the portable MontCtx
//     kernels on both parameter sets, at 0, 1, p − 1, residues whose
//     radix-2^52 limbs are all 2^52 − 1, random residues, 1..8 lanes and
//     aliased outputs;
//   * the lane square and one Miller step (F_p² square, line value and
//     line product) the same way, on operands up to 2m − 1;
//   * curve::miller_batch and curve::final_exp_batch on a lane context
//     against per-term PairingPrecomp::miller_with and a one-element (so
//     scalar) final exponentiation on a MULX and on a portable context,
//     byte for byte, with infinite Q, trivial precomps and t = ±1 values
//     mixed in, and 512 terms on the test set so that the kernels' exit
//     reductions are exercised.
// The kernels are called directly and the lane context is built with
// HCPP_FORCE_GENERIC cleared, so a forced-generic run still checks them
// against the portable kernels. Hosts without AVX-512 IFMA skip the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/cipher/drbg.h"
#include "src/curve/pairing.h"
#include "src/curve/params.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"
#include "src/mp/mont_ifma.h"
#include "src/mp/prime.h"
#include "src/par/pool.h"
#include "tests/force_generic.h"

namespace hcpp {
namespace {

using mp::U512;
namespace ifma = mp::ifma;

bool host_has_lanes() {
  return ifma::compiled() && mp::cpu_features().avx512ifma;
}

const curve::ParamSet kSets[] = {curve::ParamSet::kTest,
                                 curve::ParamSet::kProduction};

// x·2^(−s) mod m, one halving at a time.
U512 halve(U512 x, const U512& m, size_t s) {
  for (size_t i = 0; i < s; ++i) {
    uint64_t carry = 0;
    if (x.is_odd()) carry = mp::add(x, x, m);
    x = mp::shr1_carry(x, carry);
  }
  return x;
}

// x·2^s mod m.
U512 twice(U512 x, const U512& m, size_t s) {
  for (size_t i = 0; i < s; ++i) x = mp::add_mod(x, x, m);
  return x;
}

// 0, 1, 2, m − 1, m − 2, residues whose low k radix-2^52 limbs are all
// 2^52 − 1 (k = 1..L−1, then the same with the top limb set too, reduced),
// and random residues.
std::vector<U512> residues(const ifma::Consts& c, RandomSource& rng) {
  const U512 one = U512::from_u64(1);
  std::vector<U512> xs = {U512{}, one, U512::from_u64(2)};
  U512 m1, m2;
  mp::sub(m1, c.m, one);
  mp::sub(m2, m1, one);
  xs.push_back(m1);
  xs.push_back(m2);
  U512 ones;
  for (size_t k = 1; k <= c.limbs; ++k) {
    for (size_t b = 52 * (k - 1); b < 52 * k && b < mp::kBits; ++b) {
      ones.w[b / 64] |= 1ull << (b % 64);
    }
    xs.push_back(ones < c.m ? ones : mp::mod(ones, c.m));
  }
  for (int i = 0; i < 24; ++i) xs.push_back(mp::random_below(c.m, rng));
  return xs;
}

TEST(LaneKernels, OpsMatchMulxAndPortableOnBothSets) {
  if (!host_has_lanes()) GTEST_SKIP() << "no AVX-512 IFMA on this host";
  cipher::Drbg rng(to_bytes("lane-ops"));
  for (curve::ParamSet set : kSets) {
    const U512 p = curve::params(set).p;
    for (bool forced : {false, true}) {
      ForceGenericGuard guard(forced);
      const mp::MontCtx ctx(p);
      const ifma::Consts& c = ctx.lane_consts();
      ASSERT_EQ(c.limbs, ctx.limbs() == 8 ? 10u : 5u);
      const size_t s = 52 * c.limbs - 64 * ctx.limbs();
      // One round: lanes 0..n−1 of every primitive against the MontCtx
      // kernel, then the product and the subtraction with aliased outputs.
      auto round = [&](size_t n, const U512* a, const U512* b) {
        U512 r[ifma::kLanes];
        auto check = [&](ifma::Op op, auto&& expect, const char* what) {
          ifma::apply(c, op, n, r, a, b);
          for (size_t l = 0; l < n; ++l) {
            ASSERT_EQ(r[l], expect(a[l], b[l]))
                << what << " set=" << static_cast<int>(set)
                << " forced=" << forced << " lane=" << l << " of " << n;
          }
        };
        check(ifma::Op::kMul,
              [&](const U512& x, const U512& y) {
                return halve(ctx.mul(x, y), p, s);
              },
              "mul");
        check(ifma::Op::kAdd,
              [&](const U512& x, const U512& y) { return ctx.add(x, y); },
              "add");
        check(ifma::Op::kSub,
              [&](const U512& x, const U512& y) { return ctx.sub(x, y); },
              "sub");
        check(ifma::Op::kToLane,
              [&](const U512& x, const U512&) { return twice(x, p, s); },
              "to_lane");
        check(ifma::Op::kFromLane,
              [&](const U512& x, const U512&) { return halve(x, p, s); },
              "from_lane");
        std::copy(a, a + n, r);  // r = a
        ifma::apply(c, ifma::Op::kMul, n, r, r, b);
        for (size_t l = 0; l < n; ++l) {
          ASSERT_EQ(r[l], halve(ctx.mul(a[l], b[l]), p, s)) << "r=a";
        }
        std::copy(b, b + n, r);  // r = b
        ifma::apply(c, ifma::Op::kSub, n, r, a, r);
        for (size_t l = 0; l < n; ++l) {
          ASSERT_EQ(r[l], ctx.sub(a[l], b[l])) << "r=b";
        }
      };
      // The edge residues: lane l of round k pairs xs[k + l] with
      // xs[(k·7 + 3·l) % size]; the lane count cycles through 1..8.
      const std::vector<U512> xs = residues(c, rng);
      for (size_t k = 0; k < xs.size(); ++k) {
        const size_t n = 1 + k % ifma::kLanes;
        U512 a[ifma::kLanes], b[ifma::kLanes];
        for (size_t l = 0; l < n; ++l) {
          a[l] = xs[(k + l) % xs.size()];
          b[l] = xs[(k * 7 + 3 * l) % xs.size()];
        }
        round(n, a, b);
      }
      // Random residues, enough that a reduction lands in [m, 2m) and needs
      // its final subtraction (about m/(4R') of products: 1 in 64–128 on the
      // test set, 1 in 1000 on the production set).
      for (size_t k = 0; k < 4096; ++k) {
        U512 a[ifma::kLanes], b[ifma::kLanes];
        for (size_t l = 0; l < ifma::kLanes; ++l) {
          a[l] = mp::random_below(p, rng);
          b[l] = mp::random_below(p, rng);
        }
        round(ifma::kLanes, a, b);
      }
    }
  }
}

// The product shapes of the kernels: the lane square (kSqr) and one Miller
// step (miller_step: the F_p² square, the line value c1·x + c0, then the
// line product), against the MULX and the portable MontCtx
// kernels. Inside a kernel a value may lie anywhere below 2m, so the
// operands that carry such values (f0, f1, x, y and the square's input)
// are drawn below 2m here, the precomp's c0 and c1 below m. The edge
// rounds put 0, m − 1, m and 2m − 1 against each other, so that the
// products reach their widest and a1 − a0 its largest.
TEST(LaneProducts, SquareAndMillerStepMatchMulxAndPortableOnBothSets) {
  if (!host_has_lanes()) GTEST_SKIP() << "no AVX-512 IFMA on this host";
  cipher::Drbg rng(to_bytes("lane-products"));
  for (curve::ParamSet set : kSets) {
    const U512 p = curve::params(set).p;
    const U512 one = U512::from_u64(1);
    U512 p2, p1, p2m1;  // 2p, p − 1, 2p − 1
    mp::add(p2, p, p);
    mp::sub(p1, p, one);
    mp::sub(p2m1, p2, one);
    for (bool forced : {false, true}) {
      ForceGenericGuard guard(forced);
      const mp::MontCtx ctx(p);
      const ifma::Consts& c = ctx.lane_consts();
      const size_t s = 52 * c.limbs - 64 * ctx.limbs();
      auto red = [&](const U512& x) { return x < p ? x : mp::mod(x, p); };
      auto lane_mul = [&](const U512& x, const U512& y) {
        return halve(ctx.mul(red(x), red(y)), p, s);
      };
      const std::string what = "set=" + std::to_string(int(set)) +
                               " forced=" + std::to_string(forced);
      // Lanes 0..n−1 of operand j are ops[j][0..n): f0, f1, c0, c1, x, y.
      auto round = [&](size_t n, const U512 (*ops)[ifma::kLanes]) {
        U512 r[ifma::kLanes];
        ifma::apply(c, ifma::Op::kSqr, n, r, ops[0], nullptr);
        for (size_t l = 0; l < n; ++l) {
          ASSERT_EQ(r[l], halve(ctx.sqr(red(ops[0][l])), p, s))
              << "sqr " << what << " lane=" << l << " of " << n;
        }
        U512 re[ifma::kLanes], im[ifma::kLanes];
        ifma::miller_step(c, n, {ops[0], ops[1], ops[2], ops[3], ops[4],
                                 ops[5], re, im});
        for (size_t l = 0; l < n; ++l) {
          const U512 &f0 = ops[0][l], &f1 = ops[1][l], &y = ops[5][l];
          const U512 g0 = ctx.sub(lane_mul(f0, f0), lane_mul(f1, f1));
          const U512 g1 = ctx.add(lane_mul(f0, f1), lane_mul(f0, f1));
          const U512 l0 = ctx.add(lane_mul(ops[3][l], ops[4][l]), ops[2][l]);
          ASSERT_EQ(re[l], ctx.sub(lane_mul(g0, l0), lane_mul(g1, y)))
              << "step re " << what << " lane=" << l << " of " << n;
          ASSERT_EQ(im[l], ctx.add(lane_mul(g0, y), lane_mul(g1, l0)))
              << "step im " << what << " lane=" << l << " of " << n;
        }
      };
      // Edge rounds: every lane choice of {0, m − 1, m, 2m − 1} for the
      // five wide operands (4⁵ = 1024 lanes in rounds of eight), with c0
      // and c1 cycling through 0, 1 and m − 1.
      const U512 wide[] = {U512{}, p1, p, p2m1};
      const U512 narrow[] = {U512{}, one, p1};
      for (size_t k = 0; k < 1024 / ifma::kLanes; ++k) {
        U512 ops[6][ifma::kLanes];
        for (size_t l = 0; l < ifma::kLanes; ++l) {
          size_t code = k * ifma::kLanes + l;
          for (size_t j : {0, 1, 4, 5}) {
            ops[j][l] = wide[code % 4];
            code /= 4;
          }
          ops[2][l] = narrow[(k + l) % 3];
          ops[3][l] = narrow[(k + 2 * l + code) % 3];
        }
        round(1 + k % ifma::kLanes, ops);
      }
      // Random rounds: the wide operands below 2m, c0 and c1 below m.
      for (size_t k = 0; k < 1024; ++k) {
        U512 ops[6][ifma::kLanes];
        for (size_t j = 0; j < 6; ++j) {
          for (U512& x : ops[j]) {
            x = mp::random_below(j == 2 || j == 3 ? p : p2, rng);
          }
        }
        round(ifma::kLanes, ops);
      }
    }
  }
}

// Points moved between contexts by their encoding.
curve::Point on(const curve::CurveCtx& ctx, const curve::Point& pt) {
  return curve::point_from_bytes(ctx, curve::point_to_bytes(pt));
}

void expect_same(const field::Fp2& got, const field::Fp2& want,
                 const std::string& what) {
  EXPECT_EQ(got.re().raw(), want.re().raw()) << what;
  EXPECT_EQ(got.im().raw(), want.im().raw()) << what;
}

TEST(LaneBatch, MillerAndFinalExpMatchScalarPerTerm) {
  if (!host_has_lanes()) GTEST_SKIP() << "no AVX-512 IFMA on this host";
  cipher::Drbg rng(to_bytes("lane-batch"));
  par::ThreadPool pool(3, "lanes");
  for (curve::ParamSet set : kSets) {
    const curve::CurveCtx& named = curve::params(set);
    const curve::GeneratedParams gp{named.p, named.q, named.gx, named.gy};
    std::unique_ptr<curve::CurveCtx> lanes;
    {
      ForceGenericGuard guard(false);
      lanes = curve::make_curve(gp, "lanes");
    }
    ASSERT_NE(lanes->fp.mont.lanes(), nullptr);
    // Three fixed arguments, a trivial precomp, and 17 second arguments of
    // which every fifth is at infinity.
    std::vector<curve::Point> ps, qs;
    for (int i = 0; i < 3; ++i) {
      ps.push_back(curve::mul(*lanes, curve::generator(*lanes),
                              curve::random_scalar(*lanes, rng)));
    }
    ps.push_back(curve::Point::at_infinity());
    for (int i = 0; i < 17; ++i) {
      qs.push_back(i % 5 == 4 ? curve::Point::at_infinity()
                              : curve::mul(*lanes, curve::generator(*lanes),
                                           curve::random_scalar(*lanes, rng)));
    }
    std::vector<curve::PairingPrecomp> lane_pre;
    for (const curve::Point& pt : ps) lane_pre.emplace_back(*lanes, pt);
    // The term of index i: precomp (i·5 + i/4) % 4, so the trivial one and
    // the infinite q's land at varied lanes.
    auto pre_of = [](size_t i) { return (i * 5 + i / 4) % 4; };

    for (bool forced : {false, true}) {
      std::unique_ptr<curve::CurveCtx> ref;
      {
        ForceGenericGuard guard(forced);
        ref = curve::make_curve(gp, "reference");
      }
      std::vector<curve::PairingPrecomp> ref_pre;
      for (const curve::Point& pt : ps) ref_pre.emplace_back(*ref, on(*ref, pt));
      for (size_t n : {0, 1, 7, 8, 9, 12, 17}) {
        for (par::ThreadPool* pl : {static_cast<par::ThreadPool*>(nullptr),
                                    &pool}) {
          const std::string what = "set=" + std::to_string(int(set)) +
                                   " forced=" + std::to_string(forced) +
                                   " n=" + std::to_string(n) +
                                   " pool=" + std::to_string(pl != nullptr);
          std::vector<curve::MillerTerm> terms;
          for (size_t i = 0; i < n; ++i) {
            terms.push_back({&lane_pre[pre_of(i)], qs[i]});
          }
          std::vector<field::Fp2> fs = curve::miller_batch(*lanes, terms, pl);
          ASSERT_EQ(fs.size(), n);
          std::vector<field::Fp2> want;
          for (size_t i = 0; i < n; ++i) {
            want.push_back(ref_pre[pre_of(i)].miller_with(on(*ref, qs[i])));
            expect_same(fs[i], want[i], what + " miller i=" + std::to_string(i));
          }
          // t = ±1 values (f₀f₁ = 0) ride along in the final exponentiation.
          const U512 a = mp::random_below(named.p, rng);
          fs.emplace_back(field::Fp(&lanes->fp, a), field::Fp::zero(&lanes->fp));
          fs.emplace_back(field::Fp::zero(&lanes->fp), field::Fp(&lanes->fp, a));
          want.emplace_back(field::Fp(&ref->fp, a), field::Fp::zero(&ref->fp));
          want.emplace_back(field::Fp::zero(&ref->fp), field::Fp(&ref->fp, a));
          std::vector<curve::Gt> gs = curve::final_exp_batch(*lanes, fs, pl);
          ASSERT_EQ(gs.size(), fs.size());
          for (size_t i = 0; i < fs.size(); ++i) {
            const curve::Gt g =
                curve::final_exp_batch(*ref, std::span(&want[i], 1))[0];
            EXPECT_EQ(gs[i].to_bytes(), g.to_bytes())
                << what << " gt i=" << i;
          }
        }
      }
    }
  }
}

// Exit reductions: values inside a kernel may lie in [m, 2m), and the
// Miller and final-exponentiation kernels subtract m once as they write.
// An output needs that subtraction for about one value in a hundred on the
// test set, so this runs 512 terms there (and 64 on the production set)
// through miller_batch and final_exp_batch against the scalar path, limb
// for limb.
TEST(LaneExit, ManyBatchedValuesMatchScalar) {
  if (!host_has_lanes()) GTEST_SKIP() << "no AVX-512 IFMA on this host";
  cipher::Drbg rng(to_bytes("lane-exit"));
  for (curve::ParamSet set : kSets) {
    const curve::CurveCtx& named = curve::params(set);
    const curve::GeneratedParams gp{named.p, named.q, named.gx, named.gy};
    std::unique_ptr<curve::CurveCtx> lanes, ref;
    {
      ForceGenericGuard guard(false);
      lanes = curve::make_curve(gp, "lanes");
    }
    {
      ForceGenericGuard guard(true);
      ref = curve::make_curve(gp, "reference");
    }
    ASSERT_NE(lanes->fp.mont.lanes(), nullptr);
    std::vector<curve::PairingPrecomp> lane_pre, ref_pre;
    for (int i = 0; i < 4; ++i) {
      const curve::Point pt = curve::mul(*lanes, curve::generator(*lanes),
                                         curve::random_scalar(*lanes, rng));
      lane_pre.emplace_back(*lanes, pt);
      ref_pre.emplace_back(*ref, on(*ref, pt));
    }
    const size_t n = set == curve::ParamSet::kTest ? 512 : 64;
    std::vector<curve::MillerTerm> terms;
    std::vector<field::Fp2> want;
    for (size_t i = 0; i < n; ++i) {
      const curve::Point q = curve::mul(*lanes, curve::generator(*lanes),
                                        curve::random_scalar(*lanes, rng));
      terms.push_back({&lane_pre[i % 4], q});
      want.push_back(ref_pre[i % 4].miller_with(on(*ref, q)));
    }
    const std::vector<field::Fp2> fs = curve::miller_batch(*lanes, terms);
    const std::vector<curve::Gt> gs = curve::final_exp_batch(*lanes, fs);
    ASSERT_EQ(fs.size(), n);
    for (size_t i = 0; i < n; ++i) {
      const std::string what =
          "set=" + std::to_string(int(set)) + " i=" + std::to_string(i);
      expect_same(fs[i], want[i], what + " miller");
      // A batch of one runs the scalar final exponentiation; == compares
      // the raw limbs, which an unreduced lane output would not match.
      const curve::Gt g =
          curve::final_exp_batch(*lanes, std::span(&fs[i], 1))[0];
      EXPECT_TRUE(gs[i] == g) << what << " gt";
    }
  }
}

TEST(LaneKernels, KernelNameFollowsForcedGeneric) {
  {
    ForceGenericGuard guard(false);
    EXPECT_STREQ(mp::lane_kernel_name(),
                 host_has_lanes() ? "avx512ifma" : "none");
  }
  ForceGenericGuard guard(true);
  EXPECT_STREQ(mp::lane_kernel_name(), "none");
  const mp::MontCtx ctx(curve::params(curve::ParamSet::kTest).p);
  EXPECT_EQ(ctx.lanes(), nullptr);
}

}  // namespace
}  // namespace hcpp
