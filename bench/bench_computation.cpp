// E2 (§V.B.3 computation analysis): primitive costs for both parameter
// sets. The paper cites ~20 ms for a Tate pairing at 1024-bit-RSA-equivalent
// security [31] and argues the patient path uses only symmetric-key
// operations while the P-device pays two pairings (with precomputation)
// during role-based authentication.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>

#include "bench/report.h"
#include "src/cipher/drbg.h"
#include "src/ibc/ibe.h"
#include "src/ibc/ibs.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"
#include "src/mp/prime.h"
#include "src/peks/peks.h"
#include "tests/oracle/oracle.h"

namespace {

using namespace hcpp;

const curve::CurveCtx& ctx_for(int64_t set) {
  return curve::params(set == 0 ? curve::ParamSet::kTest
                                : curve::ParamSet::kProduction);
}

const char* set_name(int64_t set) {
  return set == 0 ? "p256/q150(test)" : "p512/q160(production)";
}

// Limb-kernel microbenchmarks: the width-aware Montgomery multiply and the
// lazy-reduction F_{p^2} multiply it feeds. These track the engine speedup
// directly in BENCH_pairing.json instead of only through the end-to-end
// pairing numbers. A serial dependency (a <- a·b) measures latency and keeps
// the optimizer from hoisting the multiply.
void BM_MontMul(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-montmul"));
  const mp::MontCtx& mont = ctx.fp.mont;
  mp::U512 a = mont.to_mont(mp::random_below(ctx.p, rng));
  mp::U512 b = mont.to_mont(mp::random_below(ctx.p, rng));
  for (auto _ : state) {
    a = mont.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_MontMul)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// Kernel ablation for the CIOS multiply: the same serial-dependency loop
// through a context built with the runtime-dispatched kernel (MULX/ADX where
// the CPU has it) and through one pinned to the portable kernel by setting
// HCPP_FORCE_GENERIC around construction (MontCtx samples the dispatch state
// when built). The label records the kernel that actually ran so
// BENCH_pairing.json rows stay interpretable on non-ADX hosts, where both
// benches measure the generic path.
mp::MontCtx make_generic_ctx(const mp::U512& m) {
  const char* prev = std::getenv("HCPP_FORCE_GENERIC");
  std::string saved = prev != nullptr ? prev : "";
  ::setenv("HCPP_FORCE_GENERIC", "1", 1);
  mp::refresh_dispatch();
  mp::MontCtx ctx(m);
  if (prev != nullptr) {
    ::setenv("HCPP_FORCE_GENERIC", saved.c_str(), 1);
  } else {
    ::unsetenv("HCPP_FORCE_GENERIC");
  }
  mp::refresh_dispatch();
  return ctx;
}

void bench_mont_mul(benchmark::State& state, const curve::CurveCtx& ctx,
                    const mp::MontCtx& mont) {
  cipher::Drbg rng(to_bytes("bench-montmul-kernel"));
  mp::U512 a = mont.to_mont(mp::random_below(ctx.p, rng));
  mp::U512 b = mont.to_mont(mp::random_below(ctx.p, rng));
  for (auto _ : state) {
    a = mont.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(std::string(set_name(state.range(0))) + "/" +
                 mont.kernel_name());
}

void BM_MontMulMulx(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  mp::MontCtx mont(ctx.p);
  bench_mont_mul(state, ctx, mont);
}
BENCHMARK(BM_MontMulMulx)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// The MULX squaring (the interleaved triangle-and-REDC kernel when m < R/2)
// and the asm modular add/subtract behind every Fp +, − and neg, on the same
// serial dependency as BM_MontMulMulx.
void BM_MontSqr(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  const mp::MontCtx& mont = ctx.fp.mont;
  cipher::Drbg rng(to_bytes("bench-montsqr"));
  mp::U512 a = mont.to_mont(mp::random_below(ctx.p, rng));
  for (auto _ : state) {
    a = mont.sqr(a);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(std::string(set_name(state.range(0))) + "/" +
                 mont.kernel_name());
}
BENCHMARK(BM_MontSqr)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// One iteration is an add and a subtract: a <- (a + b) − c.
void BM_MontAddSub(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  const mp::MontCtx& mont = ctx.fp.mont;
  cipher::Drbg rng(to_bytes("bench-montaddsub"));
  mp::U512 a = mont.to_mont(mp::random_below(ctx.p, rng));
  const mp::U512 b = mont.to_mont(mp::random_below(ctx.p, rng));
  const mp::U512 c = mont.to_mont(mp::random_below(ctx.p, rng));
  for (auto _ : state) {
    a = mont.sub(mont.add(a, b), c);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(std::string(set_name(state.range(0))) + "/" +
                 mont.kernel_name());
}
BENCHMARK(BM_MontAddSub)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

void BM_MontMulGeneric(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  mp::MontCtx mont = make_generic_ctx(ctx.p);
  bench_mont_mul(state, ctx, mont);
}
BENCHMARK(BM_MontMulGeneric)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

// Field inversion: the divstep MontCtx::inv (with its one-product
// self-check) against the binary extended Euclid mp::inv_mod it replaced,
// which stays only as the test oracle. A serial dependency (a <- a^{-1}·b)
// keeps each inversion on a fresh operand.
void BM_MontInv(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-montinv"));
  const mp::MontCtx& mont = ctx.fp.mont;
  mp::U512 a = mont.to_mont(mp::random_below(ctx.p, rng));
  const mp::U512 b = mont.to_mont(mp::random_below(ctx.p, rng));
  for (auto _ : state) {
    a = mont.mul(mont.inv(a), b);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_MontInv)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_InvModReference(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-montinv"));
  const mp::MontCtx& mont = ctx.fp.mont;
  mp::U512 a = mont.to_mont(mp::random_below(ctx.p, rng));
  const mp::U512 b = mont.to_mont(mp::random_below(ctx.p, rng));
  for (auto _ : state) {
    a = mont.mul(mp::inv_mod(a, ctx.p), b);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_InvModReference)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_Fp2Mul(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-fp2mul"));
  field::Fp2 a(field::Fp(&ctx.fp, mp::random_below(ctx.p, rng)),
               field::Fp(&ctx.fp, mp::random_below(ctx.p, rng)));
  field::Fp2 b(field::Fp(&ctx.fp, mp::random_below(ctx.p, rng)),
               field::Fp(&ctx.fp, mp::random_below(ctx.p, rng)));
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_Fp2Mul)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

void BM_Fp2Sqr(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-fp2sqr"));
  field::Fp2 a(field::Fp(&ctx.fp, mp::random_below(ctx.p, rng)),
               field::Fp(&ctx.fp, mp::random_below(ctx.p, rng)));
  for (auto _ : state) {
    a = a.sqr();
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_Fp2Sqr)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

void BM_TatePairing(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-pairing"));
  curve::Point g = curve::generator(ctx);
  curve::Point p = curve::mul(ctx, g, curve::random_scalar(ctx, rng));
  curve::Point q = curve::mul(ctx, g, curve::random_scalar(ctx, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::pairing(ctx, p, q));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_TatePairing)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The retired affine Miller loop (one F_p inversion per step), kept as the
// correctness oracle — benchmarked to document what the projective rewrite
// buys.
void BM_TatePairingReference(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-pairing-ref"));
  curve::Point g = curve::generator(ctx);
  curve::Point p = curve::mul(ctx, g, curve::random_scalar(ctx, rng));
  curve::Point q = curve::mul(ctx, g, curve::random_scalar(ctx, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::pairing_reference(ctx, p, q));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_TatePairingReference)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Fixed first argument: the Miller-loop lines are cached once, each pairing
// then pays only line evaluations + squarings + final exponentiation.
void BM_TatePairingPrecomputed(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-pairing-pre"));
  curve::Point g = curve::generator(ctx);
  curve::Point p = curve::mul(ctx, g, curve::random_scalar(ctx, rng));
  curve::Point q = curve::mul(ctx, g, curve::random_scalar(ctx, rng));
  curve::PairingPrecomp pre(ctx, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.pairing_with(q));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_TatePairingPrecomputed)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Π of `terms` pairings under one squaring chain + final exponentiation —
// the HIBC decrypt/verify shape. Compare n·BM_TatePairing against one
// BM_PairingProduct/n.
void BM_PairingProduct(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-pairing-prod"));
  curve::Point g = curve::generator(ctx);
  std::vector<curve::PairingTerm> terms;
  for (int64_t i = 0; i < state.range(1); ++i) {
    terms.emplace_back(curve::mul(ctx, g, curve::random_scalar(ctx, rng)),
                       curve::mul(ctx, g, curve::random_scalar(ctx, rng)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::pairing_product(ctx, terms));
  }
  state.SetLabel(std::string(set_name(state.range(0))) + " terms=" +
                 std::to_string(state.range(1)));
}
BENCHMARK(BM_PairingProduct)
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

// The final exponentiation f^((p²−1)/q) of one Miller value, as every
// pairing ends: one inversion, then the Lucas ladder over the cofactor c.
field::Fp2 bench_miller_value(const curve::CurveCtx& ctx) {
  return curve::generator_precomp(ctx).miller_with(
      curve::hash_to_point(ctx, to_bytes("bench-final-exp")));
}

void BM_FinalExp(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  const field::Fp2 f = bench_miller_value(ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::final_exp_batch(ctx, std::span(&f, 1)));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_FinalExp)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Reference row for BM_FinalExp: the same value through the generic
// windowed Fp2::pow(c), as the final exponentiation ran before the ladder.
void BM_FinalExpPow(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  const field::Fp2 f = bench_miller_value(ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize((f.conj() * f.inv()).pow(ctx.cofactor));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_FinalExpPow)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ScalarMul(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-mul"));
  curve::Point g = curve::generator(ctx);
  mp::U512 k = curve::random_scalar(ctx, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::mul(ctx, g, k));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_ScalarMul)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ScalarMulFixedBase(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-fixedbase"));
  mp::U512 k = curve::random_scalar(ctx, rng);
  (void)curve::mul_generator(ctx, k);  // build the table outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::mul_generator(ctx, k));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_ScalarMulFixedBase)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// a·P + b·Q from the fixed-base tables of P and Q, as IbsSigner::sign runs
// it: eight width-5 wNAF chunk streams sharing one doubling chain.
void BM_Mul2Fixed(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-mul2-fixed"));
  const curve::FixedBaseTable tp(
      ctx, curve::mul_generator(ctx, curve::random_scalar(ctx, rng)));
  const curve::FixedBaseTable tq(
      ctx, curve::mul_generator(ctx, curve::random_scalar(ctx, rng)));
  const mp::U512 a = curve::random_scalar(ctx, rng);
  const mp::U512 b = curve::random_scalar(ctx, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::mul2_fixed(ctx, tp, a, tq, b));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_Mul2Fixed)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_HashToPoint(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        curve::hash_to_point(ctx, to_bytes("id-" + std::to_string(i++))));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_HashToPoint)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_IbeEncrypt(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-ibe"));
  ibc::Domain domain(ctx, rng);
  Bytes msg(256, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ibc::ibe_encrypt(domain.pub(), "p-device", msg, rng));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbeEncrypt)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_IbeDecrypt(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-ibe-dec"));
  ibc::Domain domain(ctx, rng);
  curve::Point priv = domain.extract("p-device");
  ibc::IbeCiphertext ct =
      ibc::ibe_encrypt(domain.pub(), "p-device", Bytes(256, 0x5a), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibc::ibe_decrypt(ctx, priv, ct));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbeDecrypt)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_IbsSign(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-ibs"));
  ibc::Domain domain(ctx, rng);
  curve::Point priv = domain.extract("dr-a");
  Bytes msg = to_bytes("emergency passcode request");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibc::ibs_sign(ctx, priv, "dr-a", msg, rng));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbsSign)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The same signature through a fixed-key ibc::IbsSigner: W from the two
// fixed-base tables built once, outside the timed loop.
void BM_IbsSignerSign(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-ibs"));
  ibc::Domain domain(ctx, rng);
  const ibc::IbsSigner signer(ctx, domain.extract("dr-a"), "dr-a");
  Bytes msg = to_bytes("emergency passcode request");
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign(msg, rng));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbsSignerSign)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_IbsVerify(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-ibs-v"));
  ibc::Domain domain(ctx, rng);
  Bytes msg = to_bytes("emergency passcode request");
  ibc::IbsSignature sig =
      ibc::ibs_sign(ctx, domain.extract("dr-a"), "dr-a", msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibc::ibs_verify(domain.pub(), "dr-a", msg, sig));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbsVerify)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PeksEncrypt(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-peks"));
  ibc::Domain domain(ctx, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        peks::peks_encrypt(domain.pub(), "role", "day:2011-04-12", rng));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_PeksEncrypt)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PeksTest(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-peks-t"));
  ibc::Domain domain(ctx, rng);
  peks::PeksCiphertext ct =
      peks::peks_encrypt(domain.pub(), "role", "kw", rng);
  peks::Trapdoor td =
      peks::peks_trapdoor(ctx, domain.extract("role"), "kw");
  for (auto _ : state) {
    benchmark::DoNotOptimize(peks::peks_test(ctx, ct, td));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_PeksTest)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Precomputation ablation (§V.B.3: "IBE and PEKS ... can be pre-computed
// (offline). ... With pre-computation, P-device computes two pairings"):
// hoisting ê(Q_id, Ppub) removes one pairing from each operation.
void BM_IbeEncryptPrecomputed(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-ibe-pre"));
  ibc::Domain domain(ctx, rng);
  ibc::IbePrecomputed pre(domain.pub(), "p-device");
  Bytes msg(256, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.encrypt(msg, rng));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbeEncryptPrecomputed)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// CCA (FullIdent/FO) vs CPA (BasicIdent) overhead.
void BM_IbeCcaEncrypt(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-cca"));
  ibc::Domain domain(ctx, rng);
  Bytes msg(256, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibc::ibe_encrypt_cca(domain.pub(), "id", msg,
                                                  rng));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbeCcaEncrypt)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_IbeCcaDecrypt(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-cca-dec"));
  ibc::Domain domain(ctx, rng);
  curve::Point priv = domain.extract("id");
  ibc::IbeCcaCiphertext ct =
      ibc::ibe_encrypt_cca(domain.pub(), "id", Bytes(256, 0x5a), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibc::ibe_decrypt_cca(ctx, domain.pub(), priv,
                                                  ct));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbeCcaDecrypt)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Batch decryption under one role key: the IbeDecryptor hoists the private
// key's Miller lines out of every pairing (the MHI retrieval loop).
void BM_IbeDecryptFixedKey(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-ibe-dec-fixed"));
  ibc::Domain domain(ctx, rng);
  ibc::IbeCiphertext ct =
      ibc::ibe_encrypt(domain.pub(), "p-device", Bytes(256, 0x5a), rng);
  ibc::IbeDecryptor dec(ctx, domain.extract("p-device"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decrypt(ct));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_IbeDecryptFixedKey)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The symmetric patient path (§V.B.3: "only computationally-efficient
// symmetric key operations") — microsecond scale, for contrast.
void BM_SharedKeyDerivation(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-shared"));
  ibc::Domain domain(ctx, rng);
  curve::Point gamma = domain.extract("patient");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibc::shared_key_with_id(ctx, gamma, "s-server"));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_SharedKeyDerivation)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Server-side ν/ϖ/ρ derivation with a fixed private key (SharedKeyDeriver):
// the per-request cost the S- and A-servers actually pay.
void BM_SharedKeyDerivationFixedKey(benchmark::State& state) {
  const curve::CurveCtx& ctx = ctx_for(state.range(0));
  cipher::Drbg rng(to_bytes("bench-shared-fixed"));
  ibc::Domain domain(ctx, rng);
  ibc::SharedKeyDeriver deriver(ctx, domain.extract("patient"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(deriver.with_id("s-server"));
  }
  state.SetLabel(set_name(state.range(0)));
}
BENCHMARK(BM_SharedKeyDerivationFixedKey)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return hcpp::bench::run_google_benchmarks(argc, argv, "bench_computation");
}
