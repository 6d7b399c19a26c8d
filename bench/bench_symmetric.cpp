// E7 (§V.B.3): the symmetric substrate the patient path runs on —
// ChaCha20 vs AES-128-CTR vs HMAC-SHA256 vs the composed AEAD, across
// message sizes. Supports the paper's claim that patient-side protocol
// work is "computationally-efficient symmetric key operations".
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "src/cipher/aead.h"
#include "src/cipher/aes.h"
#include "src/cipher/chacha20.h"
#include "src/cipher/drbg.h"
#include "src/hash/hmac.h"
#include "src/hash/sha256.h"
#include "src/mp/dispatch.h"

namespace {

using namespace hcpp;

/// Scoped HCPP_FORCE_GENERIC override for the kernel-ablation benchmarks.
class ForceGeneric {
 public:
  explicit ForceGeneric(bool on) {
    if (on) {
      ::setenv("HCPP_FORCE_GENERIC", "1", 1);
    } else {
      ::unsetenv("HCPP_FORCE_GENERIC");
    }
    mp::refresh_dispatch();
  }
  ~ForceGeneric() {
    ::unsetenv("HCPP_FORCE_GENERIC");
    mp::refresh_dispatch();
  }
};

void BM_ChaCha20(benchmark::State& state) {
  Bytes key(32, 1), nonce(12, 2);
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher::chacha20(key, nonce, 0, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

// Kernel-variant ablation for the dispatched block generator: Arg(0) == 0
// pins the scalar RFC 8439 core (HCPP_FORCE_GENERIC), Arg(0) == 1 lets the
// runtime dispatcher pick (4-way AVX2 where the CPU has it). The label
// records which kernel actually ran, so JSON rows stay comparable across
// hosts.
void BM_ChaCha20Block(benchmark::State& state) {
  ForceGeneric guard(state.range(0) == 0);
  std::array<uint8_t, cipher::kChaChaKeySize> key{};
  std::array<uint8_t, cipher::kChaChaNonceSize> nonce{};
  key.fill(1);
  nonce.fill(2);
  Bytes out(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    cipher::chacha20_keystream(key, nonce, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
  state.SetLabel(cipher::chacha20_kernel_name());
}
BENCHMARK(BM_ChaCha20Block)
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({0, 16384})
    ->Args({1, 16384})
    ->Args({0, 262144})
    ->Args({1, 262144});

void BM_Aes128Ctr(benchmark::State& state) {
  cipher::Aes128 aes(Bytes(16, 1));
  Bytes nonce(12, 2);
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes.ctr(nonce, 0, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128Ctr)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(hash::sha256_kernel_name());
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 1);
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(hash::sha256_kernel_name());
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

// A short message through a prebuilt key schedule: the shape of one round of
// the HMAC Feistel behind the SSE permutations (two compressions per call).
void BM_HmacKeyEval(benchmark::State& state) {
  hash::HmacKey key(Bytes(32, 1));
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.eval_digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(hash::sha256_kernel_name());
}
BENCHMARK(BM_HmacKeyEval)->Arg(9);

void BM_AeadSeal(benchmark::State& state) {
  cipher::Drbg rng(to_bytes("bench-aead"));
  Bytes key(32, 1);
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher::aead_encrypt(key, data, {}, rng));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_AeadOpen(benchmark::State& state) {
  cipher::Drbg rng(to_bytes("bench-aead-open"));
  Bytes key(32, 1);
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  Bytes box = cipher::aead_encrypt(key, data, {}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher::aead_decrypt(key, box, {}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_DrbgFill(benchmark::State& state) {
  cipher::Drbg rng(to_bytes("bench-drbg"));
  Bytes buf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DrbgFill)->Arg(1024)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
