// E6c (§VI.B): the cost of the stronger access-pattern countermeasure —
// square-root ORAM per-access latency and bandwidth overhead versus a
// direct (pattern-leaking) fetch, across store sizes. Quantifies the
// "lower efficiency" the paper trades against keyword ambiguity.
#include <benchmark/benchmark.h>

#include "src/cipher/drbg.h"
#include "study/oram/oram.h"

namespace {

using namespace hcpp;

std::vector<Bytes> blocks_of(size_t n, size_t size) {
  std::vector<Bytes> blocks(n);
  for (size_t i = 0; i < n; ++i) {
    blocks[i].assign(size, static_cast<uint8_t>(i));
  }
  return blocks;
}

// Bytes per access over `epochs` whole epochs — each a reshuffle and the
// ⌈√n⌉ accesses it serves — on a store of its own. The timed loop's
// iteration count is the framework's choice and would cut an epoch
// anywhere, amortizing the reshuffles differently from run to run.
double epoch_bytes_per_access(size_t n, size_t epochs) {
  cipher::Drbg rng(to_bytes("bench-oram-bandwidth"));
  oram::ObliviousStore store(blocks_of(n, 256), rng);
  const size_t k = store.epoch_length();
  size_t i = 0;
  // The first epoch runs on the constructor's layout, without a reshuffle.
  for (size_t a = 0; a < k; ++a) (void)store.read(i++ % n);
  const uint64_t before = store.trace().bytes_transferred;
  for (size_t a = 0; a < epochs * k; ++a) (void)store.read(i++ % n);
  return static_cast<double>(store.trace().bytes_transferred - before) /
         static_cast<double>(epochs * k);
}

void BM_OramRead(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  cipher::Drbg rng(to_bytes("bench-oram"));
  oram::ObliviousStore store(blocks_of(n, 256), rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.read(i++ % n));
  }
  // Amortized bandwidth per access, reshuffles included.
  const double bytes = epoch_bytes_per_access(n, 4);
  state.counters["bytes_per_access"] = bytes;
  state.counters["overhead_vs_direct"] = bytes / 256.0;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OramRead)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_DirectReadBaseline(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Bytes> plain = blocks_of(n, 256);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plain[i++ % n]);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DirectReadBaseline)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_OramReshuffle(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  cipher::Drbg rng(to_bytes("bench-oram-shuffle"));
  oram::ObliviousStore store(blocks_of(n, 256), rng);
  size_t i = 0;
  for (auto _ : state) {
    // Drive exactly one epoch per iteration: epoch_length accesses trigger
    // the reshuffle on the first access of the next epoch.
    for (size_t a = 0; a <= store.epoch_length(); ++a) {
      benchmark::DoNotOptimize(store.read(i++ % n));
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OramReshuffle)
    ->RangeMultiplier(4)
    ->Range(16, 256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
