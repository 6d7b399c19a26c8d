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

void BM_OramRead(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  cipher::Drbg rng(to_bytes("bench-oram"));
  oram::ObliviousStore store(blocks_of(n, 256), rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.read(i++ % n));
  }
  // Amortized bandwidth per access, including reshuffles.
  state.counters["bytes_per_access"] =
      static_cast<double>(store.trace().bytes_transferred) /
      static_cast<double>(store.trace().main_slots.size());
  state.counters["overhead_vs_direct"] =
      static_cast<double>(store.trace().bytes_transferred) /
      (256.0 * static_cast<double>(store.trace().main_slots.size()));
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
