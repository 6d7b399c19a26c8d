// E1 (Fig. 2) + E4 (§V.B.1/3): secure-index construction cost vs. collection
// size, SEARCH cost independence from N (the O(1) table hit of [30]), and
// trapdoor generation cost. E11 (DESIGN.md §12): the dynamic update layer —
// per-file ADD/DELETE cost vs the full rebuild it replaces, at 1k and 10k
// files, plus SEARCH over a static index carrying an update log.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/report.h"
#include "src/cipher/drbg.h"
#include "src/core/record.h"
#include "src/par/pool.h"
#include "src/sse/adaptive.h"
#include "src/sse/dynamic.h"
#include "src/sse/sse.h"

namespace {

using namespace hcpp;

std::vector<sse::PlainFile> files_of(size_t n) {
  cipher::Drbg rng(to_bytes("bench-sse-files"));
  return core::generate_phi_collection(n, rng);
}

void BM_BuildIndex(benchmark::State& state) {
  auto files = files_of(static_cast<size_t>(state.range(0)));
  cipher::Drbg rng(to_bytes("bench-sse-build"));
  sse::Keys keys = sse::Keys::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::build_index(files, keys, rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildIndex)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

void BM_EncryptCollection(benchmark::State& state) {
  auto files = files_of(static_cast<size_t>(state.range(0)));
  cipher::Drbg rng(to_bytes("bench-sse-enc"));
  sse::Keys keys = sse::Keys::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::encrypt_collection(files, keys, rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EncryptCollection)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

// §V.B.3: the table hit is O(1); the walk is O(|result|). With the keyword
// vocabulary fixed, result-list length is ~N/|vocab|, so we benchmark both a
// fixed-size list (constant work regardless of N) and the raw table miss.
void BM_SearchFixedResultList(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto files = files_of(n);
  // Plant one keyword appearing in exactly 4 files regardless of N.
  for (size_t i = 0; i < 4; ++i) files[i * (n / 4)].keywords.push_back("probe");
  cipher::Drbg rng(to_bytes("bench-sse-search"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng);
  sse::Trapdoor td = sse::make_trapdoor(keys, "probe");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::search(si, td));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SearchFixedResultList)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::o1)
    ->Unit(benchmark::kMicrosecond);

void BM_SearchMiss(benchmark::State& state) {
  auto files = files_of(static_cast<size_t>(state.range(0)));
  cipher::Drbg rng(to_bytes("bench-sse-miss"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng);
  sse::Trapdoor td = sse::make_trapdoor(keys, "absent-keyword");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::search(si, td));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SearchMiss)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::o1)
    ->Unit(benchmark::kMicrosecond);

void BM_MakeTrapdoor(benchmark::State& state) {
  cipher::Drbg rng(to_bytes("bench-sse-td"));
  sse::Keys keys = sse::Keys::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::make_trapdoor(keys, "category:allergy"));
  }
}
BENCHMARK(BM_MakeTrapdoor)->Unit(benchmark::kMicrosecond);

void BM_WrapUnwrapTrapdoor(benchmark::State& state) {
  cipher::Drbg rng(to_bytes("bench-sse-wrap"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::Trapdoor td = sse::make_trapdoor(keys, "kw");
  for (auto _ : state) {
    Bytes wrapped = sse::wrap_trapdoor(keys.d, td);
    benchmark::DoNotOptimize(sse::unwrap_trapdoor(keys.d, wrapped));
  }
}
BENCHMARK(BM_WrapUnwrapTrapdoor)->Unit(benchmark::kMicrosecond);

// ---- Adaptive (SSE-2-style) comparison — the §II.B drop-in ------------------

void BM_AdaptiveBuildIndex(benchmark::State& state) {
  auto files = files_of(static_cast<size_t>(state.range(0)));
  cipher::Drbg rng(to_bytes("bench-adp-build"));
  Bytes key = rng.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::adaptive::build_index(files, key, rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AdaptiveBuildIndex)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

void BM_AdaptiveSearch(benchmark::State& state) {
  auto files = files_of(static_cast<size_t>(state.range(0)));
  cipher::Drbg rng(to_bytes("bench-adp-search"));
  Bytes key = rng.bytes(32);
  sse::adaptive::AdaptiveIndex index =
      sse::adaptive::build_index(files, key, rng);
  sse::adaptive::AdaptiveTrapdoor td = sse::adaptive::make_trapdoor(
      key, files[0].keywords[0], index.bound);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::adaptive::search(index, td));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AdaptiveSearch)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

// Trapdoor-size trade (constant for SSE-1, O(bound) for adaptive) reported
// as counters.
void BM_TrapdoorSizes(benchmark::State& state) {
  auto files = files_of(256);
  cipher::Drbg rng(to_bytes("bench-td-sizes"));
  sse::Keys keys = sse::Keys::generate(rng);
  Bytes adp_key = rng.bytes(32);
  sse::adaptive::AdaptiveIndex index =
      sse::adaptive::build_index(files, adp_key, rng);
  size_t sse1 = 0, sse2 = 0;
  for (auto _ : state) {
    sse1 = sse::make_trapdoor(keys, "kw").to_bytes().size();
    sse2 = sse::adaptive::make_trapdoor(adp_key, "kw", index.bound)
               .to_bytes()
               .size();
    benchmark::DoNotOptimize(sse1 + sse2);
  }
  state.counters["sse1_trapdoor_bytes"] = static_cast<double>(sse1);
  state.counters["adaptive_trapdoor_bytes"] = static_cast<double>(sse2);
  state.counters["adaptive_bound"] = static_cast<double>(index.bound);
}
BENCHMARK(BM_TrapdoorSizes)->Unit(benchmark::kMicrosecond);

// ---- Parallel build (PR 5 pool path) ----------------------------------------

// The pooled build schedule: keyword lists, array fill and the permutation
// sharded across workers. Arg0 = files, Arg1 = pool width.
void BM_BuildIndexPooled(benchmark::State& state) {
  auto files = files_of(static_cast<size_t>(state.range(0)));
  cipher::Drbg rng(to_bytes("bench-sse-build-pool"));
  sse::Keys keys = sse::Keys::generate(rng);
  par::ThreadPool pool(static_cast<size_t>(state.range(1)), "bench-build");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::build_index(files, keys, rng, 1.25, &pool));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildIndexPooled)
    ->ArgsProduct({{256, 1024, 4096}, {2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// ---- Dynamic update layer (DESIGN.md §12, E11) ------------------------------

// What the update layer replaces: a whole-account index rebuild on every
// PHI change. Grows with the account (linearly in postings, stepwise through
// the φ cycle-walking domain roundings — see EXPERIMENTS.md E11), reaching
// ~17x across the 2k → 20k decade.
void BM_FullRebuild(benchmark::State& state) {
  auto files = files_of(static_cast<size_t>(state.range(0)));
  cipher::Drbg rng(to_bytes("bench-dyn-rebuild"));
  sse::Keys keys = sse::Keys::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::build_index(files, keys, rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullRebuild)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(10000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// One-file ADD against an account of N files: two forward-private log
// inserts (client PRF chain + server map insert). Must be flat in N — the
// packed index is never touched.
void BM_UpdateAddPerFile(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto files = files_of(n);
  cipher::Drbg rng(to_bytes("bench-dyn-add"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng);
  benchmark::DoNotOptimize(&si);  // the account the update lands beside
  sse::Updater up(keys);
  sse::UpdateLog log;
  sse::FileId next = n + 1;
  for (auto _ : state) {
    // Two keywords per file, matching the retrieval benches' shape.
    sse::LogInsert a = up.add("category:update-probe", next);
    sse::LogInsert b = up.add("category:update-probe-2", next);
    log.entries[a.label] = std::move(a.entry);
    log.entries[b.label] = std::move(b.entry);
    ++next;
  }
  state.counters["log_entries"] = static_cast<double>(log.entries.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UpdateAddPerFile)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_UpdateDeletePerFile(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto files = files_of(n);
  cipher::Drbg rng(to_bytes("bench-dyn-del"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng);
  benchmark::DoNotOptimize(&si);
  sse::Updater up(keys);
  sse::UpdateLog log;
  sse::FileId victim = 1;
  for (auto _ : state) {
    sse::LogInsert a = up.del("category:update-probe", victim);
    sse::LogInsert b = up.del("category:update-probe-2", victim);
    log.entries[a.label] = std::move(a.entry);
    log.entries[b.label] = std::move(b.entry);
    victim = victim % n + 1;
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UpdateDeletePerFile)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// SEARCH over static index + update log: the chain walk adds O(log depth)
// on top of the O(1) table hit. Arg0 = files, Arg1 = pending updates on the
// probed keyword.
void BM_SearchWithUpdateLog(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t depth = static_cast<size_t>(state.range(1));
  auto files = files_of(n);
  for (size_t i = 0; i < 4; ++i) files[i * (n / 4)].keywords.push_back("probe");
  cipher::Drbg rng(to_bytes("bench-dyn-search"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng);
  sse::Updater up(keys);
  sse::UpdateLog log;
  for (size_t i = 0; i < depth; ++i) {
    sse::LogInsert ins = up.add("probe", n + 1 + i);
    log.entries[ins.label] = std::move(ins.entry);
  }
  sse::DynTrapdoor td = up.trapdoor("probe");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sse::search_dynamic(si, log, td));
  }
}
BENCHMARK(BM_SearchWithUpdateLog)
    ->ArgsProduct({{1024, 4096}, {0, 8, 64}})
    ->Unit(benchmark::kMicrosecond);

// Compaction: fold the log into a freshly built packed index. Amortizes the
// rebuild over every update since the last fold.
void BM_CompactFold(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto files = files_of(n);
  cipher::Drbg rng(to_bytes("bench-dyn-compact"));
  sse::Keys keys = sse::Keys::generate(rng);
  sse::Updater up(keys);
  for (auto _ : state) {
    state.PauseTiming();
    sse::UpdateLog log;
    for (size_t i = 0; i < 64; ++i) {
      sse::LogInsert ins = up.add("category:churn", n + 1 + i);
      log.entries[ins.label] = std::move(ins.entry);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(sse::build_index(files, keys, rng));
    log.entries.clear();
    up.reset_for_compaction();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompactFold)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return hcpp::bench::run_google_benchmarks(argc, argv, "bench_sse");
}
