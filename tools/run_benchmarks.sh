#!/usr/bin/env bash
# Builds the bench binaries and runs them; each writes its own report at the
# repo root through bench/report.h:
#   BENCH_pairing.json    — bench_computation: pairing and primitive costs (E2)
#   BENCH_protocols.json  — bench_protocols: messages and bytes per protocol
#                           phase (E3)
#   BENCH_metrics.json    — bench_protocols: the same run's metrics-registry
#                           snapshot, exactly as obs::to_json writes it
#   BENCH_throughput.json — bench_throughput: ops/s at 1/2/4/8 threads, one
#                           ChaCha20 row per kernel variant (E8)
#   BENCH_ledger.json     — bench_ledger: ledger appends, verify, recovery,
#                           proofs and proof-verify latency (E9)
#   BENCH_load.json       — bench_load: closed/open-loop store and protocol
#                           load with the differential-oracle verdict (E10)
#   BENCH_sse.json        — bench_sse: index build, SEARCH, trapdoors and the
#                           dynamic update layer (E1, E4, E11)
#   BENCH_mhi.json        — bench_mhi: cold vs cached PEKS encryption and
#                           scalar vs batched PEKS tests, medians and spread
#                           over 7 alternating rounds (E12)
#
# Usage: tools/run_benchmarks.sh [build-dir]
# Configures the build directory (default build-bench/, so a developer's
# test tree is never repurposed) with an explicit optimized build type:
# BENCH_BUILD_TYPE, Release (default) or RelWithDebInfo. BENCH_REPS sets the
# google-benchmark repetitions (default 1), BENCH_LOAD_ACCOUNTS the load
# population (default 100000) and BENCH_SSE_FILTER narrows bench_sse.
#
# The benches gate their own reports: each refuses to write one from a build
# without NDEBUG, and bench_ledger (no proof-verify samples), bench_load
# (oracle failed) and bench_mhi (batched verdicts differ from scalar) exit
# non-zero without writing. Every report is removed before the first bench
# runs, so a run that stops early leaves the rest absent, not stale.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"
reps="${BENCH_REPS:-1}"
build_type="${BENCH_BUILD_TYPE:-Release}"
load_accounts="${BENCH_LOAD_ACCOUNTS:-100000}"
sse_filter="${BENCH_SSE_FILTER:-}"

case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "error: BENCH_BUILD_TYPE must be Release or RelWithDebInfo," \
         "got '$build_type'" >&2
    exit 1
    ;;
esac

benches=(bench_computation bench_protocols bench_throughput bench_ledger
         bench_load bench_sse bench_mhi)

# hcpp_cpuinfo is not run here; it is built so the kernel variants can be
# printed next to the reports.
cmake -B "$build_dir" -S "$repo_root" -DHCPP_BENCH=ON \
  -DCMAKE_BUILD_TYPE="$build_type"
cmake --build "$build_dir" -j "$(nproc)" --target "${benches[@]}" hcpp_cpuinfo

for bin in "${benches[@]}"; do
  if [[ ! -x "$build_dir/bench/$bin" ]]; then
    echo "error: $build_dir/bench/$bin still missing after the build" \
         "(HCPP_BENCH=OFF in the cache?)" >&2
    exit 1
  fi
done

bin="$build_dir/bench"
out="$repo_root"
rm -f "$out"/BENCH_{pairing,protocols,metrics,throughput,ledger,load,sse,mhi}.json

"$bin/bench_computation" --benchmark_repetitions="$reps" \
  --benchmark_out_format=json --benchmark_out="$out/BENCH_pairing.json" \
  >/dev/null
"$bin/bench_protocols" --json-out="$out/BENCH_protocols.json" \
  --metrics-out="$out/BENCH_metrics.json"
"$bin/bench_throughput" --json-out="$out/BENCH_throughput.json"
"$bin/bench_ledger" --json-out="$out/BENCH_ledger.json"
"$bin/bench_load" --accounts="$load_accounts" \
  --json-out="$out/BENCH_load.json"
"$bin/bench_sse" ${sse_filter:+--benchmark_filter="$sse_filter"} \
  --benchmark_repetitions="$reps" \
  --benchmark_out_format=json --benchmark_out="$out/BENCH_sse.json" \
  >/dev/null
"$bin/bench_mhi" --json-out="$out/BENCH_mhi.json"
