#!/usr/bin/env bash
# Runs the pairing and protocol benchmark suites and drops their
# google-benchmark JSON reports at the repo root:
#   BENCH_pairing.json    — bench_computation (pairing + primitive costs)
#   BENCH_protocols.json  — bench_protocols (end-to-end protocol runs)
#   BENCH_metrics.json    — bench_protocols metrics-registry snapshot
#                           (crypto-op counters, transport stats, latency
#                           histograms with p50/p95/p99)
#   BENCH_throughput.json — bench_throughput (ops/sec for the parallel SSE
#                           index build / collection AEAD / batch IBS verify
#                           paths at 1/2/4/8 threads, plus one ChaCha20 row
#                           per kernel variant; context records
#                           hardware_concurrency so flat scaling on small
#                           containers is self-explanatory)
#   BENCH_ledger.json     — bench_ledger (audit-ledger appends/s with and
#                           without the WAL, chain verify, recovery replay,
#                           Merkle proofs/s; proof-verify latency p50/p95/p99
#                           sourced from the obs histogram)
#   BENCH_load.json       — bench_load (closed-loop store put/update/get over
#                           the sharded persistent account store, open-loop
#                           store/update/retrieve/family-emergency mix with
#                           the reads sent through the protocol clients to a
#                           sharded SServerGroup: p50/p95/p99 per QPS
#                           point from the obs load.*_ns histograms, plus
#                           the post-run differential-oracle verdict).
#                           Population size
#                           defaults to 100000 accounts; BENCH_LOAD_ACCOUNTS
#                           shrinks it for smoke runs.
#   BENCH_sse.json        — bench_sse (index build serial + pooled, SEARCH,
#                           trapdoors, and the DESIGN.md §12 dynamic update
#                           layer: per-file ADD/DELETE vs full rebuild at
#                           1k/10k files, SEARCH with a pending update log,
#                           compaction fold — the E11 numbers)
#   BENCH_mhi.json        — bench_mhi (DESIGN.md §13 streaming MHI: cold vs
#                           cached PEKS tag encryption, scalar vs batched
#                           PEKS test at 64 candidate tags — the two
#                           amortization ratios land in a "speedups" block —
#                           plus end-to-end window encode/ingest rates and
#                           the standing-query match latency p50/p95/p99
#                           from the mhi.ingest_ns obs histogram)
#
# Usage: tools/run_benchmarks.sh [build-dir]
# Always configures the bench build directory with an explicit optimized
# CMAKE_BUILD_TYPE (BENCH_BUILD_TYPE, default Release; RelWithDebInfo also
# accepted) so numbers are never taken from an accidental debug build, and
# defaults to a dedicated build-bench/ directory so it cannot repurpose a
# developer's test build tree. Repetitions can be raised with BENCH_REPS
# (default 1). After the run, the google-benchmark JSON context is checked:
# a report whose "library_build_type" is "debug" is deleted and the script
# aborts. (The prebuilt libbenchmark.so reports its own build type, not the
# binary's, so bench_computation substitutes a reporter that derives the
# field from the bench binary's NDEBUG — the thing actually measured.)
# Fails fast: a missing binary after the build, or a bench exiting non-zero,
# aborts the whole run rather than leaving stale report files behind.
# Every report's context block additionally records the host's CPU feature
# flags and the kernel variants the runtime dispatcher selected
# (mont_kernel: generic|mulx-adx, chacha_kernel: generic|avx2), via the
# hcpp_cpuinfo helper, so numbers are attributable to a kernel.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"
reps="${BENCH_REPS:-1}"
build_type="${BENCH_BUILD_TYPE:-Release}"

case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "error: BENCH_BUILD_TYPE must be Release or RelWithDebInfo," \
         "got '$build_type'" >&2
    exit 1
    ;;
esac

cmake -B "$build_dir" -S "$repo_root" -DHCPP_BENCH=ON \
  -DCMAKE_BUILD_TYPE="$build_type"
cmake --build "$build_dir" -j "$(nproc)" \
  --target bench_computation bench_protocols bench_throughput bench_ledger \
           bench_load bench_sse bench_mhi hcpp_cpuinfo

for bin in bench_computation bench_protocols bench_throughput bench_ledger \
           bench_load bench_sse bench_mhi; do
  if [[ ! -x "$build_dir/bench/$bin" ]]; then
    echo "error: $build_dir/bench/$bin still missing after the build" \
         "(HCPP_BENCH=OFF in the cache?)" >&2
    exit 1
  fi
done

# CPU feature flags and the kernel variants the dispatcher selected on this
# host (mont: generic|mulx-adx, chacha: generic|avx2, sha256: generic|sha-ni).
# Injected into every report's context below so numbers are attributable to
# a kernel.
cpuinfo_json="$("$build_dir/tools/hcpp_cpuinfo")"
echo "cpuinfo: $cpuinfo_json"

# Adds {"cpu_features": {...}, "mont_kernel": ..., "chacha_kernel": ...,
# "sha256_kernel": ...} to the "context" object of the report named in $1.
inject_cpuinfo() {
  python3 - "$1" "$cpuinfo_json" <<'EOF'
import json, sys
path, info = sys.argv[1], json.loads(sys.argv[2])
with open(path) as f:
    report = json.load(f)
ctx = report.setdefault("context", {})
ctx["cpu_features"] = {k: info[k] for k in ("bmi2", "adx", "avx2", "sha")}
ctx["mont_kernel"] = info["mont_kernel"]
ctx["chacha_kernel"] = info["chacha_kernel"]
ctx["sha256_kernel"] = info["sha256_kernel"]
with open(path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
EOF
}

# bench_computation is a google-benchmark binary: native JSON report.
"$build_dir/bench/bench_computation" \
  --benchmark_repetitions="$reps" \
  --benchmark_out_format=json \
  --benchmark_out="$repo_root/BENCH_pairing.json" >/dev/null

# Refuse to publish numbers measured from a debug build.
python3 - "$repo_root/BENCH_pairing.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
build = report.get("context", {}).get("library_build_type", "missing")
if build != "release":
    import os
    os.unlink(path)
    sys.exit(f"error: benchmark report says library_build_type={build!r}; "
             "refusing to keep numbers from a non-optimized build")
EOF
inject_cpuinfo "$repo_root/BENCH_pairing.json"
echo "wrote $repo_root/BENCH_pairing.json"

# bench_protocols is a table-printing harness (messages/bytes per protocol
# phase); convert its rows to the same {"benchmarks": [...]} shape. The same
# run dumps its metrics-registry snapshot as BENCH_metrics.json.
"$build_dir/bench/bench_protocols" \
  --metrics-out="$repo_root/BENCH_metrics.json" | python3 -c '
import json, re, sys
rows = []
for line in sys.stdin:
    m = re.match(r"(.{42}) +(\d+) +(\d+)   (.*)", line.rstrip("\n"))
    if m:
        rows.append({"name": m.group(1).strip(),
                     "messages": int(m.group(2)),
                     "bytes": int(m.group(3)),
                     "expectation": m.group(4)})
json.dump({"context": {"source": "bench_protocols"}, "benchmarks": rows},
          sys.stdout, indent=2)
' > "$repo_root/BENCH_protocols.json"
inject_cpuinfo "$repo_root/BENCH_protocols.json"
echo "wrote $repo_root/BENCH_protocols.json"

if [[ ! -s "$repo_root/BENCH_metrics.json" ]]; then
  echo "error: bench_protocols did not produce BENCH_metrics.json" >&2
  exit 1
fi
inject_cpuinfo "$repo_root/BENCH_metrics.json"
echo "wrote $repo_root/BENCH_metrics.json"

# bench_throughput writes its own JSON; same debug-build guard as above
# (its reporter derives library_build_type from the binary's NDEBUG).
"$build_dir/bench/bench_throughput" \
  --json-out="$repo_root/BENCH_throughput.json" >/dev/null
python3 - "$repo_root/BENCH_throughput.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
build = report.get("context", {}).get("library_build_type", "missing")
if build != "release":
    import os
    os.unlink(path)
    sys.exit(f"error: throughput report says library_build_type={build!r}; "
             "refusing to keep numbers from a non-optimized build")
EOF
inject_cpuinfo "$repo_root/BENCH_throughput.json"
echo "wrote $repo_root/BENCH_throughput.json"

# bench_ledger writes its own JSON; same debug-build guard.
"$build_dir/bench/bench_ledger" \
  --json-out="$repo_root/BENCH_ledger.json" >/dev/null
python3 - "$repo_root/BENCH_ledger.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
build = report.get("context", {}).get("library_build_type", "missing")
if build != "release":
    import os
    os.unlink(path)
    sys.exit(f"error: ledger report says library_build_type={build!r}; "
             "refusing to keep numbers from a non-optimized build")
if report.get("proof_verify_latency_ns", {}).get("count", 0) == 0:
    import os
    os.unlink(path)
    sys.exit("error: ledger report has no proof-verify latency samples; "
             "was the obs registry attached?")
EOF
inject_cpuinfo "$repo_root/BENCH_ledger.json"
echo "wrote $repo_root/BENCH_ledger.json"

# bench_load writes its own JSON; same debug-build guard, plus the
# differential-oracle verdict: a run whose store diverged from the oracle
# map exits non-zero and its report is refused.
load_accounts="${BENCH_LOAD_ACCOUNTS:-100000}"
"$build_dir/bench/bench_load" --accounts="$load_accounts" \
  --json-out="$repo_root/BENCH_load.json"
python3 - "$repo_root/BENCH_load.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
build = report.get("context", {}).get("library_build_type", "missing")
if build != "release":
    import os
    os.unlink(path)
    sys.exit(f"error: load report says library_build_type={build!r}; "
             "refusing to keep numbers from a non-optimized build")
if not report.get("oracle", {}).get("pass", False):
    import os
    os.unlink(path)
    sys.exit("error: load report's differential oracle failed; the store "
             "diverged from the expected contents")
EOF
inject_cpuinfo "$repo_root/BENCH_load.json"
echo "wrote $repo_root/BENCH_load.json"

# bench_sse is a google-benchmark binary with the same honest reporter as
# bench_computation (library_build_type derived from the binary's NDEBUG).
# BENCH_SSE_FILTER narrows the run for smoke jobs.
sse_filter="${BENCH_SSE_FILTER:-}"
"$build_dir/bench/bench_sse" \
  ${sse_filter:+--benchmark_filter="$sse_filter"} \
  --benchmark_repetitions="$reps" \
  --benchmark_out_format=json \
  --benchmark_out="$repo_root/BENCH_sse.json" >/dev/null
python3 - "$repo_root/BENCH_sse.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
build = report.get("context", {}).get("library_build_type", "missing")
if build != "release":
    import os
    os.unlink(path)
    sys.exit(f"error: sse report says library_build_type={build!r}; "
             "refusing to keep numbers from a non-optimized build")
EOF
inject_cpuinfo "$repo_root/BENCH_sse.json"
echo "wrote $repo_root/BENCH_sse.json"

# bench_mhi writes its own JSON; same debug-build guard. It exits non-zero
# (and writes nothing) if the batched PEKS test diverges from the scalar
# oracle, so a present report implies the fast path matched bit-for-bit.
"$build_dir/bench/bench_mhi" \
  --json-out="$repo_root/BENCH_mhi.json"
python3 - "$repo_root/BENCH_mhi.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
build = report.get("context", {}).get("library_build_type", "missing")
if build != "release":
    import os
    os.unlink(path)
    sys.exit(f"error: mhi report says library_build_type={build!r}; "
             "refusing to keep numbers from a non-optimized build")
if report.get("ingest_latency_ns", {}).get("count", 0) == 0:
    import os
    os.unlink(path)
    sys.exit("error: mhi report has no ingest latency samples; "
             "was the obs registry attached?")
EOF
inject_cpuinfo "$repo_root/BENCH_mhi.json"
echo "wrote $repo_root/BENCH_mhi.json"
