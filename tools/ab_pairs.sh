#!/usr/bin/env bash
# A/B comparison of two revisions on one perfbench workload, in alternating
# pairs.
#
#   tools/ab_pairs.sh <parent-rev> <change-rev> <workload> <seed> <pairs>
#
# Each revision is exported (git archive) into its own throwaway directory
# under ${TMPDIR:-/tmp}, outside the repository, and perfbench/run.py builds
# and runs it there, so each side measures its own committed sources. Pair i
# runs both sides once on the same workload and seed, the parent first in
# even pairs and the change first in odd ones. For every end-to-end metric
# of BENCHMARK.json (the parent's) the script prints both medians, the ratio
# change/parent, how many pairs the change won, the interquartile range of
# the parent's runs, and a verdict:
#   worse  the change's median is worse than the parent's by more than the
#          metric's bound;
#   gain   the change won at least 9 of every 10 pairs and its median is
#          better by more than the parent's IQR;
#   -      neither.
# Both sides run for run.py's default length. The exported trees and their
# builds are removed on exit; the raw per-class p50s of each run
# (perfbench's stderr report) are kept in the throwaway directory's
# ab_logs/, and the summary names it.
#
# Nothing in the repository is modified. An A/A run (one revision on both
# sides) should print no verdict.
set -euo pipefail

if [[ $# -ne 5 ]]; then
  echo "usage: $0 <parent-rev> <change-rev> <workload> <seed> <pairs>" >&2
  exit 2
fi
parent_rev=$1 change_rev=$2 workload=$3 seed=$4 pairs=$5
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)

work=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
mkdir -p "$work/ab_logs"
trap 'rm -rf "$work/parent" "$work/change"' EXIT
for side in parent change; do
  rev_var=${side}_rev
  git -C "$repo" rev-parse --verify --quiet "${!rev_var}^{commit}" >/dev/null ||
    { echo "error: not a revision: ${!rev_var}" >&2; exit 2; }
  mkdir "$work/$side"
  git -C "$repo" archive "${!rev_var}" | tar -x -C "$work/$side"
done

# One run of one side; appends its result line to $work/<side>.jsonl.
run() {
  local side=$1 i=$2 out
  out=$(python3 "$work/$side/perfbench/run.py" --workload "$workload" \
          --seed "$seed" --trace 0 \
          2>"$work/ab_logs/$side.$i.log") ||
    { echo "error: $side run $i failed; see $work/ab_logs/$side.$i.log" >&2
      exit 1; }
  tail -n 1 <<<"$out" >>"$work/$side.jsonl"
}

for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then run parent "$i"; run change "$i"
  else run change "$i"; run parent "$i"; fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$work" "$parent_rev" "$change_rev" "$workload" "$seed" <<'EOF'
import json, re, statistics, sys
from pathlib import Path

work, parent_rev, change_rev, workload, seed = sys.argv[1:]
work = Path(work)
spec = json.loads((work / "parent" / "BENCHMARK.json").read_text())
runs = {side: [json.loads(l) for l in (work / f"{side}.jsonl").read_text().splitlines()]
        for side in ("parent", "change")}
n = len(runs["parent"])

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload} seed {seed}: {parent_rev} (parent) vs {change_rev} (change), "
      f"{n} pairs")
for side in ("parent", "change"):
    ok = all(r["correct"] for r in runs[side])
    print(f"  {side}: correct={str(ok).lower()} "
          f"failed={sum(r['failed'] for r in runs[side])}")
print(f"{'metric':<14}{'parent':>10}{'change':>10}{'ratio':>8}{'won':>7}"
      f"{'p.IQR':>9}  verdict")
for m in spec["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    a = [r["metrics"][name]["value"] for r in runs["parent"] if name in r["metrics"]]
    b = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
    if len(a) != n or len(b) != n:
        continue
    ma, mb = statistics.median(a), statistics.median(b)
    won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    q1, q3 = quartiles(a)
    iqr = q3 - q1
    ratio = mb / ma if ma else float("nan")
    worse = (mb - ma) if lower else (ma - mb)
    verdict = "-"
    if ma and worse > bound * abs(ma):
        verdict = "worse"
    elif 10 * won >= 9 * n and -worse > iqr:
        verdict = "gain"
    print(f"{name:<14}{ma:>10.4g}{mb:>10.4g}{ratio:>8.3f}{won:>4}/{n:<2}"
          f"{iqr:>9.3g}  {verdict}")

# The unrescaled class medians of perfbench's stderr report ("raw_p50"),
# for the classes behind main_p50_ms and side_p50_ms.
def raw_p50(log):
    names, rows, col = {}, {}, None
    for line in log.read_text().splitlines():
        if line.strip().startswith("(main_p50_ms ="):
            for part in line.strip("() ").split(","):
                key, cls = (x.strip() for x in part.split("="))
                names[key.removesuffix("_ms")] = cls.removesuffix("_p50_ms")
        elif line.strip().startswith("class ") and "raw_p50" in line:
            col = line.index("raw_p50")
        elif col is not None and line.startswith("  "):
            # The value whose text overlaps the header's raw_p50 column.
            for tok in re.finditer(r"\S+", line):
                if tok.start() < col + len("raw_p50") and tok.end() > col:
                    rows[line.split()[0]] = float(tok.group())
    return {k: rows[c] for k, c in names.items() if c in rows}

for key in ("main_p50", "side_p50"):
    vals = {side: [raw_p50(work / "ab_logs" / f"{side}.{i}.log").get(key)
                   for i in range(n)] for side in ("parent", "change")}
    if all(v is not None for vs in vals.values() for v in vs):
        print(f"raw {key} (unrescaled, ms): parent "
              f"{statistics.median(vals['parent']):.4g} change "
              f"{statistics.median(vals['change']):.4g}")
print(f"logs: {work}/ab_logs")
EOF
