#!/usr/bin/env bash
# Paired perf/ runs of two built trees of this repository.
#
#   bench/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N
#
# First compares the two trees' code layout: the caml_curryN/caml_applyN
# set of perf/main.exe (it sizes caml_startup, which is linked first) and
# the address of Pace.kernel mod 64.  perf/ rescales host times by that
# kernel's speed, so a layout difference moves every reading a few
# percent; the script warns when they differ.
#
# Then runs N pairs of the BENCHMARK.json command (--seconds from its
# run_seconds) on WORKLOAD at SEED, alternating which tree goes first,
# and prints for every end-to-end metric each side's median [Q1, Q3],
# the pairs the change won (ties count for neither), the median delta
# and whether the gain rule holds: the change wins at least 9 of every
# 10 pairs and the median gap exceeds the parent's interquartile range.
# It also prints the medians of host_raw_s and host_pace and the failed
# job counts.  Raw outputs stay in a temporary directory, printed first.
# With N = 0 the script stops after the layout check.
#
# Needs bash, nm, awk and python3; both trees must already be built
# (dune build), since the layout check reads their _build directories.

set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED N" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
n=$5

exe=_build/default/perf/main.exe
for d in "$parent" "$change"; do
  if [ ! -x "$d/$exe" ]; then
    echo "$d/$exe not found: build the tree first (dune build)" >&2
    exit 2
  fi
done

# ---- layout check ----
arities() {
  nm -n "$1/$exe" | grep -oE 'caml_(curry|apply)[0-9]+$' | sort -u | tr '\n' ' '
}
kernel_mod64() {
  local a
  a=$(nm -n "$1/$exe" | awk '/Pace\.kernel/ {print $1; exit}')
  echo $((0x$a % 64))
}
pa=$(arities "$parent"); ca=$(arities "$change")
pk=$(kernel_mod64 "$parent"); ck=$(kernel_mod64 "$change")
echo "layout  parent: Pace.kernel mod 64 = $pk; $pa"
echo "layout  change: Pace.kernel mod 64 = $ck; $ca"
if [ "$pa" != "$ca" ] || [ "$pk" != "$ck" ]; then
  echo "WARNING: code layout differs between the trees; host times may" \
    "shift by a few percent on every workload for that reason alone"
fi
[ "$n" -eq 0 ] && exit 0

# ---- paired runs ----
read -r -a cmd < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(" ".join(b["command"]), "--seconds", b["run_seconds"])
' "$change/BENCHMARK.json")

out=$(mktemp -d)
echo "runs    ${cmd[*]} --workload $workload --seed $seed; outputs in $out"
run() { # SIDE DIR PAIR
  (cd "$2" && "${cmd[@]}" --workload "$workload" --seed "$seed") \
    > "$out/$1.$3.txt" 2>&1 || true
}
for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"; run change "$change" "$i"
  else
    run change "$change" "$i"; run parent "$parent" "$i"
  fi
  echo "pair $i/$n done"
done

# ---- summary ----
python3 - "$out" "$n" "$change/BENCHMARK.json" <<'PY'
import json, statistics, sys

out, n, bench = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))

def load(side, i):
    lines = open(f"{out}/{side}.{i}.txt").read().splitlines()
    res = json.loads(next(l for l in reversed(lines) if l.startswith("{")))
    for l in lines:
        f = l.split()
        if len(f) >= 2 and f[0] in ("host_raw_s", "host_pace"):
            res["metrics"].setdefault(f[0], {"value": float(f[1])})
    return res

runs = {s: [load(s, i) for i in range(1, n + 1)] for s in ("parent", "change")}

def quart(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

def values(side, name):
    return [r["metrics"][name]["value"] for r in runs[side]]

print(f"{'metric':<14}{'parent median [Q1, Q3]':>32}{'change median [Q1, Q3]':>32}"
      f"{'won':>8}{'delta':>9}  rule")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p, c = values("parent", name), values("change", name)
    won = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    (pm, pq1, pq3), (cm, cq1, cq3) = quart(p), quart(c)
    delta = 100.0 * (cm - pm) / pm if pm else float("nan")
    gap = (pm - cm) if lower else (cm - pm)
    holds = won * 10 >= 9 * n and gap > (pq3 - pq1)
    ps, cs = f"{pm:.4g} [{pq1:.4g}, {pq3:.4g}]", f"{cm:.4g} [{cq1:.4g}, {cq3:.4g}]"
    print(f"{name:<14}{ps:>32}{cs:>32}{won:>5}/{n:<3}{delta:>+8.1f}%  "
          + ("holds" if holds else "no"))
for name in ("host_raw_s", "host_pace"):
    print(f"{name:<14} median parent {statistics.median(values('parent', name)):.4g}"
          f"  change {statistics.median(values('change', name)):.4g}")
for side in ("parent", "change"):
    failed = [r["failed"] for r in runs[side]]
    attempted = [r["attempted"] for r in runs[side]]
    print(f"failed jobs   {side}: {sum(failed)} of {sum(attempted)} attempted")
PY
