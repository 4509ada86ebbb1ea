#!/usr/bin/env bash
# Paired perf/ runs of two built trees of this repository.
#
#   bench/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED N
#
# First prints each tree's build profile: whether dune compiles Sim with
# -opaque, as its dev profile does (dune build --profile dev).  Without
# -opaque (the release profile that dune-workspace selects) callers
# inline across modules and host_s reads 4-12% lower, so the script
# warns when the two trees differ.
#
# Then compares the two trees' code layout: the caml_curryN/caml_applyN
# set of perf/main.exe (it sizes caml_startup, which is linked first),
# printed as the arities only one tree has, and the address of
# Pace.kernel mod 64.  perf/ rescales host times by that kernel's speed,
# so a layout difference moves every reading a few percent; the script
# warns when they differ.  It prints the same for the engine's hot
# functions (Memory.access_lat_in and access_lat_inner, Sim.mem_op,
# Event_queue.push and pop_into, Cost_model.op_latency, fill_path and
# resource_hold), which move with any size change in the modules linked
# ahead of them, and warns when any of those differ.
#
# Finally runs N pairs of the BENCHMARK.json command (--seconds from its
# run_seconds) on WORKLOAD at SEED, alternating which tree goes first,
# and prints for every end-to-end metric each side's median [Q1, Q3],
# the pairs the change won (ties count for neither), the median delta
# and whether the gain rule holds: the change wins at least 9 of every
# 10 pairs and the median gap exceeds the parent's interquartile range.
# Beside host_s it prints the same row for host_raw_s, the pass wall
# time before pace rescaling, and warns when the two medians move in
# opposite directions: then the pace readings, not the program, decide
# the sign of host_s.  It also prints the medians of host_pace and the
# failed job counts.  A run that prints no JSON line (a crash or a kill)
# is named with its output file, wins no pair and is counted on its
# side's failed-jobs line; the medians use the runs that finished.  Raw
# outputs stay in a temporary directory, printed first.  With N = 0 the script stops after the profile and layout checks.
#
# Needs bash, dune, nm, awk, comm and python3; both trees must already be
# built (dune build), since the layout check reads their _build
# directories.

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

# ---- build profile check ----
sim_rule=_build/default/lib/engine/.ssync_engine.objs/native/ssync_engine__Sim.cmx
profile() {
  local rule
  if ! rule=$(cd "$1" && dune rules "$sim_rule" 2>/dev/null); then
    echo "unknown (dune rules failed)"
  elif grep -q -- '-opaque' <<<"$rule"; then
    echo "Sim compiled with -opaque (no cross-module inlining)"
  else
    echo "Sim compiled without -opaque"
  fi
}
ppro=$(profile "$parent"); cpro=$(profile "$change")
echo "profile parent: $ppro"
echo "profile change: $cpro"
if [ "$ppro" != "$cpro" ]; then
  echo "WARNING: the trees are built with different profiles; host_s" \
    "differs by 4-12% on the five workloads for that reason alone"
fi

# ---- layout check ----
arities() {
  nm -n "$1/$exe" | grep -oE 'caml_(curry|apply)[0-9]+$' | LC_ALL=C sort -u
}
mod64() { # TREE MODULE.FUNCTION: the function's address mod 64
  local a
  a=$(nm -n "$1/$exe" | grep -E "__${2/./\\.}_[0-9]+$" | head -1 | cut -d' ' -f1 || true)
  if [ -n "$a" ]; then echo $((0x$a % 64)); else echo missing; fi
}
pa=$(arities "$parent"); ca=$(arities "$change")
only() { # SET OTHER: the members of SET missing from OTHER
  LC_ALL=C comm -23 <(echo "$1") <(echo "$2") | paste -sd ' ' -
}
op=$(only "$pa" "$ca"); oc=$(only "$ca" "$pa")
pk=$(mod64 "$parent" Pace.kernel); ck=$(mod64 "$change" Pace.kernel)
echo "layout  Pace.kernel mod 64: parent $pk, change $ck"
echo "layout  curry/apply arities only in parent: ${op:-none}; only in change: ${oc:-none}"
hot_moved=
for f in Memory.access_lat_in Memory.access_lat_inner Sim.mem_op \
         Event_queue.push Event_queue.pop_into Cost_model.op_latency \
         Cost_model.fill_path Cost_model.resource_hold; do
  ph=$(mod64 "$parent" "$f"); ch=$(mod64 "$change" "$f")
  echo "layout  $f mod 64: parent $ph, change $ch"
  [ "$ph" = "$ch" ] || hot_moved="$hot_moved $f"
done
if [ -n "$op$oc" ] || [ "$pk" != "$ck" ]; then
  echo "WARNING: code layout differs between the trees; host times may" \
    "shift by a few percent on every workload for that reason alone"
fi
if [ -n "$hot_moved" ]; then
  echo "WARNING: engine hot functions moved mod 64:$hot_moved; host times of" \
    "the workloads that run them may shift by a few percent for that reason alone"
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
    path = f"{out}/{side}.{i}.txt"
    lines = open(path).read().splitlines()
    js = [l for l in lines if l.startswith("{")]
    if not js:
        print(f"lost    {side} run {i} printed no JSON line (crashed or killed): {path}")
        return None
    res = json.loads(js[-1])
    for l in lines:
        f = l.split()
        if len(f) >= 2 and f[0] in ("host_raw_s", "host_pace"):
            res["metrics"].setdefault(f[0], {"value": float(f[1])})
    return res

runs = {s: [load(s, i) for i in range(1, n + 1)] for s in ("parent", "change")}
# pairs whose two runs both printed their JSON line; a lost run wins no pair
pairs = [(a, b) for a, b in zip(runs["parent"], runs["change"]) if a and b]

def quart(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

def values(side, name):
    return [r["metrics"][name]["value"] for r in runs[side] if r]

def row(name, lower, rule):
    p, c = values("parent", name), values("change", name)
    won = sum(1 for a, b in pairs
              if (b["metrics"][name]["value"] < a["metrics"][name]["value"]
                  if lower else
                  b["metrics"][name]["value"] > a["metrics"][name]["value"]))
    (pm, pq1, pq3), (cm, cq1, cq3) = quart(p), quart(c)
    delta = 100.0 * (cm - pm) / pm if pm else float("nan")
    gap = (pm - cm) if lower else (cm - pm)
    holds = won * 10 >= 9 * n and gap > (pq3 - pq1)
    ps, cs = f"{pm:.4g} [{pq1:.4g}, {pq3:.4g}]", f"{cm:.4g} [{cq1:.4g}, {cq3:.4g}]"
    verdict = ("holds" if holds else "no") if rule else "(not rescaled)"
    print(f"{name:<14}{ps:>32}{cs:>32}{won:>5}/{n:<3}{delta:>+8.1f}%  {verdict}")
    return delta

if all(values(s, "host_s") for s in runs):
    print(f"{'metric':<14}{'parent median [Q1, Q3]':>32}{'change median [Q1, Q3]':>32}"
          f"{'won':>8}{'delta':>9}  rule")
    deltas = {}
    for m in bench["end_to_end"]:
        deltas[m["name"]] = row(m["name"], m["better"] == "lower", True)
        if m["name"] == "host_s":
            deltas["host_raw_s"] = row("host_raw_s", True, False)
    d, r = deltas["host_s"], deltas["host_raw_s"]
    if d * r < 0:
        print(f"WARNING: host_s ({d:+.1f}%) and host_raw_s ({r:+.1f}%) move in"
              " opposite directions; the pace readings decide the sign of host_s")
    print(f"{'host_pace':<14} median parent {statistics.median(values('parent', 'host_pace')):.4g}"
          f"  change {statistics.median(values('change', 'host_pace')):.4g}")
else:
    print("no summary: every run of one side was lost")
for side in ("parent", "change"):
    done = [r for r in runs[side] if r]
    failed = sum(r["failed"] for r in done)
    attempted = sum(r["attempted"] for r in done)
    lost = n - len(done)
    print(f"failed jobs   {side}: {failed} of {attempted} attempted"
          + (f"; {lost} of {n} runs lost (no JSON line)" if lost else ""))
PY
