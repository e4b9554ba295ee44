#!/usr/bin/env bash
# Runs the untraced suite twice on the same seed and prints, for every
# end-to-end metric of every workload, how far the second run lies from
# the first, against the metric's bound in BENCHMARK.json. Metrics that
# are counts of the program's own making must repeat exactly. Exits 1
# when any difference exceeds its bound.
#
# usage: bench/repeat.sh [--quick] [--seconds <n>] [--seed <n>]
# (--quick takes three reps a run: a smoke test of this script, not a
# measurement — expect it to exceed the bounds.)
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench/out
for pass in 1 2; do
    # One process per workload, as the driver runs it: peak_rss_mb is the
    # process's high-water mark.
    for workload in mc_copy apache_edge apache_flood pine_mail; do
        cargo run --release --quiet --offline --manifest-path bench/Cargo.toml -- \
            --trace 0 --workload "$workload" "$@" 2>> bench/out/repeat.log
    done > "bench/out/repeat-$pass.txt"
done

python3 - <<'PY'
import json, sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}

def results(path):
    out, workload = {}, None
    for line in open(path):
        if line.startswith("# ") and " trace=" in line:
            workload = line.split()[1]
        elif line.startswith("{"):
            out[workload] = json.loads(line)
    return out

first, second = results("bench/out/repeat-1.txt"), results("bench/out/repeat-2.txt")
bad = False
print(f"{'workload':14} {'metric':18} {'first':>16} {'second':>16} {'diff':>9} {'bound':>7}")
for workload, a in first.items():
    b = second[workload]
    if not (a["correct"] and b["correct"]):
        print(f"{workload}: a run was not correct")
        bad = True
    for name, m in a["metrics"].items():
        x, y = m["value"], b["metrics"][name]["value"]
        diff = abs(y - x) / abs(x)
        exact = m["unit"] in ("count", "cycles")
        bound = 0.0 if exact else bounds[name]["bound"]
        verdict = "" if diff <= bound else "  EXCEEDS"
        bad |= diff > bound
        print(f"{workload:14} {name:18} {x:16.6g} {y:16.6g} {diff:8.2%} {bound:7.0%}{verdict}")
sys.exit(1 if bad else 0)
PY
