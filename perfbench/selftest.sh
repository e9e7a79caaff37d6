#!/usr/bin/env bash
# Repeats the benchmark the way its acceptance check does and prints, as
# markdown, how far sets of runs of the *same build* disagree.
#
#   perfbench/selftest.sh [SETS] [RUNS]      (defaults: 3 sets of 10 runs)
#
# A set is RUNS runs of every workload, each with another seed. Per workload
# and end-to-end metric it reports each set's spread (interquartile range of
# the RUNS values over their median, quartiles as Python's
# statistics.quantiles(values, n=4) gives them) and the largest amount by
# which one set's median is worse than another's. Exits non-zero when a
# spread (setup_s excepted) or a drift exceeds the metric's bound.
# REPORT_ONLY=1 skips the runs and reports perfbench/out/selftest.jsonl again.
set -euo pipefail
cd "$(dirname "$0")/.."
sets=${1:-3}
runs=${2:-10}
raw=perfbench/out/selftest.jsonl
mkdir -p perfbench/out

field() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print(*$1)"; }
read -r -a command <<< "$(field 'b["command"]')"
read -r -a workloads <<< "$(field '[w["name"] for w in b["workloads"]]')"
seconds=$(field '[b["run_seconds"]]')

[[ ${REPORT_ONLY:-} == 1 ]] && sets=0 || : > "$raw"
for ((set = 1; set <= sets; set++)); do
  for workload in "${workloads[@]}"; do
    for ((run = 1; run <= runs; run++)); do
      seed=$((set * 1000 + run))
      result=$("${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
      echo "{\"set\": $set, \"workload\": \"$workload\", \"seed\": $seed, \"result\": $result}" >> "$raw"
    done
  done
done

python3 - "$raw" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
sets = max(r["set"] for r in rows)
runs = len(rows) // (sets * len(bench["workloads"]))
bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
failures = len(bad)

print(f"# perfbench noise: {sets} sets x {runs} runs of one build, "
      f"{bench['run_seconds']} s per run\n")
print("Spread = IQR / median of a set's runs; drift = the most one set's "
      "median is worse than another's. Both as a share of the median, "
      "next to the metric's bound.\n")
print("| workload | metric | bound | set medians | spread per set | drift | verdict |")
print("|---|---|---|---|---|---|---|")
for w in (w["name"] for w in bench["workloads"]):
    for m in bench["end_to_end"]:
        medians, spreads = [], []
        for s in range(1, sets + 1):
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in rows if r["set"] == s and r["workload"] == w]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            medians.append(med)
            spreads.append((q3 - q1) / med)
        # How much worse the worst set median is than the best one.
        lo, hi = min(medians), max(medians)
        drift = (hi - lo) / lo if m["better"] == "lower" else (hi - lo) / hi
        gated_spread = 0.0 if m["name"] == "setup_s" else max(spreads)
        ok = gated_spread <= m["bound"] and drift <= m["bound"]
        failures += not ok
        note = "ok" if ok else "ABOVE BOUND"
        if ok and max(gated_spread, drift) > m["bound"] / 2:
            note = "ok (above half the bound)"
        print(f"| {w} | {m['name']} | {m['bound']:.2f} | "
              + " / ".join(f"{x:.4g}" for x in medians) + " | "
              + " / ".join(f"{x:.3f}" for x in spreads)
              + f" | {drift:.3f} | {note} |")
print(f"\n{len(rows)} runs, {len(bad)} incorrect or with failed operations.")
sys.exit(1 if failures else 0)
PY
