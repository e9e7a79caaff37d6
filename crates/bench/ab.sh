#!/usr/bin/env bash
# Alternated-process A/B of two `recurs` binaries over one command line.
#
#   crates/bench/ab.sh [-n PAIRS] [-c CPU] [--stats-json] BASE CHANGE -- ARGS...
#
# Runs `BASE ARGS...` and `CHANGE ARGS...` as PAIRS pairs of processes
# (default 16), pinned to CPU (default 1) with `taskset`, the side that runs
# first alternating from pair to pair, so drift in the host's speed falls on
# both sides alike. Prints each build's wall time per process (median, and
# first and third quartiles), the median of the per-pair ratios
# CHANGE / BASE, and how many pairs CHANGE won (ties count for neither
# side). With `--stats-json` (which
# ARGS must allow: `run FILE --engine indexed`), the flag is passed on, and
# each build's median saturation time (`total_duration_us`) and widest round
# (the round with the most new tuples: its time and rows) are printed too,
# with the saturation's per-pair ratio.
#
# Example, SG over a 1023-node tree (perfbench's `saturate-wide` input):
#   crates/bench/ab.sh -n 16 --stats-json parent/recurs target/release/recurs \
#     -- run perfbench/out/saturate-wide.dl --engine indexed
set -euo pipefail

pairs=16
cpu=1
stats=0
while [ $# -gt 0 ]; do
  case "$1" in
    -n) pairs="$2"; shift 2 ;;
    -c) cpu="$2"; shift 2 ;;
    --stats-json) stats=1; shift ;;
    *) break ;;
  esac
done
if [ $# -lt 3 ] || [ "$3" != "--" ]; then
  echo "usage: $0 [-n PAIRS] [-c CPU] [--stats-json] BASE CHANGE -- ARGS..." >&2
  exit 2
fi
bins=("$1" "$2")
shift 3
args=("$@")
[ "$stats" = 1 ] && args+=(--stats-json)

tmp="$(mktemp -d -t recurs-ab-XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

# One process of build `side` (0 = BASE, 1 = CHANGE): appends its wall time
# in µs to `$tmp/wall.$side`, and with `--stats-json` its saturation's µs and
# its widest round's µs and rows to `$tmp/stats.$side`.
run_one() {
  local side="$1" start end out
  out="$tmp/out"
  start="$(date +%s%N)"
  if ! taskset -c "$cpu" "${bins[$side]}" "${args[@]}" > "$out"; then
    echo "$0: ${bins[$side]} ${args[*]} failed" >&2
    exit 1
  fi
  end="$(date +%s%N)"
  echo $(((end - start) / 1000)) >> "$tmp/wall.$side"
  if [ "$stats" = 1 ]; then
    # The stats object: one line of JSON after the answers.
    grep -o '"stats":{"kernel".*' "$out" | awk '
      {
        n = split($0, parts, "\"new_tuples\":")
        best = -1
        for (i = 2; i <= n; i++) {
          rows = parts[i] + 0
          match(parts[i], /"duration_us":[0-9]+/)
          us = substr(parts[i], RSTART + 14, RLENGTH - 14) + 0
          if (rows > best) { best = rows; widest = us }
        }
        match($0, /"total_duration_us":[0-9]+/)
        total = substr($0, RSTART + 20, RLENGTH - 20) + 0
        print total, widest, best
      }' >> "$tmp/stats.$side"
  fi
}

for ((i = 0; i < pairs; i++)); do
  first=$((i % 2))
  run_one "$first"
  run_one $((1 - first))
done

# The `q`-quantile (0 to 1) of the numbers in column `col` of `file`,
# interpolated between the two nearest ranks.
quantile() {
  awk -v c="$2" '{ print $c }' "$1" | sort -g | awk -v q="$3" '
    { v[NR] = $1 }
    END {
      h = (NR - 1) * q + 1
      i = int(h)
      print (i < NR) ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[NR]
    }'
}

# The median of the numbers in column `col` of `file`.
median() { quantile "$1" "$2" 0.5; }

# The median of the per-pair ratios CHANGE / BASE of column `col`.
ratio() {
  paste -d' ' "$tmp/$1.0" "$tmp/$1.1" | awk -v c="$2" -v w="$3" '{ print $(w + c) / $c }' \
    > "$tmp/ratio"
  median "$tmp/ratio" 1 | awk '{ printf "%.3f", $1 }'
}

ms() { awk -v us="$1" 'BEGIN { printf "%.3f", us / 1000 }'; }

echo "pairs: $pairs, pinned to CPU $cpu: ${args[*]}"
for side in 0 1; do
  label=$([ "$side" = 0 ] && echo base || echo change)
  line="$label ${bins[$side]}: wall $(ms "$(median "$tmp/wall.$side" 1)") ms"
  line+=" (q1 $(ms "$(quantile "$tmp/wall.$side" 1 0.25)")"
  line+=", q3 $(ms "$(quantile "$tmp/wall.$side" 1 0.75)"))"
  if [ "$stats" = 1 ]; then
    line+=", saturation $(ms "$(median "$tmp/stats.$side" 1)") ms"
    line+=", widest round $(ms "$(median "$tmp/stats.$side" 2)") ms"
    line+=" ($(median "$tmp/stats.$side" 3) rows)"
  fi
  echo "$line"
done
won="$(paste -d' ' "$tmp/wall.0" "$tmp/wall.1" | awk '$2 < $1 { n++ } END { print n + 0 }')"
line="change / base, median of per-pair ratios: wall $(ratio wall 1 1)"
line+=" (change won $won of $pairs pairs)"
[ "$stats" = 1 ] && line+=", saturation $(ratio stats 1 3)"
echo "$line"
