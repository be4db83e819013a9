#!/usr/bin/env bash
# Same-digits check: does this tree print the same numbers as PARENT_ROOT?
#
#   tools/same_digits.sh PARENT_ROOT
#
# The simulator is deterministic, so a change that claims "the same
# numbers" must match its parent digit for digit; only host time may
# move. Both trees must already be built, the parent as
#   cmake -B PARENT_ROOT/build -S PARENT_ROOT
#   cmake --build PARENT_ROOT/build
#   cmake -S PARENT_ROOT/bench/dlfsbench -B PARENT_ROOT/bb \
#     -DCMAKE_BUILD_TYPE=Release
#   cmake --build PARENT_ROOT/bb --target dlfsbench
# and this tree the same way into build and build-bench. The check
#   1. runs dlfsbench --seed 1 --trace on both sides at once, and
#      compares every end_to_end and per_layer value except the
#      host-time setup_s, sim.host_s and trace.host_overhead_frac;
#      every workload must also be correct with 0 failed, and a side
#      that exits non-zero is named ("change side exited 139");
#   2. runs 16 benches no golden covers on both sides, the two sides at
#      once, and diffs their stdout, stderr, exit status and
#      BENCH_*/CHAOS_* JSON byte for byte.
# Each side writes only under its own root. It exits 0 only when
# everything matches. About 2 minutes.

set -u

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 PARENT_ROOT" >&2
  exit 2
fi
P=$(cd "$1" && pwd)
C=$(cd "$(dirname "$0")/.." && pwd)
for bin in "$P/bb/dlfsbench" "$P/build/bench/chaos_soak" \
    "$C/build-bench/dlfsbench" "$C/build/bench/chaos_soak"; do
  if [ ! -x "$bin" ]; then
    echo "missing $bin: build both trees first" >&2
    exit 2
  fi
done

status=0

# 1. dlfsbench, seed 1, traced. The values are compared only when both
# sides exit 0.
mkdir -p "$P/tr" "$C/build-bench/tr"
rm -f "$P/db.json" "$C/build-bench/db.json"
"$P/bb/dlfsbench" --seed 1 --trace --json "$P/db.json" --trace-dir "$P/tr" \
  > /dev/null 2>&1 &
parent_pid=$!
"$C/build-bench/dlfsbench" --seed 1 --trace --json "$C/build-bench/db.json" \
  --trace-dir "$C/build-bench/tr" > /dev/null 2>&1 &
change_pid=$!
exited=0
wait "$parent_pid" || { echo "dlfsbench: parent side exited $?"; exited=1; }
wait "$change_pid" || { echo "dlfsbench: change side exited $?"; exited=1; }
if [ $exited -ne 0 ]; then
  status=1
else
  python3 - "$P/db.json" "$C/build-bench/db.json" <<'PY' || status=1
import json, sys
host = {"setup_s", "sim.host_s", "trace.host_overhead_frac"}
p, c = (json.load(open(f))["workloads"] for f in sys.argv[1:])
bad = [(w, s, k) for w in p for s in ("end_to_end", "per_layer")
       for k in p[w][s] if k not in host
       and p[w][s][k]["value"] != c[w][s][k]["value"]]
for w, s, k in bad:
    print(f"dlfsbench {w} {k}: {p[w][s][k]['value']!r} -> "
          f"{c[w][s][k]['value']!r}")
ok = sorted(p) == sorted(c) and all(
    c[w]["correct"] and c[w]["failed"] == 0 for w in c)
print("dlfsbench:", "correct" if ok else "INCORRECT",
      "with different digits" if bad else "with the same digits")
sys.exit(1 if bad or not ok else 0)
PY
fi

# 2. The runs no golden pins.
same_runs() {  # build dir, output dir, checkout root
  local B=$1 O=$2 S=$3
  run() {
    mkdir -p "$O/$1" &&
      (cd "$O/$1" && "${@:2}" > stdout.txt 2> stderr.txt; echo $? > status.txt)
  }
  rm -rf "$O"
  for s in 1 2 3; do run chaos_s$s "$B/bench/chaos_soak" --smoke --seed $s; done
  run chaos_full1 "$B/bench/chaos_soak" --seed 1
  run repair_smoke "$B/bench/chaos_soak" --repair-sweep --smoke
  run peer_full "$B/bench/peer_cache_sweep"
  run peer_smoke "$B/bench/peer_cache_sweep" --smoke
  run tenancy_full "$B/bench/tenancy_sweep"
  run avail "$B/bench/availability_sweep"
  run avail_r2 "$B/bench/availability_sweep" --replication 2
  run bench_smoke "$B/bench/bench_smoke" --baseline "$S/bench/perf_baseline.json"
  run ablation "$B/bench/ablation_batching"
  run fig07 "$B/bench/fig07_cpu_utilization"
  run fig11 "$B/bench/fig11_disaggregation_efficiency"
  run dlfsim "$B/tools/dlfsim"
  run dlfsim_base "$B/tools/dlfsim" --system=dlfs --batching=none
}
same_runs "$P/build" "$P/runs" "$P" &
same_runs "$C/build" "$C/build/runs" "$C" &
wait
if diff -r "$P/runs" "$C/build/runs"; then
  echo "same runs: byte-identical"
else
  echo "same runs: DIFFERENT"
  status=1
fi

exit $status
