#!/usr/bin/env python3
"""Front end of dlfsbench: builds it from source, runs it, compares runs.

Run one workload (from the root of a checkout):

    python3 bench/dlfsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench/dlfsbench with CMake (Release) under $CARGO_TARGET_DIR/dlfsbench
or build-bench, runs the workload, and prints as its last line one JSON
object: correct, attempted, failed and the metrics BENCHMARK.json names
(its end_to_end list with --trace 0, its per_layer list with --trace 1).
The benchmark's own report goes to stderr.

Compare two result files written by `dlfsbench --json FILE`:

    python3 bench/dlfsbench/run.py --compare PARENT.json CHANGE.json

prints parent, change, delta and a verdict per workload and end-to-end
metric, using the bounds in BENCHMARK.json, and exits 1 if any metric got
worse by more than its bound or failed_frac grew.

Smoke check (the dlfsbench_smoke ctest):

    python3 bench/dlfsbench/run.py --smoke [--binary PATH]

runs every workload at 1/20 size with tracing and exits 1 if a metric
BENCHMARK.json names is missing, not finite or without a unit, or if any
delivery failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("dlfsbench: " + msg, file=sys.stderr)
    return 1


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR")
    if base:
        return os.path.join(os.path.abspath(base), "dlfsbench")
    return os.path.join(ROOT, "build-bench")


def build():
    """Configures (once) and builds the dlfsbench target; returns the binary."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "dlfsbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "dlfsbench")


def run_binary(binary, args, result_path, trace_dir):
    """Runs dlfsbench with its report on stderr; returns (exit code, results)."""
    if os.path.exists(result_path):
        os.remove(result_path)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary] + args + ["--json", result_path, "--trace-dir", trace_dir]
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S).returncode
    if not os.path.exists(result_path):
        raise RuntimeError("dlfsbench exited %d without results" % code)
    return code, load_json(result_path)


def run_workload(args):
    spec = load_json(BENCHMARK)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload " + args.workload)
    binary = build()
    out = build_dir()
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)]
    if args.trace == 1:
        flags.append("--trace")
    code, results = run_binary(binary, flags,
                               os.path.join(out, "result-%s.json" % args.workload),
                               os.path.join(out, "traces"))
    r = results["workloads"][args.workload]
    section = "per_layer" if args.trace == 1 else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in r[section]:
            return fail("result lacks metric " + m["name"])
        metrics[m["name"]] = r[section][m["name"]]
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0 if code == 0 and r["correct"] else 1


def compare(parent_path, change_path):
    spec = load_json(BENCHMARK)
    parent = load_json(parent_path)["workloads"]
    change = load_json(change_path)["workloads"]
    regressed = False
    print("%-14s %-26s %16s %16s %9s  %s" %
          ("workload", "metric", "parent", "change", "delta", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in parent or w not in change:
            print("%-14s missing from one of the files" % w)
            regressed = True
            continue
        p_e2e, c_e2e = parent[w]["end_to_end"], change[w]["end_to_end"]
        for m in spec["end_to_end"]:
            name = m["name"]
            p, c = p_e2e[name]["value"], c_e2e[name]["value"]
            delta = (c - p) / p if p else 0.0
            worse = -delta if m["better"] == "higher" else delta
            verdict = ("worse" if worse > m["bound"] else
                       "better" if worse < -m["bound"] else "same")
            regressed |= verdict == "worse"
            print("%-14s %-26s %16.6g %16.6g %+8.2f%%  %s" %
                  (w, name, p, c, 100 * delta, verdict))
        gated = {m["name"] for m in spec["end_to_end"]} | {"failed_frac"}
        for name in sorted((set(p_e2e) & set(c_e2e)) - gated):
            p, c = p_e2e[name]["value"], c_e2e[name]["value"]
            print("%-14s %-26s %16.6g %16.6g %+8.2f%%  not gated" %
                  (w, name, p, c, 100 * ((c - p) / p if p else 0.0)))
        p_f = p_e2e["failed_frac"]["value"]
        c_f = c_e2e["failed_frac"]["value"]
        verdict = "worse" if c_f > p_f else "same"
        regressed |= verdict == "worse"
        print("%-14s %-26s %16.6g %16.6g %9s  %s" %
              (w, "failed_frac", p_f, c_f, "", verdict))
    return 1 if regressed else 0


def smoke(binary):
    spec = load_json(BENCHMARK)
    binary = binary or build()
    out = os.path.dirname(os.path.abspath(binary))
    code, results = run_binary(binary, ["--smoke", "--trace"],
                               os.path.join(out, "result-smoke.json"),
                               os.path.join(out, "traces-smoke"))
    problems = [] if code == 0 else ["dlfsbench exited %d" % code]
    for w in [w["name"] for w in spec["workloads"]]:
        r = results["workloads"].get(w)
        if r is None:
            problems.append(w + ": no result")
            continue
        if not r["correct"] or r["failed"] != 0:
            problems.append("%s: incorrect, %d failed deliveries, %s" %
                            (w, r["failed"], "; ".join(r["failures"])))
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                got = r[section].get(m["name"])
                value = got.get("value") if got else None
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append("%s: %s is %r" % (w, m["name"], value))
                elif not got.get("unit"):
                    problems.append("%s: %s has no unit" % (w, m["name"]))
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    args = ap.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.smoke:
            return smoke(args.binary)
        if args.workload:
            return run_workload(args)
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        return fail(str(e))
    ap.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
