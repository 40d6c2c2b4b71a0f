#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload, as a benchmark driver calls it (the last stdout line is the
result object):

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1

Every workload, end-to-end and traced, with readable tables:

    python3 benchmark/run.py [--seed N] [--seconds T] [--runs K] [--out FILE]

The first call builds `sodbench` from source with CMake into .bench_build/
(or $CARGO_TARGET_DIR when set).  Each workload run is its own sodbench
process, so an abort in one run is accounted as that run failing: its
result reads correct=false with every attempted session failed, and the
exit code is nonzero, but the report is still printed.  Traced runs write
one Chrome trace-event file per workload under the build directory's
traces/ and are checked to parse with properly nested spans.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail_setup(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds sodbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail_setup(f"no source tree at {ROOT} to build the benchmark from")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "sodbench", "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail_setup("building sodbench failed: " + " ".join(cmd))
    return out / "sodbench"


def check_trace_file(path):
    """Problems with a Chrome trace-event file: JSON and span nesting."""
    try:
        events = json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"{path}: {e}"]
    spans = {e["args"]["id"]: e for e in events if e.get("ph") == "X"}
    problems = [] if spans else [f"{path}: no spans"]
    for e in spans.values():
        parent = spans.get(e["args"]["parent"])
        if e["args"]["parent"] >= 0 and (
                parent is None or e["ts"] < parent["ts"]
                or e["ts"] + e["dur"] > parent["ts"] + parent["dur"]):
            problems.append(f"{path}: span {e['name']} #{e['args']['id']} not inside its parent")
    return problems


def run_one(exe, spec, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (result, problems)."""
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(exist_ok=True)
    (trace_dir / f"{workload}.trace.json").unlink(missing_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-dir", str(trace_dir)]
    problems = []
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        raw = json.loads(lines[-1]) if lines else None
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0:
            problems.append(f"sodbench exited with {proc.returncode}")
    except subprocess.TimeoutExpired:
        raw, problems = None, [f"sodbench ran past {RUN_TIMEOUT_S} s"]
    except ValueError:
        raw, problems = None, ["sodbench printed no result"]

    if raw is None:
        # A crashed or hung run counts as every attempted session failing.
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, problems
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in raw["metrics"]:
            metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} missing")
    if trace:
        problems += check_trace_file(trace_dir / f"{workload}.trace.json")
    result = {"correct": bool(raw["correct"]) and not problems,
              "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    return result, problems


def print_tables(spec, results):
    """results: {(workload, trace): [result, ...]} over the runs made."""
    names = [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        if not any((w, trace) in results for w in names):
            continue
        print(f"\n{key} (median over runs)")
        print(f"{'metric':28} {'unit':10}" + "".join(f" {w:>14}" for w in names))
        extra = [{"name": "failed_frac", "unit": "ratio"}] if trace == 0 else []
        for m in spec[key] + extra:
            cells = []
            for w in names:
                rs = results.get((w, trace), [])
                if m["name"] == "failed_frac":
                    att = sum(r["attempted"] for r in rs)
                    vals = [sum(r["failed"] for r in rs) / att] if att else []
                else:
                    vals = [r["metrics"][m["name"]]["value"]
                            for r in rs if m["name"] in r["metrics"]]
                cells.append(f" {statistics.median(vals):14.6g}" if vals else f" {'-':>14}")
            print(f"{m['name']:28} {m['unit']:10}" + "".join(cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run only this workload (driver mode)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, with seeds N, N+1, ... (default 1)")
    ap.add_argument("--out", help="append one JSON record per run to this file")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail_setup(f"unknown workload {args.workload}; known: {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    exe = build()

    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    results, ok, last = {}, True, None
    for w in workloads:
        for trace in traces:
            for seed in range(args.seed, args.seed + args.runs):
                result, problems = run_one(exe, spec, w, seed, seconds, trace)
                for p in problems:
                    print(f"run.py: {w} seed {seed} trace {trace}: {p}", file=sys.stderr)
                results.setdefault((w, trace), []).append(result)
                ok = ok and result["correct"]
                last = result
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as f:
                        f.write(json.dumps({"workload": w, "seed": seed, "trace": trace,
                                            "result": result}) + "\n")
    if args.workload is None or args.runs > 1 or len(traces) > 1:
        print_tables(spec, results)
    sys.stdout.flush()
    if len(results) == 1 and args.runs == 1:
        print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
