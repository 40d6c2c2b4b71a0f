#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

    python3 benchmark/compare.py OLD.jsonl NEW.jsonl

A result set is the JSONL file `run.py --out FILE` appends to: one record
per run, {"workload", "seed", "trace", "result"}, where "result" is the
object run.py printed.  For every end-to-end metric of BENCHMARK.json and
every workload, each side reports its median and quartiles over its runs
(statistics.quantiles, n=4), and the pair gets one verdict:

  unresolved  the spread of either side ((q3 - q1) / median) is wider than
              the metric's bound, so a change of that size cannot be seen;
  worse       the new median is worse than the old by more than the bound;
  better      the new median is better than the old by more than the bound;
  unchanged   otherwise.  Exact metrics (the virtual latencies, spread 0)
              therefore match within their bound or are flagged.

Runs that were not correct are reported as failed sessions per side.  The
exit code is 1 when any verdict is worse or unresolved, or a metric is
missing from a side, else 0.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_set(path):
    """{(workload, metric): [values]} over the trace-0 runs, plus failures."""
    values, attempted, failed = {}, 0, 0
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        res = rec["result"]
        attempted += res["attempted"]
        failed += res["failed"]
        if rec["trace"] != 0:
            continue
        for name, m in res["metrics"].items():
            values.setdefault((rec["workload"], name), []).append(m["value"])
    return values, attempted, failed


def summary(values):
    """(median, q1, q3) of a list of run values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(med, q1, q3):
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(old, new, better, bound):
    """Verdict for one metric x workload; old/new are (median, q1, q3)."""
    if max(spread(*old), spread(*new)) > bound:
        return "unresolved"
    if old[0] == new[0]:
        return "unchanged"
    change = (new[0] - old[0]) / abs(old[0]) if old[0] else float("inf")
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(old_set, new_set, spec):
    """Yields (workload, metric, old summary, new summary, verdict)."""
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in old_set or key not in new_set:
                yield w, m["name"], None, None, "missing"
                continue
            old, new = summary(old_set[key]), summary(new_set[key])
            yield w, m["name"], old, new, verdict(old, new, m["better"], m["bound"])


def fmt(s):
    if s is None:
        return "-"
    return f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}] {100 * spread(*s):.1f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(pathlib.Path(args.spec).read_text(encoding="utf-8"))
    old_set, old_att, old_fail = load_set(args.old)
    new_set, new_att, new_fail = load_set(args.new)
    bad = 0
    print(f"{'workload':14} {'metric':16} {'bound':>6}  {'old median [q1, q3] spread':42} "
          f"{'new median [q1, q3] spread':42} verdict")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, m, old, new, v in compare(old_set, new_set, spec):
        bad += v in ("worse", "unresolved", "missing")
        print(f"{w:14} {m:16} {bounds[m]:6.2f}  {fmt(old):42} {fmt(new):42} {v}")
    for side, att, fail in (("old", old_att, old_fail), ("new", new_att, new_fail)):
        print(f"{side}: {fail} of {att} sessions failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
