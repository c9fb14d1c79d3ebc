#!/usr/bin/env python3
"""Compare two results.json files from run.sh against the bounds in
BENCHMARK.json.

    compare.py A/results.json B/results.json [BENCHMARK.json]

A is the baseline (the parent commit, or the first of two runs of one
commit), B the candidate. One row per (metric, workload):

    ok          B is not worse than A by more than the metric's bound
    worse       it is
    unresolved  in A or in B the run disagrees with itself: the value from
                its even repetitions alone and from its odd repetitions
                alone differ by more than the bound, so a second run could
                not be expected to reproduce it

Exits 1 if any row is worse, 0 otherwise.
"""
import json
import os
import sys


def spread(metric):
    """Distance between the metric's two half-run values as a share of its value."""
    if "halves" not in metric or not metric["value"]:
        return 0.0
    even, odd = metric["halves"]
    return abs(even - odd) / abs(metric["value"])


def worsening(a, b, better):
    """By what share of A the value got worse from A to B (negative: improved)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def verdict(a, b, spec):
    if max(spread(a), spread(b)) > spec["bound"]:
        return "unresolved"
    if worsening(a["value"], b["value"], spec["better"]) > spec["bound"]:
        return "worse"
    return "ok"


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    bench_path = argv[3] if len(argv) == 4 else os.path.join(here, "..", "BENCHMARK.json")
    with open(bench_path) as f:
        bench = json.load(f)
    with open(argv[1]) as f:
        a_all = json.load(f)["workloads"]
    with open(argv[2]) as f:
        b_all = json.load(f)["workloads"]
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for spec in bench["end_to_end"]:
            a = a_all[workload]["end_to_end"][spec["name"]]
            b = b_all[workload]["end_to_end"][spec["name"]]
            rows.append((spec, workload, a, b, verdict(a, b, spec)))
    print(f"{'metric':<16}{'workload':<15}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>7}"
          f"{'spread A':>10}{'spread B':>10}  verdict")
    for spec, workload, a, b, v in rows:
        print(f"{spec['name']:<16}{workload:<15}{a['value']:>14.6g}{b['value']:>14.6g}"
              f"{worsening(a['value'], b['value'], spec['better']):>+10.1%}{spec['bound']:>7.0%}"
              f"{spread(a):>10.1%}{spread(b):>10.1%}  {v}")
    for workload in a_all:
        for side, runs in (("A", a_all), ("B", b_all)):
            r = runs[workload]
            if r["failed"] or not r["correct"]:
                print(f"{side} {workload}: failed {r['failed']} of {r['attempted']}, "
                      f"output checks {'passed' if r['correct'] else 'FAILED'}")
    counts = {v: sum(1 for r in rows if r[4] == v) for v in ("ok", "worse", "unresolved")}
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
