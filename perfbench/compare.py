#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW [--bench BENCHMARK.json]

BASE and NEW are result files written by run.py, or directories holding
them (perfbench/out/, perfbench/baseline/...).  For every workload and
metric it prints each side's median and quartiles, the ratio NEW/BASE with
BASE's median as its base, and a verdict:

  unresolved    a side's quartile spread, as a share of its median, exceeds
                the metric's bound
  worse         NEW is worse than BASE by more than the bound
  better        NEW is better than BASE by more than BASE's own spread
  within bound  anything else

Per-layer metrics have no bound; their verdict compares the change with
BASE's spread only (better / worse / within spread).  End-to-end metrics
come from untraced results, per-layer metrics from traced ones.  A warning
is printed when the two sets ran on different environments (backend,
versions, CPU count).  The tool only reports; it always exits 0 unless an
input cannot be read.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

COMPARABLE = ("backend", "python", "numpy", "scipy", "nproc", "sbf_threads")


def load(path):
    path = Path(path)
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"no result files in {path}")
    return [json.loads(f.read_text()) for f in files]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(q):
    q1, med, q3 = q
    return (q3 - q1) / abs(med) if med else 0.0


def collect(results):
    """{(workload, trace): {metric: [values]}} over correct results; runs
    on the smoke test's shrunken inputs count as workload "<name>/tiny"."""
    table = defaultdict(lambda: defaultdict(list))
    for r in results:
        if not r["correct"]:
            continue
        workload = r["workload"] + ("/tiny" if r["tiny"] else "")
        for name, m in r["metrics"].items():
            table[(workload, r["trace"])][name].append(m["value"])
    return table


def verdict(base_q, new_q, better, bound):
    b, n = base_q[1], new_q[1]
    if not b:
        return "n/a" if n else "same"
    gain = (b - n) / abs(b) if better == "lower" else (n - b) / abs(b)
    if bound is not None:
        if max(spread(base_q), spread(new_q)) > bound:
            return "unresolved"
        if -gain > bound:
            return "worse"
        return "better" if gain > spread(base_q) else "within bound"
    if abs(gain) <= spread(base_q):
        return "within spread"
    return "better" if gain > 0 else "worse"


def fmt(q):
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None):
    here = Path(__file__).resolve().parent
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="result file or directory of the base side")
    p.add_argument("new", help="result file or directory of the new side")
    p.add_argument("--bench", default=str(here.parent / "BENCHMARK.json"))
    args = p.parse_args(argv)
    base_res, new_res = load(args.base), load(args.new)
    spec = json.loads(Path(args.bench).read_text())
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for key in COMPARABLE:
        b = {str(r["environment"].get(key)) for r in base_res}
        n = {str(r["environment"].get(key)) for r in new_res}
        if b != n:
            print(f"warning: {key} differs: base {sorted(b)} new {sorted(n)}")

    base, new = collect(base_res), collect(new_res)
    print(f"{'workload':<13} {'metric':<34} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'new/base':>8}  verdict (runs)")
    for trace in (0, 1):
        for wl in sorted({w for w, t in base if t == trace} & {w for w, t in new if t == trace}):
            for m in metrics[trace]:
                bv, nv = base[(wl, trace)].get(m["name"]), new[(wl, trace)].get(m["name"])
                if not bv or not nv:
                    continue
                bq, nq = quartiles(bv), quartiles(nv)
                ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "n/a"
                v = verdict(bq, nq, m["better"], m.get("bound"))
                print(f"{wl:<13} {m['name']:<34} {fmt(bq):<34} {fmt(nq):<34} {ratio:>8}  "
                      f"{v} ({len(bv)}/{len(nv)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
