#!/usr/bin/env python3
"""Smoke test of the benchmark harness on shrunken inputs (under a minute).

    python3 perfbench/smoke.py

Runs every workload of run.py with --tiny, traced and untraced, and checks
the contract of its last output line: exactly the keys correct, attempted,
failed and metrics, correct true, and the metric names and units that
BENCHMARK.json lists.  Then runs compare.py on the results, and checks that
run.py refuses to run (nonzero exit, no result line) in a copy of the
benchmark without the sbfmc sources.  Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def fail(message, proc=None):
    print(f"FAIL: {message}")
    if proc is not None:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(["perfbench/run.py", "--workload", w["name"], "--tiny", "--seed", "1",
                        "--seconds", "0", "--trace", str(trace)])
            if proc.returncode != 0:
                fail(f"{w['name']} trace={trace} exited {proc.returncode}", proc)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"} or not last["correct"]:
                fail(f"{w['name']} trace={trace}: bad result line {last}", proc)
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != expected[trace]:
                fail(f"{w['name']} trace={trace}: metrics {sorted(got)} "
                     f"!= {sorted(expected[trace])}")
            if not all(isinstance(v["value"], (int, float)) for v in last["metrics"].values()):
                fail(f"{w['name']} trace={trace}: non-numeric metric value")
            print(f"ok {w['name']} trace={trace} attempted={last['attempted']}")

    out = HERE / "out"
    newest = max(out.glob("result-*-tiny-*.json"), key=lambda p: p.stat().st_mtime)
    proc = run(["perfbench/compare.py", str(newest), str(newest)])
    if proc.returncode != 0 or "within" not in proc.stdout:
        fail("compare.py on a result against itself", proc)
    print("ok compare.py")

    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = run([*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                    "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("run.py without sbfmc sources did not refuse", proc)
    print("ok refuses without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
