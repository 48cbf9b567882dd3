#!/usr/bin/env python3
"""sbfmc benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports sbfmc from ./src and
never from an installed copy.  Workloads are defined in workloads.py.

A pass is the workload's list of ``sbfmc.cli.main`` calls, made in this
process with SBF_THREADS=1; every pass of a run has the same inputs, built
from --seed.  Passes repeat until --seconds have been measured (at least
one pass, and a pass is never cut short).  Before the passes, five fresh
interpreters each time their own import of sbfmc and parse of the
workload's configs; the median of the five is setup_s.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s, peak_rss_mb (this process's peak resident set) and work_per_s (the
workload's work per pass over wall_s: covariance solves for rates_sweep,
simulated payload bits x users for the ber workloads, output rows for
oracle).  --trace 1 spends half of --seconds on untraced passes and half on
passes with every sbfmc layer wrapped by tracer.py, and reports the
per-layer metrics; times are medians over traced passes, counts are those
of one pass (every pass has the same inputs, so counts repeat exactly).

Each output is checked (workloads.py).  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: attempted counts CLI
calls and failed those that did not exit 0.  Uncertified solves and failed
verify rows do not fail a call; with the calls they make up fail_frac,
printed above the JSON line and stored in the result file.  A failed check
exits 1, a checkout without src/sbfmc exits 2 before any run.

Result files (environment record, per-pass times, metrics) and trace files
(spans, one record per solve and per BER row) go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, check, compare_reference, reference_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# pinned before numpy is imported, here and in every child interpreter
THREAD_ENV = {"SBF_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sbfmc.cli import parse_config
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
print(time.perf_counter() - t0)
"""


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the shipped configs' seed)")
    p.add_argument("--seconds", type=float, default=10.0, help="time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs for the harness smoke test")
    return p.parse_args(argv)


def measure_setup(config_paths):
    """Median time a fresh interpreter takes to import sbfmc and parse the
    workload's configs, measured inside that interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               *map(str, config_paths)],
                              check=True, cwd=ROOT, timeout=120, capture_output=True, text=True)
        times.append(float(proc.stdout))
    return statistics.median(times), times


def environment(sbfmc):
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "sbf_threads": os.environ.get("SBF_THREADS"),
        "backend": sbfmc.backend.backend_name(),
        "machine": platform.machine(),
    }


class Runner:
    """Makes the passes of one run and keeps what they produced."""

    def __init__(self, workload, seed, configs, workdir, cli):
        self.workload = workload
        self.cli_seed = workload.cli_seed(seed)
        self.configs = configs  # (call, config path, settings) per call
        self.workdir = workdir
        self.cli = cli
        self.tracer = None  # set before traced passes
        self.passes = []
        self.outputs = None  # texts of the first pass, for the checks
        self.errors = []

    def run_pass(self, traced):
        record = {"traced": traced, "calls": [], "wall_s": 0.0, "cpu_s": 0.0,
                  "work": 0.0, "csv_bytes": 0, "solves": 0, "uncertified": 0,
                  "verify_rows": 0, "failed_rows": 0, "failed_calls": 0}
        texts = []
        for call, cfg_path, settings in self.configs:
            out_path = self.workdir / f"{call.label}.csv"
            argv = [call.command, "--config", str(cfg_path), "--seed", str(self.cli_seed),
                    "--out", str(out_path)]
            if traced:
                self.tracer.start_command()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed call; the checks then fail too
                traceback.print_exc()
                code = -1
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
            out_path.unlink(missing_ok=True)
            outcome = check(call.command, settings, text, code)
            texts.append(text)
            record["calls"].append({"label": call.label, "exit_code": code, "wall_s": wall})
            record["wall_s"] += wall
            record["cpu_s"] += cpu
            record["work"] += outcome.work
            record["csv_bytes"] += len(text.encode())
            record["solves"] += outcome.solves
            record["uncertified"] += outcome.uncertified
            record["verify_rows"] += outcome.rows if call.command == "verify" else 0
            record["failed_rows"] += outcome.failed_rows
            record["failed_calls"] += code != 0
            self.errors.extend(e for e in outcome.errors if e not in self.errors)
        if self.outputs is None:
            self.outputs = texts
        elif texts != self.outputs:
            self.errors.append("outputs differ between passes with the same inputs")
        self.passes.append(record)
        return record

    def run_for(self, seconds, traced, per_pass=None):
        start = time.perf_counter()
        while True:
            if traced:
                self.tracer.reset()
            self.run_pass(traced)
            if per_pass is not None:
                per_pass()
            if time.perf_counter() - start >= seconds:
                return


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None):
    args = parse_args(argv, WORKLOADS)
    if not (SRC / "sbfmc" / "__init__.py").is_file():
        print(f"error: no sbfmc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    run_id = (f"{workload.name}-s{seed}-t{args.trace}{'-tiny' if args.tiny else ''}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    workdir = OUT / f"work-{run_id}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workload, seed, run_id, workdir)
    finally:
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()


def run(args, workload, seed, run_id, workdir):
    configs = []
    for call in workload.calls:
        path = workdir / f"{call.label}.cfg"
        path.write_text(call.config_text(args.tiny), encoding="utf-8")
        configs.append((call, path, call.settings(args.tiny)))
    setup_s, setup_all = measure_setup([path for _, path, _ in configs])

    sys.path.insert(0, str(SRC))
    import sbfmc
    import sbfmc.cli

    if Path(sbfmc.__file__).resolve().parent != SRC / "sbfmc":
        print(f"error: imported sbfmc from {sbfmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(sbfmc)

    runner = Runner(workload, seed, configs, workdir, sbfmc.cli)
    layer_passes, trace_dump = [], []
    if args.trace:
        from tracer import Tracer, layer_metrics

        runner.run_for(args.seconds / 2, traced=False)
        runner.tracer = tracer = Tracer()
        tracer.install(sbfmc)

        def harvest():
            layer_passes.append(layer_metrics(tracer))
            trace_dump.append({"spans": tracer.spans, "solves": tracer.solves,
                               "ber_rows": tracer.ber_rows})

        runner.run_for(args.seconds / 2, traced=True, per_pass=harvest)
    else:
        runner.run_for(args.seconds, traced=False)

    if seed == DEFAULT_SEED and not args.tiny:
        for call, text in zip(workload.calls, runner.outputs):
            ref = reference_path(workload, call)
            if not ref.is_file():
                runner.errors.append(f"missing reference output {ref.name}")
                continue
            runner.errors.extend(compare_reference(call.command, text,
                                                   ref.read_text(encoding="utf-8")))

    end_to_end, extra, per_layer, counts = summarize(runner, layer_passes, setup_s)
    correct = not runner.errors
    all_metrics = {**end_to_end, **extra, **per_layer}
    result = {
        "workload": workload.name, "seed": seed, "cli_seed": runner.cli_seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": env, "correct": correct, "errors": runner.errors, **counts,
        "setup_runs_s": setup_all, "passes": runner.passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{run_id}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        write_trace(OUT / f"trace-{run_id}.json", workload.name, seed, trace_dump)

    for err in runner.errors:
        print(f"check failed: {err}", file=sys.stderr)
    n_traced = sum(p["traced"] for p in runner.passes)
    print(f"# {workload.name} seed={seed} cli_seed={runner.cli_seed} "
          f"passes={len(runner.passes) - n_traced}+{n_traced} backend={env['backend']}")
    for name, (value, unit) in all_metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    reported = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": correct, "attempted": counts["attempted"], "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


def summarize(runner, layer_passes, setup_s):
    """End-to-end metrics, the workload's own throughput and fail_frac,
    per-layer metrics (traced runs only) and the operation counts."""
    plain = [p for p in runner.passes if not p["traced"]]
    traced = [p for p in runner.passes if p["traced"]]
    wall_s = median_of(plain, "wall_s")
    work_per_s = statistics.median(p["work"] / p["wall_s"] for p in plain)
    counts = {
        "attempted": sum(len(p["calls"]) for p in runner.passes),
        "failed": sum(p["failed_calls"] for p in runner.passes),
        "operations": sum(len(p["calls"]) + p["solves"] + p["verify_rows"]
                          for p in runner.passes),
        "failed_operations": sum(p["failed_calls"] + p["uncertified"] + p["failed_rows"]
                                 for p in runner.passes),
    }
    fail_frac = counts["failed_operations"] / counts["operations"]
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (work_per_s, "1/s"),
    }
    extra = {runner.workload.work_unit: (work_per_s, "1/s"), "fail_frac": (fail_frac, "1")}
    per_layer = {}
    if traced:
        for name, (_, unit) in layer_passes[0].items():
            values = [lp[name][0] for lp in layer_passes]
            if unit == "count" and len(set(values)) > 1:
                runner.errors.append(f"count {name} differs between identical passes: {values}")
            per_layer[name] = (values[0] if unit == "count" else statistics.median(values), unit)
        per_layer["cli.cpu_s"] = (median_of(traced, "cpu_s"), "s")
        per_layer["cli.csv_bytes"] = (traced[0]["csv_bytes"], "count")
        per_layer["trace.overhead_frac"] = (median_of(traced, "wall_s") / wall_s - 1.0, "1")
        for name in ("solves_per_s", "sim_bits_per_s", "oracle_rows_per_s"):
            per_layer[name] = (work_per_s if name == runner.workload.work_unit else 0.0, "1/s")
        per_layer["fail_frac"] = (fail_frac, "1")
    return end_to_end, extra, per_layer, counts


def write_trace(path, workload, seed, passes):
    """Spans (names interned), solve records and BER rows of every traced pass."""
    names = sorted({rec[0] for p in passes for rec in p["spans"]})
    index = {n: i for i, n in enumerate(names)}
    passes = [dict(p, spans=[[index[r[0]], r[1], r[2], r[3]] for r in p["spans"]])
              for p in passes]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "span_names": names,
                                "span_fields": ["name", "start", "end", "parent"],
                                "passes": passes}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
