#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure numpy fallback.

    python benchmarks/bench_kernels.py [--repeat 5]

Covers exponential-integral evaluation over parameter grids.
"""

import argparse
import time

import numpy as np

from sbfmc import _kernels_py

try:
    from sbfmc import _kernels as _compiled
except ImportError:
    _compiled = None


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench(name, make_args, runners, repeat):
    args = make_args()
    print(f"\n{name}")
    base = None
    for label, impl in runners:
        if impl is None:
            print(f"  {label:>8}: extension not built")
            continue
        t = best_of(lambda: impl(*args), repeat)
        speedup = "" if base is None else f"  ({base / t:.1f}x)"
        if base is None:
            base = t
        print(f"  {label:>8}: {t * 1e3:8.2f} ms{speedup}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    rng = np.random.Generator(np.random.Philox(key=[1, 2]))

    grid = np.ascontiguousarray(10.0 ** rng.uniform(-6, 3, 200_000))
    bench(
        "e1_array, 2e5 points across the series/continued-fraction split",
        lambda: (grid,),
        [("python", _kernels_py.e1_array),
         ("cython", None if _compiled is None else _compiled.e1_array)],
        args.repeat,
    )


if __name__ == "__main__":
    main()
