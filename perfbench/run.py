"""Seeded closed-loop benchmark for flattree.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

One process, one caller, no threads: each item starts when the previous one
has finished.  ``--trace 0`` sets up the workload several times, then runs
items for ``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs
one fixed pass of items untraced and then traced, and reports the per-layer
metrics.  Human-readable lines go first; the last line of stdout is the JSON
result.  Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OWN_MODULES = ("workloads", "generators", "tracing")
SETUP_REPEATS = 3
MAX_REPORTED_ERRORS = 5


class Run:
    """Item bookkeeping shared by the timed and the traced loops."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        # entered around each item's library calls; the traced run puts a recorder here
        self.scope = contextlib.nullcontext()

    def run_item(self, i: int) -> float:
        """Run item ``i`` (cyclically); returns the latency of its library calls."""
        wl = self.wl
        item = wl.items[i % len(wl.items)]
        self.attempted += 1
        start = perf_counter()
        try:
            with self.scope:
                result = wl.call(item)
            latency = perf_counter() - start
            out = wl.check(item, result)
        except Exception:
            latency = perf_counter() - start
            self.fail(i, traceback.format_exc())
            return latency
        digest = hashlib.sha256(out).hexdigest()
        known = self.first.setdefault(i % len(wl.items), digest)
        if known != digest:
            self.fail(i, "output differs from an earlier run of the same item\n")
        return latency

    def fail(self, i: int, text: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            sys.stderr.write(f"item {i} failed:\n{text}")

    def complete_pass(self, done: int) -> None:
        """Run the rest of the first pass untimed, so the digest covers every input."""
        for i in range(done, len(self.wl.items)):
            self.run_item(i)

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.wl.items)):
            h.update(self.first.get(i, "missing").encode())
        return h.hexdigest()


def fresh_workload(name: str, seed: int):
    """Import flattree and the benchmark modules afresh, then build the inputs."""
    for mod in list(sys.modules):
        if mod == "flattree" or mod.startswith("flattree.") or mod in OWN_MODULES:
            del sys.modules[mod]
    workloads = importlib.import_module("workloads")
    return workloads.WORKLOADS[name](seed)


def setup(name: str, seed: int, repeats: int):
    """Set up ``repeats`` times; returns the last run state and each set-up time."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        run = Run(fresh_workload(name, seed))
        for i in range(run.wl.warmup):
            run.run_item(i)
        times.append(perf_counter() - start)
    return run, times


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten items beyond it; the max below 20 items."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n} items"
    if n >= 100:
        return ordered[math.ceil(0.9 * n) - 1], f"p90 of {n} items"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} items"


def machine() -> str:
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"{platform.machine()}, {platform.platform()}"
    )


def timed(args) -> dict:
    run, setup_times = setup(args.workload, args.seed, SETUP_REPEATS)
    wl = run.wl
    latencies = []
    start = perf_counter()
    i = run.wl.warmup
    while perf_counter() - start < args.seconds:
        latencies.append(run.run_item(i))
        i += 1
    wall = perf_counter() - start
    done_items = len(latencies)
    run.complete_pass(i)
    tail_value, tail_label = tail(latencies)
    metrics = {
        "items_per_s": (done_items / wall, "1/s"),
        "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1000 * tail_value, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {wl.name}, seed {args.seed}, {len(wl.items)} items of {wl.batch} cases per pass, closed loop, 1 caller")
    print(f"machine: {machine()}")
    print(f"timed phase: {done_items} items in {wall:.3f} s")
    print(f"setup runs (s): {', '.join(f'{x:.4f}' for x in setup_times)}")
    print(f"item_tail_ms is the {tail_label}")
    print(f"error_rate {run.failed / run.attempted:.6f} ratio ({run.failed} of {run.attempted})")
    print(f"digest {run.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return result(run, metrics)


def traced(args) -> dict:
    run, _ = setup(args.workload, args.seed, 1)
    wl = run.wl
    count = wl.trace_items or len(wl.items)
    start = perf_counter()
    for i in range(count):
        run.run_item(i)
    plain = perf_counter() - start

    import tracing

    rec = tracing.SpanRecorder()
    restore = tracing.install(rec)
    wl.counts.clear()
    run.scope = rec
    start = perf_counter()
    for i in range(count):
        run.run_item(i)
    with_spans = perf_counter() - start
    restore()
    rec.counts.update(wl.counts)

    metrics = tracing.layer_metrics(rec)
    metrics["trace.overhead_ratio"] = (with_spans / plain, "ratio")
    print(f"workload {wl.name}, seed {args.seed}, traced pass of {count} items")
    print(f"machine: {machine()}")
    print(f"untraced {plain:.3f} s, traced {with_spans:.3f} s, {len(rec)} spans")
    print(f"digest {run.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return result(run, metrics)


def result(run: Run, metrics: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "flow", "cover", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flattree" / "__init__.py").is_file():
        print(f"error: no flattree source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = traced(args) if args.trace else timed(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
