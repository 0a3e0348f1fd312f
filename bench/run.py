"""Benchmark for the ahj package: exact searches, [3]^4 completions and the
read-and-check catalog, driven through the public API and the ``ahj`` CLI.

Run from the repository root:

    python3 bench/run.py --workload proof --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` beside this directory.  A run repeats
passes over the workload's job list until another pass would end after
``--seconds``.  Before each pass it imports the package afresh and builds
the inputs SETUP_REPEATS times, so every pass starts from cold package
caches.  With ``--trace 0`` it runs at least MIN_PASSES passes and reports
the end-to-end metrics; with ``--trace 1`` it runs one untraced pass, then
at least one traced pass, and reports per-layer metrics from the spans,
which it writes to ``bench/out/``.  The last line of standard output is one
JSON object; every line before it is for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS, HostSpeed, PassResult

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODULES = ("hypercube", "coloring", "constructions", "search", "bounds", "fixtures", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 2

# Per-layer metrics: <module>.<function>.<stat>, or <module>.self_s for a
# whole layer.  Stats are per traced pass.
LAYER_FUNCTION_STATS = {
    "search.max_rf_colors": ("self_s", "nodes_per_s"),
    "search.first_independent_set": ("calls", "self_s", "found_ratio"),
    "search.complete": ("calls", "self_s", "nodes_per_s", "solved_ratio"),
    "search.find_forced_cell": ("self_s",),
    "search.enumerate_independent_sets": ("self_s",),
    "search.enumerate_minimal_rf": ("self_s",),
    "search.naive_max_rf_colors": ("self_s",),
    "hypercube.automorphism_index_maps": ("self_s",),
    "hypercube.line_index_table": ("calls", "self_s"),
    "hypercube.layer": ("self_s",),
    "coloring.is_rainbow_free": ("calls", "self_s"),
    "coloring.orbit_canonical_form": ("calls", "self_s"),
    "coloring.parse": ("self_s",),
    "coloring.serialize": ("self_s",),
    "constructions.digit_position_coloring": ("self_s",),
    "constructions.stack_recursive": ("self_s",),
    "constructions.singleton_set_coloring": ("calls", "self_s"),
    "bounds.bounds_table": ("self_s",),
    "fixtures.load_fixture": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"self_s": "s", "calls": "count", "nodes_per_s": "1/s",
         "found_ratio": "ratio", "solved_ratio": "ratio"}


def import_ahj() -> SimpleNamespace:
    """A fresh import of every ahj module, with the package's caches."""
    for name in [m for m in sys.modules if m == "ahj" or m.startswith("ahj.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"ahj.{name}") for name in MODULES}
    caches = {id(obj): obj for module in modules.values()
              for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    return SimpleNamespace(**modules, caches=list(caches.values()))


class Run:
    """The passes of one run, each after its own burst of set-ups.

    A shared host can run the same code tens of percent slower for a while:
    on a 2-core virtual machine a fixed Python loop took 21-22 ms or
    30-33 ms, in wall and CPU time alike.  So each timing is repeated at
    points spread through the run and the least disturbed one is kept.
    setup_s is the median of each burst of SETUP_REPEATS, least over the
    bursts (one before each pass and one after the last).  wall_s is the
    sum over the jobs of each job's least time over the passes.  wall_ref
    measures each job in units of a reference loop timed while it runs (see
    HostSpeed), so the host's speed cancels out; it is the median over the
    passes of the pass's sum.
    """

    def __init__(self, setup, run_pass, seed: int, workdir: Path, speed: HostSpeed | None):
        self.setup, self.run_pass = setup, run_pass
        self.seed, self.workdir = seed, workdir
        self.speed = speed
        self.setup_s: list[float] = []
        self.results: list[PassResult] = []

    def setup_burst(self):
        """SETUP_REPEATS fresh imports and input builds; keeps the last."""
        gc.collect()  # free the previous import, so peak RSS does not grow with passes
        burst = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            ahj = import_ahj()
            inputs = self.setup(ahj, self.seed, self.workdir)
            burst.append(time.perf_counter() - begin)
        self.setup_s.append(statistics.median(burst))
        return ahj, inputs

    def passes(self, seconds: float, min_passes: int, tracer: Tracer | None = None) -> list:
        """Passes until another would end after `seconds`, at least `min_passes`."""
        results, durations = [], []
        started = time.perf_counter()
        while True:
            iteration = time.perf_counter()
            ahj, inputs = self.setup_burst()
            result = PassResult(self.speed, tracer)
            with contextlib.ExitStack() as stack:
                if tracer:
                    tracer.install([getattr(ahj, name) for name in MODULES])
                    stack.callback(tracer.uninstall)
                if self.speed:
                    stack.enter_context(self.speed)
                self.run_pass(ahj, inputs, result)
            results.append(result)
            now = time.perf_counter()
            durations.append(now - iteration)
            if len(results) >= min_passes and now - started + statistics.median(durations) > seconds:
                self.results += results
                return results


def least(results: list[PassResult]) -> float:
    """Sum over jobs of each job's least time over the passes."""
    return sum(min(r.job_seconds[job] for r in results) for job in results[0].job_seconds)


def layer_metrics(totals: dict, passes: int, overhead_s: float) -> dict[str, dict]:
    metrics = {}
    for name, stats in LAYER_FUNCTION_STATS.items():
        t = totals[name]
        values = {
            "calls": t["calls"] / passes,
            "self_s": t["self_s"] / passes,
            "nodes_per_s": t["nodes"] / t["self_s"] if t["self_s"] else 0.0,
            "found_ratio": t["found"] / t["calls"] if t["calls"] else 0.0,
            "solved_ratio": t["solved"] / t["calls"] if t["calls"] else 0.0,
        }
        for stat in stats:
            metrics[f"{name}.{stat}"] = {"value": values[stat], "unit": UNITS[stat]}
    for module in MODULES:
        self_s = sum(t["self_s"] for name, t in totals.items() if name.startswith(module + "."))
        metrics[f"{module}.self_s"] = {"value": self_s / passes, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def print_layer_table(totals: dict, passes: int) -> None:
    print(f"{'span':<44} {'calls/pass':>11} {'self_s/pass':>12}")
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        if name.startswith("bench."):
            continue
        print(f"{name:<44} {t['calls'] / passes:>11.1f} {t['self_s'] / passes:>12.6f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "ahj" / "__init__.py").is_file():
        print(f"error: no ahj package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    print(f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={sys.version.split()[0]} gil={'enabled' if gil else 'disabled'}")
    (BENCH / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "out"))
    # The reference loop would add its own time to the traced passes' spans.
    run = Run(*WORKLOADS[args.workload], args.seed, workdir, None if args.trace else HostSpeed())
    try:
        if args.trace:
            untraced = run.passes(0, 1)
            tracer = Tracer()
            traced = run.passes(args.seconds - least(untraced), 1, tracer)
        else:
            run.passes(args.seconds, MIN_PASSES)
            run.setup_burst()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = run.results
    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    for note in dict.fromkeys(n for r in results for n in r.notes):
        print(note)
    for failure in failures:
        print(f"FAILED {failure}")
    counts = {r.counts() for r in results}
    consistent = len(counts) == 1
    if not consistent:
        print(f"FAILED passes disagree on (nodes, best_colors, solved): {sorted(counts)}")
    nodes, best_colors, solved = results[0].counts()
    pass_walls = [round(sum(r.job_seconds.values()), 3) for r in results]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"pass_walls_s={pass_walls} setup_bursts={len(run.setup_s)}x{SETUP_REPEATS}")
    print(f"wall_s={least(results)!r} s (sum of each job's least time)")
    print(f"failed_frac={len(failures) / attempted:.6f} ({len(failures)} of {attempted} jobs)")

    if args.trace:
        totals = tracer.totals()
        print_layer_table(totals, len(traced))
        metrics = layer_metrics(totals, len(traced), least(traced) - least(untraced))
        spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_ref": {
                "value": statistics.median(sum(r.job_loops.values()) for r in results),
                "unit": "loops",
            },
            "setup_s": {"value": min(run.setup_s), "unit": "s"},
            "nodes": {"value": nodes, "unit": "count"},
            "best_colors": {"value": best_colors, "unit": "count"},
            "solved": {"value": solved, "unit": "count"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    for name, metric in metrics.items():
        print(f"{name}={metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not failures and consistent,
        "attempted": attempted,
        "failed": len(failures) + (0 if consistent else 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
