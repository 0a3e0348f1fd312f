"""The three benchmark workloads: proof, hypercube and catalog.

Each workload is a closed loop of jobs run by one caller at 1 worker.
``setup`` builds the inputs from the seed; ``run_pass`` runs the whole job
list once and checks every output against known answers.  All package
functions are looked up on the module objects at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import signal
import time
from pathlib import Path

LOOP_ITERATIONS = 3_000
SAMPLE_EVERY_S = 0.1


class CheckError(Exception):
    """A job's output disagrees with the known answer."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of tuple, set and dict work."""
    begin = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(LOOP_ITERATIONS):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + len({i & 7, i & 3, i & 1})
    return time.perf_counter() - begin


class HostSpeed:
    """Samples the host's speed while jobs run.

    A timer signal interrupts the run every SAMPLE_EVERY_S of wall time, and
    its handler times the reference loop, which never calls the package.  A
    slower host stretches the loop and the jobs alike, so a job's time over
    the mean loop time during it measures the job in loops, whatever the
    host's speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous_handler = None

    def __enter__(self) -> "HostSpeed":
        self.samples.append(reference_loop())
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_loop())

    def loop_s(self, since: int) -> float:
        """Mean loop time over the samples from index `since` on, or the
        latest sample if none was taken since."""
        recent = self.samples[since:] or self.samples[-1:]
        return sum(recent) / len(recent)


class PassResult:
    """Totals of one pass: the end-to-end counts and the job outcomes."""

    def __init__(self, speed: HostSpeed | None = None, tracer=None) -> None:
        self.nodes = 0
        self.best_colors = 0
        self.solved = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.job_seconds: dict[str, float] = {}
        self.job_loops: dict[str, float] = {}
        self._speed = speed
        self._tracer = tracer

    def counts(self) -> tuple[int, int, int]:
        return self.nodes, self.best_colors, self.solved

    def run(self, label: str, job, *args) -> None:
        """Run one job; an exception or a failed check counts it as failed."""
        self.attempted += 1
        span = self._tracer.job(f"bench.{label}") if self._tracer else contextlib.nullcontext()
        first_sample = len(self._speed.samples) if self._speed else 0
        begin = time.perf_counter()
        try:
            with span:
                job(self, *args)
        except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - begin
        self.job_seconds[label] = elapsed
        if self._speed:
            self.job_loops[label] = elapsed / self._speed.loop_s(first_sample)

    def add_outcome(self, outcome, solved_statuses=("OPTIMAL", "INFEASIBLE")) -> None:
        self.nodes += outcome.nodes_explored
        self.solved += int(outcome.status.name in solved_statuses)


def clear_caches(ahj) -> None:
    """Empty the package's lru_caches, as a fresh ``ahj`` process starts."""
    for cache in ahj.caches:
        cache.cache_clear()


def verify_witness(ahj, witness, colors: int, what: str) -> None:
    """Re-check a coloring with the package's rainbow test and census."""
    check(witness is not None, f"{what}: no witness")
    check(ahj.coloring.is_rainbow_free(witness), f"{what}: witness has a rainbow line")
    found = ahj.coloring.census(witness).distinct_count
    check(found == colors, f"{what}: witness has {found} colors, not {colors}")


def run_cli(ahj, argv: list[str]) -> tuple[int, dict[str, list[str]], str]:
    """Run ``ahj <argv>`` in-process from cold caches; return the exit code,
    the ``key=value`` lines and the raw standard output."""
    clear_caches(ahj)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ahj.cli.main(argv)
    fields: dict[str, list[str]] = {}
    for line in out.getvalue().splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            fields.setdefault(key, []).append(value)
    if err.getvalue():
        fields["stderr"] = [err.getvalue().strip()]
    return code, fields, out.getvalue()


def field(fields: dict[str, list[str]], key: str) -> str:
    values = fields.get(key)
    check(values is not None, f"no {key}= line in the output; got {sorted(fields)}")
    return values[-1]


def random_image(ahj, coloring, rng: random.Random):
    """The coloring moved by a random cube automorphism, then with its colors
    renamed by a random permutation."""
    maps = ahj.hypercube.automorphism_index_maps(coloring.shape)
    index_map = maps[rng.randrange(len(maps))]
    palette = sorted(set(coloring.colors))
    renamed = palette[:]
    rng.shuffle(renamed)
    rename = dict(zip(palette, renamed))
    cells = [0] * len(coloring.colors)
    for old, new in enumerate(index_map):
        cells[new] = rename[coloring.colors[old]]
    return ahj.coloring.Coloring(coloring.shape, tuple(cells))


# ---------------------------------------------------------------- proof
#
# Why: the union-find branch and bound does almost all the work; the warm
# start costs milliseconds and the coloring and hypercube layers are idle.
# An incremental propagation scan or stronger symmetry breaking shows here.
# [5]^2 has 11 lines of 10 pairs each and is proved OPTIMAL.  [3]^3 has 37
# lines of 3 pairs each; its full proof (1,279,607 nodes, about 45-58 s)
# does not fit in one run, so it runs under a node cap that measures the
# same scan.  The inputs are shapes only: this workload ignores the seed.

PROOF_JOBS = (
    # (k, n, node cap or None, known maximum)
    (5, 2, None, 17),
    (3, 3, 100_000, 10),
)


def proof_setup(ahj, seed: int, workdir: Path):
    return [(ahj.hypercube.CubeShape(k, n), cap, value) for k, n, cap, value in PROOF_JOBS]


def _proof_job(result: PassResult, ahj, shape, cap, value) -> None:
    what = f"[{shape.k}]^{shape.n}"
    config = ahj.search.SearchConfig(worker_count=1, node_limit=cap)
    outcome = ahj.search.max_rf_colors(shape, config)
    status = outcome.status.name
    check(outcome.best_value == value, f"{what}: value {outcome.best_value}, want {value}")
    if cap is None:
        check(status == "OPTIMAL", f"{what}: status {status}, want OPTIMAL")
    else:
        check(
            status == "OPTIMAL" or (status == "FEASIBLE_ONLY" and outcome.nodes_explored == cap),
            f"{what}: status {status} after {outcome.nodes_explored} nodes under cap {cap}",
        )
    verify_witness(ahj, outcome.witness, value, what)
    result.add_outcome(outcome, ("OPTIMAL",))
    result.best_colors += outcome.best_value


def proof_pass(ahj, inputs, result: PassResult) -> None:
    clear_caches(ahj)
    for shape, cap, value in inputs:
        result.run(f"proof.max_rf_colors.{shape.k}^{shape.n}", _proof_job, ahj, shape, cap, value)


# ------------------------------------------------------------ hypercube
#
# Why: the open [3]^4 case.  The warm start (independent-set probes) and the
# cell-filling completion engine dominate, and the [3]^3 proof never uses
# either; the branch and bound runs on the 175-line table.  A warm-start or
# deadline fix, or a smarter complete(), shows here and not in proof.
# The seed picks, for every layer refill, a cube automorphism and a color
# renaming of the bundled 23-coloring.  complete() is sensitive to cell
# order, so single refills vary widely in cost; IMAGES_PER_LAYER images
# per layer average that out so runs with different seeds agree.

HYPERCUBE_SEARCH_NODES = 3_000
REFILL_NODES = 1_000
IMAGES_PER_LAYER = 6
REFILL_TARGETS = (23, 24)
MAX_COLORS_UPPER_3_4 = 26  # ah(3, 4) <= 27 by the bounds table


def hypercube_setup(ahj, seed: int, workdir: Path):
    rng = random.Random(seed)
    shape = ahj.hypercube.CubeShape(3, 4)
    fixture = ahj.fixtures.load_fixture("hypercube-rf-23.ahj")
    refills = []
    for image_no in range(IMAGES_PER_LAYER):
        for t in range(1, shape.n + 1):
            for symbol in range(1, shape.k + 1):
                image = random_image(ahj, fixture, rng)
                blank = ahj.hypercube.layer(shape, t, symbol)
                partial = ahj.coloring.Coloring(
                    shape, tuple(0 if i in blank else c for i, c in enumerate(image.colors))
                )
                refills.append((f"{image_no}.L{t}={symbol}", partial))
    endgames = []
    for i, arrangement in enumerate(ahj.search.two_layer_arrangements(), start=1):
        path = workdir / f"endgame-{i}.ahj"
        path.write_text(ahj.coloring.serialize(arrangement, f"two-layer arrangement {i}"))
        endgames.append(str(path))
    return shape, refills, endgames


def _hypercube_search(result: PassResult, ahj, shape) -> None:
    config = ahj.search.SearchConfig(worker_count=1, node_limit=HYPERCUBE_SEARCH_NODES)
    outcome = ahj.search.max_rf_colors(shape, config)
    status = outcome.status.name
    check(
        status == "OPTIMAL"
        or (status == "FEASIBLE_ONLY" and outcome.nodes_explored == HYPERCUBE_SEARCH_NODES),
        f"[3]^4: status {status} after {outcome.nodes_explored} nodes",
    )
    check(outcome.best_value <= MAX_COLORS_UPPER_3_4, f"[3]^4: value {outcome.best_value} > 26")
    verify_witness(ahj, outcome.witness, outcome.best_value, "[3]^4 search")
    result.add_outcome(outcome, ("OPTIMAL",))
    result.best_colors += outcome.best_value


def _refill(result: PassResult, ahj, label: str, partial, target: int) -> None:
    config = ahj.search.SearchConfig(worker_count=1, node_limit=REFILL_NODES)
    outcome = ahj.search.complete(partial, target, config)
    status = outcome.status.name
    what = f"refill {label} to {target}"
    check(outcome.nodes_explored <= REFILL_NODES, f"{what}: {outcome.nodes_explored} nodes")
    if target == 23:
        # The blanked image is itself a completion, so 23 is always reachable.
        check(status != "INFEASIBLE", f"{what}: INFEASIBLE")
    if status == "OPTIMAL":
        verify_witness(ahj, outcome.witness, target, what)
        kept = all(p == 0 or p == w for p, w in zip(partial.colors, outcome.witness.colors))
        check(kept, f"{what}: witness changes an assigned cell")
        if target > 23:
            result.notes.append(
                f"{what}: OPTIMAL, verified {target}-coloring of [3]^4:\n"
                + ahj.coloring.serialize(outcome.witness)
            )
    result.add_outcome(outcome)


def _endgame(result: PassResult, ahj, path: str) -> None:
    code, fields, _ = run_cli(ahj, ["complete", path, "--total-colors", "27"])
    check(code == 0, f"{path}: exit code {code}")
    check(field(fields, "status") == "INFEASIBLE", f"{path}: status {field(fields, 'status')}")
    check("forced_cell" in fields, f"{path}: no forced cell in the refusal")
    result.nodes += int(field(fields, "nodes"))
    result.solved += 1


def hypercube_pass(ahj, inputs, result: PassResult) -> None:
    shape, refills, endgames = inputs
    clear_caches(ahj)
    result.run("hypercube.max_rf_colors.3^4", _hypercube_search, ahj, shape)
    for label, partial in refills:
        for target in REFILL_TARGETS:
            result.run(f"hypercube.complete.{label}.{target}", _refill, ahj, label, partial, target)
    for i, path in enumerate(endgames, start=1):
        result.run(f"hypercube.endgame.{i}", _endgame, ahj, path)


# -------------------------------------------------------------- catalog
#
# Why: the read-and-check traffic, with no large branch and bound.  It
# stresses hypercube (cold automorphism_index_maps, most of claim 9),
# coloring (the Bell(9) oracle runs is_rainbow_free on every partition),
# constructions, bounds, fixtures and cli; a union-find speedup predicts
# no change here.  Every command runs through ahj.cli.main from cold caches.
# Claim 1 is left out because it repeats proof; claim 10 because it starts
# 4 threads.  The seed picks the automorphism and color renaming of each
# fixture image that is verified.

FIXTURES = (
    ("square-rf-4.ahj", 4),
    ("cube-rf-10-a.ahj", 10),
    ("cube-rf-10-b.ahj", 10),
    ("hypercube-rf-23.ahj", 23),
)
REPRO_CLAIMS = (2, 3, 4, 5, 6, 7, 8, 9)
# Bounds on ah(3, n) for n = 1..5, the first rows of the table.
BOUNDS_ROWS = ((3, 3), (5, 5), (11, 11), (24, 27), (33, 77))
CATALOG_ENUMERATIONS = (
    (["--k", "3", "--n", "4", "--independent-size", "3", "--up-to-symmetry"], 452),
    (["--k", "3", "--n", "3", "--colors", "9", "--minimal-only", "--up-to-symmetry"], 1),
    (["--k", "3", "--n", "3", "--colors", "10", "--minimal-only", "--up-to-symmetry"], 1),
)


def catalog_setup(ahj, seed: int, workdir: Path):
    rng = random.Random(seed)
    images = []
    for name, colors in FIXTURES:
        fixture = ahj.fixtures.load_fixture(name)
        path = workdir / f"image-{name}"
        path.write_text(ahj.coloring.serialize(random_image(ahj, fixture, rng), f"image of {name}"))
        orbit = ahj.coloring.orbit_canonical_form(fixture).colors
        images.append((str(path), colors, orbit))
    return workdir, images


def _repro(result: PassResult, ahj, claim: int) -> None:
    code, _, text = run_cli(ahj, ["repro", "--only", str(claim)])
    passed = [int(m) for m in re.findall(r"^claim\s+(\d+) PASS", text, re.MULTILINE)]
    check(passed == [claim], f"repro claim {claim} did not pass:\n{text}")
    check(code == 0, f"repro claim {claim}: exit code {code}")


def _enumerate(result: PassResult, ahj, args: list[str], count: int) -> None:
    code, fields, _ = run_cli(ahj, ["enumerate", *args])
    check(code == 0, f"enumerate {args}: exit code {code}")
    check(field(fields, "count") == str(count), f"enumerate {args}: count={field(fields, 'count')}")


def _constructions(result: PassResult, ahj, workdir: Path) -> None:
    digit, stacked = str(workdir / "digit-3-6.ahj"), str(workdir / "stacked-3-7.ahj")
    steps = (
        (["construct", "digit-position", "--k", "3", "--n", "6", "-o", digit], "colors", "64"),
        (["construct", "recursive", "--base", digit, "-o", stacked], "colors", "65"),
        (["verify", stacked, "--expect-rf", "--expect-colors", "65"], "verified", "true"),
    )
    for argv, key, want in steps:
        code, fields, _ = run_cli(ahj, argv)
        check(code == 0, f"{argv[:2]}: exit code {code}")
        check(field(fields, key) == want, f"{argv[:2]}: {key}={field(fields, key)}, want {want}")


def _bounds(result: PassResult, ahj) -> None:
    code, _, text = run_cli(ahj, ["bounds", "--k", "3", "--n-max", "12"])
    check(code == 0, f"bounds: exit code {code}")
    rows = [tuple(map(int, m)) for m in re.findall(r"^n=\d+ lower=(\d+) upper=(\d+)", text, re.M)]
    check(len(rows) == 12, f"bounds: {len(rows)} rows, want 12")
    check(tuple(rows[:5]) == BOUNDS_ROWS, f"bounds: first rows {rows[:5]}")


def _verify_image(result: PassResult, ahj, path: str, colors: int, orbit) -> None:
    code, fields, _ = run_cli(ahj, ["verify", path, "--expect-rf", "--expect-colors", str(colors)])
    check(code == 0 and field(fields, "verified") == "true", f"verify {path}: {fields}")
    image = ahj.coloring.parse(Path(path).read_text())
    check(
        ahj.coloring.orbit_canonical_form(image).colors == orbit,
        f"{path}: orbit canonical form differs from the fixture's",
    )


def _small_search(result: PassResult, ahj, workdir: Path) -> None:
    certificate = str(workdir / "square-certificate.ahj")
    code, found, _ = run_cli(
        ahj, ["search", "max-colors", "--k", "3", "--n", "2", "--certificate", certificate]
    )
    check(code == 0, f"search [3]^2: exit code {code}")
    check(field(found, "status") == "OPTIMAL", f"search [3]^2: {field(found, 'status')}")
    check(field(found, "value") == "4", f"search [3]^2: value={field(found, 'value')}")
    code, fields, _ = run_cli(ahj, ["verify", certificate, "--expect-rf", "--expect-colors", "4"])
    check(code == 0 and field(fields, "verified") == "true", f"verify certificate: {fields}")
    result.nodes += int(field(found, "nodes"))
    result.best_colors += 4
    result.solved += 1


def catalog_pass(ahj, inputs, result: PassResult) -> None:
    workdir, images = inputs
    for claim in REPRO_CLAIMS:
        result.run(f"catalog.repro.{claim}", _repro, ahj, claim)
    for i, (args, count) in enumerate(CATALOG_ENUMERATIONS, start=1):
        result.run(f"catalog.enumerate.{i}", _enumerate, ahj, args, count)
    result.run("catalog.construct", _constructions, ahj, workdir)
    result.run("catalog.bounds", _bounds, ahj)
    for path, colors, orbit in images:
        result.run(f"catalog.verify.{Path(path).name}", _verify_image, ahj, path, colors, orbit)
    result.run("catalog.search.3^2", _small_search, ahj, workdir)


WORKLOADS = {
    "proof": (proof_setup, proof_pass),
    "hypercube": (hypercube_setup, hypercube_pass),
    "catalog": (catalog_setup, catalog_pass),
}
