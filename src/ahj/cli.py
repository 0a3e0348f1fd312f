"""Command-line driver for enumeration, verification, construction, search,
bounds, and claim reproduction.

Results print as ``key=value`` lines so runs can be scripted and diffed;
the search is serial, so the wall_time field is the only line that varies
between identical invocations.  Exit codes are a stable contract: 0 for
success or claim-holds, 1 for claim-fails, 2 for usage or input errors,
3 for an exhausted search budget.

``CLAIMS`` is the numbered table of the ten headline claims that
``ahj repro`` runs; the acceptance tests run the same table.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
from pathlib import Path

from .bounds import (
    BoundsError,
    BoundsRow,
    bounds_table,
    geometric_upper,
    iterated_upper,
    refined_upper_3,
)
from .coloring import (
    Coloring,
    ColoringError,
    canonical_relabel,
    census,
    is_minimal,
    is_rainbow_free,
    parse,
    rainbow_lines,
    serialize,
)
from .constructions import (
    ConstructionError,
    digit_position_coloring,
    singleton_set_coloring,
    stack_recursive,
)
from .fixtures import load_fixture
from .hypercube import (
    CubeShape,
    ShapeError,
    enumerate_lines,
    line_count,
    line_index_table,
    point_from_index,
    point_index,
    template_table,
)
from .search import (
    ForcedCell,
    SearchConfig,
    SearchError,
    SearchOutcome,
    Status,
    complete,
    enumerate_independent_sets,
    enumerate_minimal_rf,
    find_forced_cell,
    max_rf_colors,
    naive_max_rf_colors,
    two_layer_arrangements,
)

EXIT_OK = 0
EXIT_CLAIM_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

RECOMPUTE_TIME_LIMIT = 60.0  # seconds for the whole of bounds --recompute


def _emit(key: str, value: object) -> None:
    print(f"{key}={value}")


def _write_coloring(path: str, coloring: Coloring, comment: str) -> None:
    Path(path).write_text(serialize(coloring, comment))


def _search_config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(time_limit=args.time_limit, node_limit=args.node_limit)


def cmd_lines(args: argparse.Namespace) -> int:
    shape = CubeShape(args.k, args.n)
    if args.count:
        print(line_count(shape))
    else:
        for template in enumerate_lines(shape):
            print(template)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    coloring = parse(Path(args.file).read_text())
    cen = census(coloring)
    _emit("subcommand", "verify")
    _emit("file", args.file)
    _emit("k", coloring.shape.k)
    _emit("n", coloring.shape.n)
    _emit("colors", cen.distinct_count)
    _emit("unassigned", cen.unassigned_count)
    failures: list[str] = []
    if coloring.is_total:
        rainbows = rainbow_lines(coloring)
        _emit("rf", "true" if not rainbows else "false")
        minimal = is_minimal(coloring)
        _emit("minimal", "true" if minimal else "false")
        if rainbows:
            _emit("rainbow_count", len(rainbows))
            _emit("first_rainbow", rainbows[0])
        if args.expect_rf and rainbows:
            failures.append(f"expected rainbow-free, found rainbow line {rainbows[0]}")
        if args.expect_minimal and not minimal:
            failures.append("expected a minimal coloring")
    else:
        _emit("rf", "unknown")
        if args.expect_rf:
            failures.append(f"{cen.unassigned_count} cells unassigned, cannot be rainbow-free")
        if args.expect_minimal:
            failures.append(f"{cen.unassigned_count} cells unassigned, cannot be minimal")
    if args.expect_colors is not None and cen.distinct_count != args.expect_colors:
        failures.append(f"expected {args.expect_colors} colors, found {cen.distinct_count}")
    for failure in failures:
        _emit("failure", failure)
    _emit("verified", "true" if not failures else "false")
    return EXIT_OK if not failures else EXIT_CLAIM_FAILS


# The construct flags, besides -o, that each kind does not read.
_UNREAD_BY_KIND = {
    "digit-position": ("base", "stacking_coord", "points"),
    "recursive": ("k", "n", "points"),
    "singleton": ("base", "stacking_coord"),
}


def cmd_construct(args: argparse.Namespace) -> int:
    _reject_unread(args, _UNREAD_BY_KIND[args.kind], f"construct {args.kind}")
    if args.kind == "digit-position":
        _require(args.k is not None and args.n is not None, "--k and --n are required")
        coloring = digit_position_coloring(CubeShape(args.k, args.n))
        detail = "digit-position"
    elif args.kind == "recursive":
        _require(args.base is not None, "--base is required")
        base = parse(Path(args.base).read_text())
        coord = 1 if args.stacking_coord is None else args.stacking_coord
        coloring = stack_recursive(base, coord)
        detail = f"recursive over {args.base}"
    else:
        _require(args.k is not None and args.n is not None, "--k and --n are required")
        _require(args.points is not None, "--points is required")
        special = _parse_points(args.points)
        coloring = singleton_set_coloring(CubeShape(args.k, args.n), special)
        detail = "singleton-set"
    if not is_rainbow_free(coloring):
        raise ConstructionError("self-verification failed: construction has a rainbow line")
    cen = census(coloring)
    comment = f"{detail} coloring, {cen.distinct_count} colors, rainbow-free"
    if args.output:
        _write_coloring(args.output, coloring, comment)
        _emit("subcommand", f"construct.{args.kind}")
        _emit("k", coloring.shape.k)
        _emit("n", coloring.shape.n)
        _emit("colors", cen.distinct_count)
        _emit("rf", "true")
        _emit("output", args.output)
    else:
        sys.stdout.write(serialize(coloring, comment))
    return EXIT_OK


def _report(args: argparse.Namespace, outcome: SearchOutcome, head, body, comment: str) -> int:
    """Print the record of a search: the `head` pairs, the budget flags,
    the status, the `body` pairs, the certificate and the wall time.  The
    witness goes to `--certificate` first, under `comment`, so a path that
    cannot be written leaves stdout empty.  Exit 0 for a decided status,
    3 for an exhausted budget."""
    certificate = args.certificate if outcome.witness is not None else None
    if certificate:
        _write_coloring(certificate, outcome.witness, comment)
    limits = [(key, getattr(args, key)) for key in ("time_limit", "node_limit")]
    for key, value in (*head, *limits, ("status", outcome.status.name), *body):
        _emit(key, "none" if value is None else value)  # None: a flag not given
    if certificate:
        _emit("certificate", certificate)
    _emit("wall_time", f"{outcome.wall_time:.3f}")
    return EXIT_OK if outcome.status in (Status.OPTIMAL, Status.INFEASIBLE) else EXIT_BUDGET


def cmd_search(args: argparse.Namespace) -> int:
    outcome = max_rf_colors(CubeShape(args.k, args.n), _search_config(args))
    head = [("subcommand", "search.max-colors"), ("k", args.k), ("n", args.n)]
    body = [("value", outcome.best_value), ("nodes", outcome.nodes_explored)]
    comment = f"search witness: rainbow-free {outcome.best_value}-coloring"
    return _report(args, outcome, head, body, comment)


def cmd_enumerate(args: argparse.Namespace) -> int:
    # Every input check runs and every file is written before the first
    # record, so a usage error or an unwritable --out-dir leaves stdout empty.
    shape = CubeShape(args.k, args.n)
    if args.independent_size is not None:
        _reject_unread(args, ("colors", "minimal_only", "out_dir"), "--independent-size")
        found = enumerate_independent_sets(
            shape, args.independent_size, up_to_symmetry=args.up_to_symmetry
        )
    else:
        _require(args.colors is not None, "one of --colors or --independent-size is required")
        _require(args.minimal_only, "only minimal colorings are enumerable; pass --minimal-only")
        found = enumerate_minimal_rf(shape, args.colors, up_to_symmetry=args.up_to_symmetry)
    written = []
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, coloring in enumerate(found, start=1):
            path = out_dir / f"minimal-rf-{args.colors}col-{i:03d}.ahj"
            _write_coloring(
                str(path),
                coloring,
                f"minimal rainbow-free {args.colors}-coloring "
                f"of [{args.k}]^{args.n}, {i} of {len(found)}",
            )
            written.append(path)
    _emit("subcommand", "enumerate")
    _emit("k", args.k)
    _emit("n", args.n)
    if args.independent_size is not None:
        for points in found:
            _emit("set", ",".join(str(p) for p in points))
    for path in written:
        _emit("output", path)
    _emit("count", len(found))
    return EXIT_OK


def cmd_complete(args: argparse.Namespace) -> int:
    partial = parse(Path(args.file).read_text())
    outcome = complete(partial, args.total_colors, _search_config(args))
    head = [("subcommand", "complete"), ("file", args.file), ("total_colors", args.total_colors)]
    body = [("nodes", outcome.nodes_explored)]
    # Only an INFEASIBLE outcome carries a certificate.
    cert = outcome.certificate
    if isinstance(cert, ForcedCell):
        body += [("forced_cell", cert.point)]
        body += [("witness_line", witness) for witness in cert.witnesses]
    elif cert is not None:
        body += [("rainbow_line", cert)]
    comment = f"completion witness: rainbow-free {args.total_colors}-coloring"
    return _report(args, outcome, head, body, comment)


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.time_limit is not None and not args.recompute:
        raise BoundsError("--time-limit applies only with --recompute")
    if args.time_limit is not None and not args.time_limit > 0:
        raise BoundsError("--time-limit must be positive")
    report = bounds_table(args.k, args.n_max)
    rows = list(report.rows)
    if args.recompute:
        time_limit = RECOMPUTE_TIME_LIMIT if args.time_limit is None else args.time_limit
        deadline = time.monotonic() + time_limit
        rows = [_recompute_row(args.k, row, deadline) for row in rows]
    header = f"{'n':>3} {'lower':>7} {'upper':>7}  {'lower_source':<22} {'upper_source':<22}"
    print(header)
    for row in rows:
        print(
            f"{row.n:>3} {row.lower:>7} {row.upper:>7}  "
            f"{row.lower_source:<22} {row.upper_source:<22}"
        )
    for row in rows:
        print(
            f"n={row.n} lower={row.lower} upper={row.upper} "
            f"lower_source={row.lower_source} upper_source={row.upper_source}"
        )
    return EXIT_OK


def _recompute_row(k, row, deadline):
    """`row` re-derived by a search with the time left before `deadline`;
    `row` itself for a grid of over 32 points, with no time left, or when
    the search does not finish."""
    shape = CubeShape(k, row.n)
    time_left = deadline - time.monotonic()
    if shape.point_count > 32 or time_left <= 0:
        return row
    outcome = max_rf_colors(shape, SearchConfig(time_limit=time_left))
    if outcome.status is not Status.OPTIMAL:
        return row
    value = outcome.best_value + 1
    return BoundsRow(row.n, value, value, "recomputed-search", "recomputed-search")


def _parse_points(text: str) -> list[int]:
    # ASCII digits only: int() would also take "٣", "1_0" and "+3".
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not all(tok.isascii() and tok.isdecimal() for tok in tokens):
        raise ConstructionError(f"bad point list {text!r}; expected comma-separated integers")
    return [int(tok) for tok in tokens]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SearchError(message)


def _reject_unread(args: argparse.Namespace, names: tuple[str, ...], context: str) -> None:
    """A usage error for the first of the flags `names` that was passed,
    since `context` would ignore it."""
    for name in names:
        value = getattr(args, name)
        flag = "--" + name.replace("_", "-")
        _require(value is None or value is False, f"{flag} does not apply to {context}")


def _timed(func, *args):
    started = time.monotonic()
    result = func(*args)
    return result, time.monotonic() - started


def _slow(what: str, elapsed: float, limit: float) -> str:
    return f"{what} took {elapsed:.2f}s (limit {limit:g}s)"


def _witness_fault(outcome: SearchOutcome) -> str | None:
    """Why a search's witness fails to verify, or None if it verifies."""
    witness = outcome.witness
    if not is_rainbow_free(witness):
        return "search witness fails self-verification"
    if census(witness).distinct_count != outcome.best_value:
        return f"search witness census differs from the value {outcome.best_value}"
    relabeled = canonical_relabel(witness)
    if canonical_relabel(relabeled).colors != relabeled.colors:
        return "canonical form is not idempotent"
    return None


# The serial search tree of the full [3]^3 proof is fixed, so claim 1 also
# pins its node count.
_CUBE_PROOF_NODES = 625_462


def _check_exact_values() -> tuple[bool, str]:
    config = SearchConfig(time_limit=900.0)
    parts = []
    for n, value, limit in ((1, 2, 1.0), (2, 4, 1.0), (3, 10, 900.0)):
        outcome, elapsed = _timed(max_rf_colors, CubeShape(3, n), config)
        parts.append(f"[3]^{n}:{outcome.best_value}/{outcome.status.name}")
        if outcome.status is not Status.OPTIMAL or outcome.best_value != value:
            return False, " ".join(parts)
        if elapsed >= limit:
            return False, _slow(f"[3]^{n}", elapsed, limit)
    detail = " ".join(parts) + f"; [3]^3 nodes={outcome.nodes_explored}"
    if outcome.nodes_explored != _CUBE_PROOF_NODES:
        return False, f"{detail} (want {_CUBE_PROOF_NODES})"
    fault = _witness_fault(outcome)
    if fault is not None:
        return False, f"[3]^3 {fault}"
    return True, detail + ", witness verified"


def _check_two_symbol() -> tuple[bool, str]:
    config = SearchConfig(time_limit=10.0)
    for n in range(1, 5):
        outcome, elapsed = _timed(max_rf_colors, CubeShape(2, n), config)
        if outcome.status is not Status.OPTIMAL or outcome.best_value != 1:
            return False, f"[2]^{n} gave {outcome.best_value}/{outcome.status.name}"
        if elapsed >= 10.0:
            return False, _slow(f"[2]^{n}", elapsed, 10.0)
    return True, "[2]^1..4 all optimal at 1"


def _check_oracle() -> tuple[bool, str]:
    for k, n in ((2, 2), (2, 3), (3, 1), (3, 2)):
        shape = CubeShape(k, n)
        fast = max_rf_colors(shape).best_value
        slow = naive_max_rf_colors(shape)
        if fast != slow:
            return False, f"[{k}]^{n}: search {fast} != oracle {slow}"
    return True, "search equals all-partitions oracle on 4 shapes"


# (n, size, seconds): independent sets of the given size in [3]^n and the
# time one enumeration may take.
_ENUMERATIONS = ((2, 3, 1.0), (3, 9, 600.0), (3, 10, 600.0))


def _check_enumeration() -> tuple[bool, str]:
    counts = []
    for n, size, limit in _ENUMERATIONS:
        sets, elapsed = _timed(enumerate_independent_sets, CubeShape(3, n), size)
        if elapsed >= limit:
            return False, _slow(f"size {size}", elapsed, limit)
        counts.append(len(sets))
    c1, c2, c3 = counts
    ok = (c1, c2, c3) == (5, 2, 0)
    return ok, f"sizes 3/9/10 -> {c1}/{c2}/{c3} (want 5/2/0)"


def _check_constructions() -> tuple[bool, str]:
    started = time.monotonic()
    for k in (3, 4, 5):
        for n in (2, 3, 4):
            base = digit_position_coloring(CubeShape(k, n))
            if not is_rainbow_free(base):
                return False, f"digit-position [{k}]^{n} not rainbow-free"
            c = census(base).distinct_count
            if c != (k - 1) ** n:
                return False, f"digit-position [{k}]^{n} has {c} colors"
            stacked = stack_recursive(base)
            if not is_rainbow_free(stacked):
                return False, f"stack over [{k}]^{n} not rainbow-free"
            if census(stacked).distinct_count != (k - 2) * c + 1:
                return False, f"stack over [{k}]^{n} has wrong census"
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        return False, _slow("constructions", elapsed, 60.0)
    return True, "digit-position and stacking verified for k=3..5, n=2..4"


def _check_arrangements() -> tuple[bool, str]:
    arrangements = two_layer_arrangements()
    if len(arrangements) != 6:
        return False, f"{len(arrangements)} arrangements (want 6)"
    for i, arrangement in enumerate(arrangements):
        forced, t_cell = _timed(find_forced_cell, arrangement)
        if forced is None:
            return False, f"arrangement {i} has no forced cell"
        outcome, t_done = _timed(complete, arrangement, 27, SearchConfig(time_limit=60.0))
        if outcome.status is not Status.INFEASIBLE:
            return False, f"arrangement {i} completion gave {outcome.status.name}"
        for step, elapsed in (("forced cell", t_cell), ("completion", t_done)):
            if elapsed >= 60.0:
                return False, _slow(f"arrangement {i} {step}", elapsed, 60.0)
    return True, "all 6 arrangements have forced cells and refuse 27 colors"


def _check_bounds() -> tuple[bool, str]:
    rows = [(r.lower, r.upper) for r in bounds_table(3, 5).rows]
    if rows != [(3, 3), (5, 5), (11, 11), (24, 27), (33, 77)]:
        return False, f"table rows {rows}"
    for k in range(3, 7):
        for n in range(1, 11):
            if geometric_upper(k, n) != iterated_upper(k, 1, k, n):
                return False, f"closed form != recursion at k={k}, n={n}"
    for n in range(4, 11):
        if refined_upper_3(n) != iterated_upper(3, 4, 27, n):
            return False, f"refined bound != recursion at n={n}"
    return True, "table [3,3],[5,5],[11,11],[24,27],[33,77]; identities hold"


def _check_fixtures() -> tuple[bool, str]:
    specs = [
        ("square-rf-4.ahj", 4),
        ("cube-rf-10-a.ahj", 10),
        ("cube-rf-10-b.ahj", 10),
        ("hypercube-rf-23.ahj", 23),
    ]
    for name, colors in specs:
        coloring = load_fixture(name)
        if not is_rainbow_free(coloring):
            return False, f"{name} is not rainbow-free"
        if census(coloring).distinct_count != colors:
            return False, f"{name} does not have {colors} colors"
    enumerated = {c.colors for c in enumerate_minimal_rf(CubeShape(3, 3), 10)}
    shipped = {
        canonical_relabel(load_fixture(n)).colors
        for n in ("cube-rf-10-a.ahj", "cube-rf-10-b.ahj")
    }
    if shipped != enumerated:
        return False, "cube fixtures are not the two enumerated 10-colorings"
    return True, "4 fixtures verified; cube pair matches enumeration"


def _generator_index_maps(shape: CubeShape) -> list[tuple[int, ...]]:
    """Index maps of the adjacent coordinate transpositions and the adjacent
    symbol transpositions, which together generate the n!*k! group, built
    from point coordinates rather than the group's index arithmetic."""
    points = [point_from_index(i, shape).coords for i in shape.iter_indices()]
    images = [
        [c[:t] + (c[t + 1], c[t]) + c[t + 2 :] for c in points] for t in range(shape.n - 1)
    ]
    for s in range(1, shape.k):
        swap = {s: s + 1, s + 1: s}
        images.append([tuple(swap.get(v, v) for v in c) for c in points])
    return [tuple(point_index(c, shape) for c in image) for image in images]


def _lines_invariant(shape: CubeShape, lines) -> bool:
    """Whether every generator of the symmetry group maps the line table
    onto itself, so that the whole group does."""
    table = {tuple(sorted(idxs)) for idxs in lines}
    return all(
        {tuple(sorted(mapping[i] for i in idxs)) for idxs in lines} == table
        for mapping in _generator_index_maps(shape)
    )


def _lines_meet_layers(shape: CubeShape, lines) -> bool:
    """Whether each of the first 40 lines meets every layer of its first star
    coordinate once, that is, takes each digit of that coordinate once."""
    digits = list(range(shape.k))
    for template, idxs in zip(template_table(shape)[:40], lines):
        weight = shape.weights[min(template.star_set)]
        if sorted(i // weight % shape.k for i in idxs) != digits:
            return False
    return True


def _check_invariants() -> tuple[bool, str]:
    started = time.monotonic()
    for k in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            shape = CubeShape(k, n)
            if shape.point_count > 700:
                continue
            if line_count(shape) != ((k + 1) ** n - k**n):
                return False, f"line count formula fails on [{k}]^{n}"
            lines = line_index_table(shape)
            if not _lines_invariant(shape, lines):
                return False, f"automorphism breaks lines on [{k}]^{n}"
            if not _lines_meet_layers(shape, lines):
                return False, f"a line misses a layer of its star coordinate on [{k}]^{n}"
    fault = _witness_fault(max_rf_colors(CubeShape(3, 2)))
    if fault is not None:
        return False, f"[3]^2 {fault}"
    elapsed = time.monotonic() - started
    if elapsed >= 300.0:
        return False, _slow("invariants", elapsed, 300.0)
    return True, "line counts, generator images, star layers, [3]^2 witness checks hold"


def _check_determinism() -> tuple[bool, str]:
    """Search each small shape twice and enumerate each size twice; both
    runs must agree in every field but the wall time."""
    small = ((3, 1, 2), (3, 2, 4), (2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 4, 1))
    config = SearchConfig(time_limit=60.0)
    for k, n, value in small:
        first, second = (
            (o.status.name, o.best_value, o.witness.colors, o.nodes_explored)
            for o in (max_rf_colors(CubeShape(k, n), config) for _ in range(2))
        )
        if first[:2] != (Status.OPTIMAL.name, value):
            return False, f"[{k}]^{n} gave {first[1]}/{first[0]}"
        if first != second:
            return False, f"[{k}]^{n} differs between runs: {first} != {second}"
    first, second = (
        [enumerate_independent_sets(CubeShape(3, n), size) for n, size, _ in _ENUMERATIONS]
        for _ in range(2)
    )
    if first != second:
        return False, "independent-set enumeration is not reproducible"
    return True, "6 shapes repeat status, value, witness and nodes; enumerations repeat"


# (label, check) in claim order.  A check takes no argument and returns
# (holds, detail).
CLAIMS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("exact values [3]^1..3 by search", _check_exact_values),
    ("two-symbol cubes force 2 colors", _check_two_symbol),
    ("search equals naive oracle", _check_oracle),
    ("independent-set counts 5/2/0", _check_enumeration),
    ("construction censuses", _check_constructions),
    ("two-layer arrangements refuse 27", _check_arrangements),
    ("bounds table and identities", _check_bounds),
    ("bundled fixtures verify", _check_fixtures),
    ("structural invariants", _check_invariants),
    ("determinism across runs", _check_determinism),
)


def _claim_numbers(text: str) -> frozenset[int]:
    """Parse `repro --only`: comma-separated claim numbers 1..len(CLAIMS)."""
    tokens = [token.strip() for token in text.split(",")]
    # ASCII digits only: int() would also take "٣" and "３".
    if not all(
        token.isascii() and token.isdecimal() and 1 <= int(token) <= len(CLAIMS)
        for token in tokens
    ):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated claim numbers 1..{len(CLAIMS)}, got {text!r}"
        )
    return frozenset(map(int, tokens))


def cmd_repro(args: argparse.Namespace) -> int:
    failures = 0
    for i, (label, check) in enumerate(CLAIMS, start=1):
        if args.only is not None and i not in args.only:
            continue
        started = time.monotonic()
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001 - report, do not abort the suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - started
        verdict = "PASS" if ok else "FAIL"
        print(f"claim {i:2d} {verdict} {elapsed:7.2f}s  {label}: {detail}")
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_CLAIM_FAILS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahj",
        description="Exact search and verification for rainbow-free hypercube colorings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lines", help="count or list combinatorial line templates")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_lines)

    p = sub.add_parser("verify", help="check a coloring file against expectations")
    p.add_argument("file")
    p.add_argument("--expect-rf", action="store_true")
    p.add_argument("--expect-colors", type=int, default=None)
    p.add_argument("--expect-minimal", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="build a rainbow-free coloring")
    p.add_argument("kind", choices=["digit-position", "recursive", "singleton"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--base", default=None, help="base coloring file for kind=recursive")
    p.add_argument("--stacking-coord", type=int, default=None)
    p.add_argument("--points", default=None, help="comma-separated indices for kind=singleton")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="run the exact branch-and-bound search")
    p.add_argument("mode", choices=["max-colors"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--certificate", default=None, help="write the witness coloring here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="enumerate independent sets or minimal colorings")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", type=int, default=None)
    p.add_argument("--minimal-only", action="store_true")
    p.add_argument("--independent-size", type=int, default=None)
    p.add_argument("--up-to-symmetry", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("complete", help="extend a partial coloring to a color target")
    p.add_argument("file")
    p.add_argument("--total-colors", type=int, required=True)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--certificate", default=None, help="write the completion here")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("bounds", help="print the best-known bounds table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--recompute", action="store_true")
    p.add_argument("--time-limit", type=float, default=None,
                   help=f"search budget for the whole of --recompute, shared by "
                   f"its entries (default {RECOMPUTE_TIME_LIMIT:g} s)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("repro", help="re-verify the package's headline claims")
    p.add_argument("--only", type=_claim_numbers, default=None,
                   help="comma-separated claim numbers")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ShapeError, ColoringError, ConstructionError, SearchError, BoundsError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        witness = getattr(exc, "witness", None)
        if witness is not None:
            print(f"witnessing line: {witness}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
