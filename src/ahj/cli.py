"""Command-line driver for enumeration, verification, construction, search,
bounds, and claim reproduction.

Results print as ``key=value`` lines so runs can be scripted and diffed;
the search is serial, so the wall_time field is the only line that varies
between identical invocations.  Exit codes are a stable contract: 0 for
success or claim-holds, 1 for claim-fails, 2 for usage or input errors,
3 for an exhausted search budget.

``ahj repro`` runs the table of headline claims in ``ahj.repro``, the same
table the acceptance tests run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import repro
from .bounds import BoundsError, BoundsRow, bounds_table
from .coloring import (
    Coloring,
    ColoringError,
    ParseError,
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
from .hypercube import CubeShape, ShapeError, enumerate_lines, line_count, point_name
from .search import (
    ForcedCell,
    SearchConfig,
    SearchError,
    SearchOutcome,
    Status,
    complete,
    enumerate_independent_sets,
    enumerate_minimal_rf,
    max_rf_colors,
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


def _read_coloring(path: str) -> Coloring:
    """The coloring in the file at `path`.  Bytes that are not UTF-8 are a
    ParseError at their line, like any other malformed input."""
    data = Path(path).read_bytes()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", line) from None


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
    coloring = _read_coloring(args.file)
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
        base = _read_coloring(args.base)
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
    partial = _read_coloring(args.file)
    outcome = complete(partial, args.total_colors, _search_config(args))
    head = [("subcommand", "complete"), ("file", args.file), ("total_colors", args.total_colors)]
    body = [("nodes", outcome.nodes_explored)]
    # Only an INFEASIBLE outcome carries a certificate.
    cert = outcome.certificate
    if isinstance(cert, ForcedCell):
        body += [("forced_cell", point_name(cert.point, partial.shape))]
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
    # A bound too long to print is refused by bounds_table, at the first
    # row that has one, so it is an input error with nothing printed.
    report = bounds_table(args.k, args.n_max)
    rows = list(report.rows)
    if args.recompute:
        time_limit = RECOMPUTE_TIME_LIMIT if args.time_limit is None else args.time_limit
        deadline = time.monotonic() + time_limit
        rows = [_recompute_row(args.k, row, deadline) for row in rows]
    header = f"{'n':>3} {'lower':>7} {'upper':>7}  {'lower_source':<22} {'upper_source':<22}"
    table = [
        f"{row.n:>3} {row.lower:>7} {row.upper:>7}  "
        f"{row.lower_source:<22} {row.upper_source:<22}"
        for row in rows
    ]
    records = [
        f"n={row.n} lower={row.lower} upper={row.upper} "
        f"lower_source={row.lower_source} upper_source={row.upper_source}"
        for row in rows
    ]
    print("\n".join([header, *table, *records]))
    return EXIT_OK


def _recompute_row(k, row, deadline):
    """`row` re-derived by a search with the time left before `deadline`;
    `row` itself for a grid of over 32 points, with no time left, or when
    the search does not finish."""
    # k**n before the shape, which refuses a grid past the index budget.
    time_left = deadline - time.monotonic()
    if k**row.n > 32 or time_left <= 0:
        return row
    outcome = max_rf_colors(CubeShape(k, row.n), SearchConfig(time_limit=time_left))
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


def _claim_numbers(text: str) -> frozenset[int]:
    """Parse `repro --only`: comma-separated claim numbers 1..len(repro.CLAIMS)."""
    tokens = [token.strip() for token in text.split(",")]
    # ASCII digits only: int() would also take "٣" and "３".
    if not all(
        token.isascii() and token.isdecimal() and 1 <= int(token) <= len(repro.CLAIMS)
        for token in tokens
    ):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated claim numbers 1..{len(repro.CLAIMS)}, got {text!r}"
        )
    return frozenset(map(int, tokens))


def cmd_repro(args: argparse.Namespace) -> int:
    failures = 0
    for i, (label, check) in enumerate(repro.CLAIMS, start=1):
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
