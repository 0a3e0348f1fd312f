"""The ten headline claims that ``ahj repro`` and the acceptance tests run.

``CLAIMS`` is the numbered table; each check takes no argument and returns
(holds, detail).  A search step passes its time limit to the search as a
`SearchConfig`, so a search that runs long stops and its status fails the
claim; a step whose call takes no budget is timed after it returns.

The checks call the other modules through their module names, so a
wrapper installed on a module attribute sees the calls.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from . import bounds, coloring, constructions, fixtures, hypercube, search
from .hypercube import CubeShape
from .search import SearchConfig, SearchOutcome, Status

# (k, n, value, seconds): the exact values max_rf_colors proves for small
# shapes, and the time limit of each proof.
_EXACT_VALUES = (
    (3, 1, 2, 1.0),
    (3, 2, 4, 1.0),
    (3, 3, 10, 60.0),
    (2, 1, 1, 10.0),
    (2, 2, 1, 10.0),
    (2, 3, 1, 10.0),
    (2, 4, 1, 10.0),
)

# The serial search tree of the full [3]^3 proof is fixed, so claim 1 also
# pins its node count.  The tree is cut by the layer cap ah(3, 2) - 1 = 4
# that `bounds.known_value` gives, and claim 1 proves that value on [3]^2
# before it runs [3]^3; claim 3 checks it against the naive oracle.
_CUBE_PROOF_NODES = 6_827

# (n, size, seconds): independent sets of the given size in [3]^n and the
# time one enumeration may take.
_ENUMERATIONS = ((2, 3, 1.0), (3, 9, 600.0), (3, 10, 600.0))


def _timed(func, *args):
    started = time.monotonic()
    result = func(*args)
    return result, time.monotonic() - started


def _slow(what: str, elapsed: float, limit: float) -> str:
    return f"{what} took {elapsed:.2f}s (limit {limit:g}s)"


def _witness_fault(outcome: SearchOutcome) -> str | None:
    """Why a search's witness fails to verify, or None if it verifies."""
    witness = outcome.witness
    if not coloring.is_rainbow_free(witness):
        return "search witness fails self-verification"
    if coloring.census(witness).distinct_count != outcome.best_value:
        return f"search witness census differs from the value {outcome.best_value}"
    relabeled = coloring.canonical_relabel(witness)
    if coloring.canonical_relabel(relabeled).colors != relabeled.colors:
        return "canonical form is not idempotent"
    return None


def _check_exact_values() -> tuple[bool, str]:
    parts = []
    for k, n, value, limit in _EXACT_VALUES:
        if k != 3:
            continue
        outcome = search.max_rf_colors(CubeShape(k, n), SearchConfig(time_limit=limit))
        parts.append(f"[3]^{n}:{outcome.best_value}/{outcome.status.name}")
        if outcome.status is not Status.OPTIMAL or outcome.best_value != value:
            return False, " ".join(parts)
    detail = " ".join(parts) + f"; [3]^3 nodes={outcome.nodes_explored}"
    if outcome.nodes_explored != _CUBE_PROOF_NODES:
        return False, f"{detail} (want {_CUBE_PROOF_NODES})"
    fault = _witness_fault(outcome)
    if fault is not None:
        return False, f"[3]^3 {fault}"
    return True, detail + ", witness verified"


def _check_two_symbol() -> tuple[bool, str]:
    for k, n, value, limit in _EXACT_VALUES:
        if k != 2:
            continue
        outcome = search.max_rf_colors(CubeShape(k, n), SearchConfig(time_limit=limit))
        if outcome.status is not Status.OPTIMAL or outcome.best_value != value:
            return False, f"[2]^{n} gave {outcome.best_value}/{outcome.status.name}"
    return True, "[2]^1..4 all optimal at 1"


def _check_oracle() -> tuple[bool, str]:
    for k, n in ((2, 2), (2, 3), (3, 1), (3, 2)):
        shape = CubeShape(k, n)
        fast = search.max_rf_colors(shape).best_value
        slow = search.naive_max_rf_colors(shape)
        if fast != slow:
            return False, f"[{k}]^{n}: search {fast} != oracle {slow}"
    return True, "search equals all-partitions oracle on 4 shapes"


def _check_enumeration() -> tuple[bool, str]:
    counts = []
    for n, size, limit in _ENUMERATIONS:
        sets, elapsed = _timed(search.enumerate_independent_sets, CubeShape(3, n), size)
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
            base = constructions.digit_position_coloring(CubeShape(k, n))
            if not coloring.is_rainbow_free(base):
                return False, f"digit-position [{k}]^{n} not rainbow-free"
            c = coloring.census(base).distinct_count
            if c != (k - 1) ** n:
                return False, f"digit-position [{k}]^{n} has {c} colors"
            stacked = constructions.stack_recursive(base)
            if not coloring.is_rainbow_free(stacked):
                return False, f"stack over [{k}]^{n} not rainbow-free"
            if coloring.census(stacked).distinct_count != (k - 2) * c + 1:
                return False, f"stack over [{k}]^{n} has wrong census"
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        return False, _slow("constructions", elapsed, 60.0)
    return True, "digit-position and stacking verified for k=3..5, n=2..4"


def _check_arrangements() -> tuple[bool, str]:
    arrangements = search.two_layer_arrangements()
    if len(arrangements) != 6:
        return False, f"{len(arrangements)} arrangements (want 6)"
    config = SearchConfig(time_limit=60.0)
    for i, arrangement in enumerate(arrangements):
        forced, elapsed = _timed(search.find_forced_cell, arrangement)
        if forced is None:
            return False, f"arrangement {i} has no forced cell"
        if elapsed >= 60.0:
            return False, _slow(f"arrangement {i} forced cell", elapsed, 60.0)
        outcome = search.complete(arrangement, 27, config)
        if outcome.status is not Status.INFEASIBLE:
            return False, f"arrangement {i} completion gave {outcome.status.name}"
    return True, "all 6 arrangements have forced cells and refuse 27 colors"


def _check_bounds() -> tuple[bool, str]:
    rows = [(r.lower, r.upper) for r in bounds.bounds_table(3, 5).rows]
    if rows != [(3, 3), (5, 5), (11, 11), (24, 27), (33, 77)]:
        return False, f"table rows {rows}"
    for k in range(3, 7):
        for n in range(1, 11):
            if bounds.geometric_upper(k, n) != bounds.iterated_upper(k, 1, k, n):
                return False, f"closed form != recursion at k={k}, n={n}"
    for n in range(4, 11):
        if bounds.refined_upper_3(n) != bounds.iterated_upper(3, 4, 27, n):
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
        fixture = fixtures.load_fixture(name)
        if not coloring.is_rainbow_free(fixture):
            return False, f"{name} is not rainbow-free"
        if coloring.census(fixture).distinct_count != colors:
            return False, f"{name} does not have {colors} colors"
    enumerated = {c.colors for c in search.enumerate_minimal_rf(CubeShape(3, 3), 10)}
    shipped = {
        coloring.canonical_relabel(fixtures.load_fixture(n)).colors
        for n in ("cube-rf-10-a.ahj", "cube-rf-10-b.ahj")
    }
    if shipped != enumerated:
        return False, "cube fixtures are not the two enumerated 10-colorings"
    return True, "4 fixtures verified; cube pair matches enumeration"


def _generator_index_maps(shape: CubeShape) -> list[tuple[int, ...]]:
    """Index maps of the adjacent coordinate transpositions and the adjacent
    symbol transpositions, which together generate the n!*k! group, built
    from each index's digits rather than the group's index arithmetic.

    Swapping coordinates t and t + 1, of weights w[t] and w[t + 1], moves
    index i by (d[t + 1] - d[t]) * (w[t] - w[t + 1]), with d its digits;
    swapping symbols s and s + 1 swaps the digits s - 1 and s."""
    k, weights = shape.k, shape.weights
    digits = [[i // w % k for w in weights] for i in shape.iter_indices()]
    maps = [
        tuple(i + (d[t + 1] - d[t]) * (weights[t] - weights[t + 1]) for i, d in enumerate(digits))
        for t in range(shape.n - 1)
    ]
    for s in range(1, k):
        swap = {s - 1: s, s: s - 1}
        maps.append(tuple(sum(swap.get(v, v) * w for v, w in zip(d, weights)) for d in digits))
    return maps


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
    for idxs, template in zip(lines[:40], hypercube.enumerate_lines(shape)):
        weight = shape.weights[template.cells.index(hypercube.STAR)]
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
            if hypercube.line_count(shape) != ((k + 1) ** n - k**n):
                return False, f"line count formula fails on [{k}]^{n}"
            lines = hypercube.line_index_table(shape)
            if not _lines_invariant(shape, lines):
                return False, f"automorphism breaks lines on [{k}]^{n}"
            if not _lines_meet_layers(shape, lines):
                return False, f"a line misses a layer of its star coordinate on [{k}]^{n}"
    fault = _witness_fault(search.max_rf_colors(CubeShape(3, 2)))
    if fault is not None:
        return False, f"[3]^2 {fault}"
    elapsed = time.monotonic() - started
    if elapsed >= 300.0:
        return False, _slow("invariants", elapsed, 300.0)
    return True, "line counts, generator images, star layers, [3]^2 witness checks hold"


def _check_determinism() -> tuple[bool, str]:
    """Search each small shape twice and enumerate each size twice; both
    runs must agree in every field but the wall time."""
    config = SearchConfig(time_limit=60.0)
    for k, n, value, _ in _EXACT_VALUES:
        if (k, n) == (3, 3):  # the full proof runs once, in claim 1
            continue
        first, second = (
            (o.status.name, o.best_value, o.witness.colors, o.nodes_explored)
            for o in (search.max_rf_colors(CubeShape(k, n), config) for _ in range(2))
        )
        if first[:2] != (Status.OPTIMAL.name, value):
            return False, f"[{k}]^{n} gave {first[1]}/{first[0]}"
        if first != second:
            return False, f"[{k}]^{n} differs between runs: {first} != {second}"
    first, second = (
        [search.enumerate_independent_sets(CubeShape(3, n), size) for n, size, _ in _ENUMERATIONS]
        for _ in range(2)
    )
    if first != second:
        return False, "independent-set enumeration is not reproducible"
    return True, "6 shapes repeat status, value, witness and nodes; enumerations repeat"


# (label, check) in claim order.
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
