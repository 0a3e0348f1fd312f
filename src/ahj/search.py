"""Exact search: maximum-color rainbow-free colorings and completions.

The optimization runs over class partitions instead of colorings: a total
coloring is rainbow-free iff every line carries two same-class points, and
maximizing colors is minimizing class merges.  Branch and bound explores
merge decisions over a quick-find union-find, copied at each branch, with
exclusion constraints ("these two points stay in different classes"), unit
propagation of forced merges, an admissible lower bound from a packing
of disjoint lines that the state keeps and repairs, and a cut from the
known cap on the colors of a layer.

The search is serial: one depth-first walk, so a run's node
count, value and witness are the same every time it is repeated.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, compress
from operator import itemgetter, ne
from typing import Iterator, Sequence

from .bounds import known_value
from .coloring import Coloring, canonical_relabel, census, is_rainbow_free
from .constructions import digit_position_coloring, monochromatic, singleton_set_coloring
from .hypercube import (
    CubeShape,
    LineTemplate,
    automorphism_index_maps,
    automorphism_maps,
    line_count,
    line_index_table,
    line_template,
    symmetry_table_fits,
)


class SearchError(ValueError):
    """Invalid search input or unsupported shape."""


# The most bits the `_line_masks_by_point` table of a search may hold, one
# per point and line: [2]^12 and [3]^8 fit, [2]^13 and [3]^9 do not.
_MAX_TABLE_BITS = 2**32


def _check_tables_fit(shape: CubeShape) -> None:
    """Refuse a shape whose line tables would pass `_MAX_TABLE_BITS`,
    before any table or warm start is built."""
    if shape.point_count * line_count(shape) > _MAX_TABLE_BITS:
        raise SearchError(f"search of [{shape.k}]^{shape.n} needs line tables over 2^32 bits")


@contextmanager
def _depth_guard(shape: CubeShape):
    """Report a search that nests deeper than Python's recursion limit, one
    frame per chosen point or filled cell, as a SearchError naming the
    shape.  The limit is left as it is: deep `yield from` chains recurse in
    C, so a higher one could overflow the C stack."""
    try:
        yield
    except RecursionError:
        raise SearchError(f"search of [{shape.k}]^{shape.n} nests too deeply") from None


class Status(Enum):
    OPTIMAL = "OPTIMAL"
    FEASIBLE_ONLY = "FEASIBLE_ONLY"
    INFEASIBLE = "INFEASIBLE"
    TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
class SearchConfig:
    """Budgets of one search.

    `node_limit`, a positive int, counts search nodes only: branch-and-bound
    nodes in `max_rf_colors` and cell-filling nodes in `complete`.  The
    k = 3 warm start of `max_rf_colors` keeps its own fixed budget of
    3,000,000 backtracking nodes, which `node_limit` does not shorten.
    `time_limit` (seconds) bounds the warm start and the search alike.

    The search runs on one worker.  `worker_count` remains so that callers
    that pass `worker_count=1`, such as the benchmark workloads, keep
    working; any other value is rejected rather than ignored.
    """

    time_limit: float | None = None
    worker_count: int = 1
    node_limit: int | None = None

    def __post_init__(self) -> None:
        # Written so that NaN, which no clock reading ever reaches, fails; a
        # bool is an int to Python but not a number of seconds.
        limit = self.time_limit
        if limit is not None and (
            type(limit) is bool or not isinstance(limit, (int, float)) or not limit > 0
        ):
            raise SearchError("time_limit must be a positive number")
        if self.worker_count != 1:
            raise SearchError("worker_count must be 1: the search is serial")
        # An int, since the node count meets the limit by equality.
        limit = self.node_limit
        if limit is not None and (type(limit) is not int or limit <= 0):
            raise SearchError("node_limit must be a positive int")


@dataclass(frozen=True)
class ForcedCell:
    """A free cell whose constraining lines admit no color at all.  `point`
    is the cell's index; `hypercube.point_name` names it."""

    point: int
    witnesses: tuple[LineTemplate, ...]


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    best_value: int
    witness: Coloring | None
    nodes_explored: int
    wall_time: float
    certificate: ForcedCell | LineTemplate | None = None


class MergeState:
    """Quick-find union-find over point indices, with line bookkeeping.

    `label[x]` is the root of x's class, so a lookup is one list index.  A
    merge relabels the smaller class (union by size), walking the bits of
    its `class_points` mask.  The rest of the state is Python-int
    bitmasks, read by `_settle` instead of rescanning the lines:

    - `_incompat[r]` holds, for each forbid made on class r, the points the
      other class had then.  Classes only grow, so roots r and q are kept
      apart iff `_incompat[r] & class_points[q]` is non-zero, and every
      point in `_incompat[r]` lies in a class kept apart from r;
    - `class_points[r]` holds class r's points and `class_lines[r]` the
      lines through them;
    - `live` holds the unsatisfied lines, those whose k points lie in k
      distinct classes;
    - `dirty` holds the live lines whose count of unblocked pairs may have
      dropped since the last `_settle`.  Every live line outside it has at
      least two unblocked pairs.  A fresh state marks every line dirty;
    - `packed` holds live lines with pairwise disjoint class sets, the
      packing that the bound of `_settle` counts.  `_bound_reaches` adds
      lines to it; a fresh state packs none;
    - `reach[li]`, for each packed line li, holds its reach: the lines
      through its classes.  Entries of other lines are stale.

    A merge takes the lines through both classes out of `live` and ORs the
    two halves' exclusion masks.  A class kept apart from one half only is
    newly kept apart from the other, so the lines through that other half
    that meet such a class go into `dirty`.  A forbid puts the live lines
    through both classes there.

    A merge also repairs the packing.  A class lies on at most one packed
    line.  If one packed line holds both halves, the merge satisfies it;
    if two packed lines hold one half each, they now share a class.  Either
    way the packed line through the relabeled half goes.  If at most one
    half is on a packed line, the packed lines stay class-disjoint.  So a
    merge drops at most one packed line, and `merge_count` plus the number
    of packed lines never falls along a path.  A packed line left through
    the merged class ORs the merged class's lines into its reach, which
    already held those of the half it went through.  A forbid leaves the
    packing and the reaches as they are.

    The search branches on copies: `copy()` gives an independent state
    with its own five lists, which hold only ints, and shares the
    per-shape tables, which nothing changes.
    """

    __slots__ = (
        "shape",
        "lines",
        "pairs",
        "label",
        "merge_count",
        "class_points",
        "class_lines",
        "live",
        "dirty",
        "packed",
        "reach",
        "_incompat",
    )

    def __init__(self, shape: CubeShape):
        self.shape = shape
        self.lines = line_index_table(shape)
        self.pairs = _position_pairs(shape.k)
        count = shape.point_count
        self.label = list(range(count))
        self.merge_count = 0
        self.class_points = [1 << x for x in range(count)]
        self.class_lines = list(_line_masks_by_point(shape))
        self.live = self.dirty = (1 << len(self.lines)) - 1
        self.packed = 0
        self.reach = [0] * len(self.lines)
        self._incompat = [0] * count

    def same(self, a: int, b: int) -> bool:
        return self.label[a] == self.label[b]

    def blocked(self, a: int, b: int) -> bool:
        """True iff an anti constraint keeps a and b in different classes."""
        label = self.label
        return self._incompat[label[a]] & self.class_points[label[b]] != 0

    def forbid(self, a: int, b: int) -> None:
        """Pin the classes of a and b apart from here on."""
        ra, rb = self.label[a], self.label[b]
        if ra == rb:
            raise SearchError("cannot forbid a pair already in one class")
        incompat, class_points = self._incompat, self.class_points
        if incompat[ra] & class_points[rb]:
            return
        incompat[ra] |= class_points[rb]
        incompat[rb] |= class_points[ra]
        self.dirty |= self.class_lines[ra] & self.class_lines[rb] & self.live

    def merge(self, a: int, b: int) -> None:
        """Union the classes of a and b; the pair must be distinct and unblocked."""
        label = self.label
        ra, rb = label[a], label[b]
        if ra == rb:
            raise SearchError("merge of an already merged pair")
        incompat, class_points = self._incompat, self.class_points
        if class_points[ra].bit_count() < class_points[rb].bit_count():
            ra, rb = rb, ra
        inc_a, inc_b = incompat[ra], incompat[rb]
        if inc_a & class_points[rb]:
            raise SearchError("merge of a forbidden pair")
        class_lines = self.class_lines
        lines_a, lines_b = class_lines[ra], class_lines[rb]
        # A class kept apart from rb only blocks new pairs on ra's lines,
        # one kept apart from ra only on rb's lines; one kept apart from
        # both has points in both masks or none outside them.  Each class
        # is found through the label of the lowest point of it left.
        near_a = near_b = 0
        rest = inc_a ^ inc_b
        while rest:
            r = label[(rest & -rest).bit_length() - 1]
            points = class_points[r]
            rest &= ~points
            if not inc_a & points:
                near_a |= class_lines[r]
            elif not inc_b & points:
                near_b |= class_lines[r]
        moving = class_points[rb]
        class_points[ra] |= moving
        while moving:
            low = moving & -moving
            moving ^= low
            label[low.bit_length() - 1] = ra
        self.merge_count += 1
        merged = class_lines[ra] = lines_a | lines_b
        incompat[ra] = inc_a | inc_b
        live = self.live & ~(lines_a & lines_b)
        self.live = live
        self.dirty |= (lines_a & near_a | lines_b & near_b) & live
        packed = self.packed
        if lines_a & packed and lines_b & packed:
            packed = self.packed = packed ^ (lines_b & packed)
        # At most one packed line is left through the merged class.
        held = merged & packed
        if held:
            self.reach[held.bit_length() - 1] |= merged

    def copy(self) -> MergeState:
        """An independent state with the same partition, exclusions, lines
        and packing."""
        twin = MergeState.__new__(MergeState)
        twin.shape, twin.lines, twin.pairs = self.shape, self.lines, self.pairs
        twin.label = self.label[:]
        twin.class_points = self.class_points[:]
        twin.class_lines = self.class_lines[:]
        twin._incompat = self._incompat[:]
        twin.reach = self.reach[:]
        twin.merge_count, twin.live = self.merge_count, self.live
        twin.dirty, twin.packed = self.dirty, self.packed
        return twin

    @property
    def class_count(self) -> int:
        return self.shape.point_count - self.merge_count

    def to_coloring(self) -> Coloring:
        """The current partition, colored by class root + 1 (not relabeled)."""
        return Coloring(self.shape, tuple(r + 1 for r in self.label))


class _Budget:
    """Node count and stop conditions of one search.

    Every search loop calls `tick` once per node and stops descending once
    it returns False: the node that reaches `node_limit` is counted but not
    expanded, and with a deadline the clock is read at every node.
    """

    def __init__(self, node_limit: int | None, deadline: float | None):
        self.nodes = 0
        self.node_limit = node_limit
        self.deadline = deadline
        self.exhausted = False

    @classmethod
    def of(cls, config: SearchConfig, started: float):
        """The budget `config` sets for a search that started at `started`,
        a `time.monotonic()` reading."""
        deadline = started + config.time_limit if config.time_limit else None
        return cls(config.node_limit, deadline)

    def tick(self) -> bool:
        """Count one node; False once any budget is exhausted."""
        if self.exhausted:
            return False
        self.nodes += 1
        # The count steps by one from 0, so it meets a node limit by
        # equality; a None limit never compares equal.
        if self.nodes == self.node_limit or (
            self.deadline is not None and time.monotonic() >= self.deadline
        ):
            self.exhausted = True
            return False
        return True


class _Incumbent(_Budget):
    """The budget of `max_rf_colors` with its monotone incumbent: the fewest
    class merges offered so far and a coloring with that many."""

    best_merges: float = float("inf")
    witness_colors: tuple[int, ...] = ()

    def offer(self, merges: int, colors: tuple[int, ...]) -> None:
        if merges < self.best_merges:
            self.best_merges = merges
            self.witness_colors = colors


def _branch_pairs(state: MergeState, idxs: tuple[int, ...]) -> list[tuple[int, int]]:
    label, incompat, class_points = state.label, state._incompat, state.class_points
    return [
        (a, b)
        for a, b in combinations(idxs, 2)
        if not incompat[label[a]] & class_points[label[b]]
    ]


_DEAD = -2
_PRUNE = -3
_SOLVED = -1


@lru_cache(maxsize=None)
def _position_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """Position pairs (i, j) of a k-point line, in `combinations` order."""
    return tuple(combinations(range(k), 2))


def _bound_reaches(state: MergeState, best: int) -> bool:
    """Whether the merges made so far plus the lines of the state's packing
    reach `best`.

    The packing is first refilled greedily, in line order, from the live
    lines that meet no packed class.  The kept packed lines' reaches come
    from `state.reach`; `plines` ORs them and `twice` holds the lines
    reached a second time.  Then the lowest live line outside `plines` is
    packed, its points walked and its reach stored, until no such line is
    left.

    When the count is then exactly one short of `best`, the bound asks
    whether one 1-for-2 swap exists: a packed line p traded for two live
    lines that meet no packed line but p and share no class with each
    other.  The refill has left no live line that meets no packed class,
    so the lines that meet p alone are those in p's reach and outside
    `twice`.  A swap found meets `best`, so `_settle` cuts the node, whose
    state is never read again; the swap only answers and writes nothing.
    The refill stays in the state, with its lines' reaches, so the
    children of a node start from its packing.

    A swap that fails at a node X is not tried again below it, and need
    not be: X was one line short, every node below X has made at least
    one merge more, and the incumbent only falls, so a node below X that
    still has X's packing reaches `best` and is cut before a swap is
    tried.  A node with any other packing poses a new swap problem.
    """
    label, lines, class_lines = state.label, state.lines, state.class_lines
    reach = state.reach
    live = state.live
    packed = rest = state.packed
    plines = twice = 0
    while rest:
        low = rest & -rest
        rest ^= low
        ours = reach[low.bit_length() - 1]
        twice |= plines & ours
        plines |= ours
    free = live & ~plines
    while free:
        low = free & -free
        packed |= low
        li = low.bit_length() - 1
        ours = 0
        for x in lines[li]:
            ours |= class_lines[label[x]]
        reach[li] = ours
        twice |= plines & ours
        plines |= ours
        free &= ~ours
    state.packed = packed
    short = best - state.merge_count - packed.bit_count()
    if short <= 0:
        return True
    single = live & ~twice & ~packed
    if short > 1 or single & (single - 1) == 0:
        return False
    rest = packed
    while rest:
        low = rest & -rest
        rest ^= low
        alone = single & reach[low.bit_length() - 1]
        while alone & (alone - 1):
            first = alone & -alone
            alone ^= first
            apart = 0
            for x in lines[first.bit_length() - 1]:
                apart |= class_lines[label[x]]
            if alone & ~apart:
                return True
    return False


def _settle(state: MergeState, best: int) -> int:
    """Propagate forced merges, then prune-check and locate the branch line.

    Returns `_DEAD` when a line can no longer be satisfied, `_PRUNE` when
    the state cannot beat `best` merges, `_SOLVED` when every line is
    satisfied, and otherwise the index of the branch line: the lowest
    live line.

    Propagation reads only the dirty live lines, lowest first.  A line
    with no unblocked pair is dead; one with exactly one is forced, and
    its pair is merged, which may make more lines dirty.  The scan only
    needs to know whether a line has zero, one or more unblocked pairs, so
    it counts them over the position-pair table and stops at the second
    one.  Propagation ends when no live line is dirty, so every live line
    has at least two unblocked pairs.

    The bound adds to the merges made so far the lines of the packing
    the state keeps: live lines with pairwise disjoint class sets (see
    `MergeState` and `_bound_reaches`).  It is admissible: however the
    remaining merges play out, each packed line ends with two of its
    points in one class, and because no class touches two packed lines
    the merge forest spans two fresh endpoints per line, which by Hall's
    theorem pins one distinct merge per line.  A merge drops at most one
    packed line, so the bound never falls along a path, and it is tested
    once, on the fixpoint, after the forced merges have raised it.  When
    it does not cut, `_layer_cut` may: for n >= 3 it counts the classes
    that the layers along one coordinate can hold.

    Forced merges are confluent: a blocked pair stays blocked, and a
    forced line can only be satisfied by its one pair, so propagation in
    any order reaches the same fixpoint partition, and a dead line or a
    merge count of `best` met in one order is met in every order.  Which
    packed line a merge drops depends on the order, though, so the order
    is fixed: the lowest live line with fewer than two unblocked pairs is
    always settled first.  A live line outside `dirty` has two unblocked
    pairs, so the lowest dirty live line that is dead or forced is that
    line.
    """
    label = state.label
    incompat = state._incompat
    class_points = state.class_points
    lines = state.lines
    pairs = state.pairs
    work = state.dirty & state.live
    while work:
        low = work & -work
        work ^= low
        idxs = lines[low.bit_length() - 1]
        roots = [label[x] for x in idxs]
        only = None
        for i, j in pairs:
            if not incompat[roots[i]] & class_points[roots[j]]:
                if only is not None:
                    break
                only = (i, j)
        else:
            # At most one unblocked pair: the line is dead or forced.
            if only is None:
                state.dirty = work | low
                return _DEAD
            state.dirty = work
            state.merge(idxs[only[0]], idxs[only[1]])
            if state.merge_count >= best:
                return _PRUNE
            work = state.dirty & state.live
    state.dirty = 0
    live = state.live
    if not live:
        return _SOLVED if state.merge_count < best else _PRUNE
    # `_layer_cut` skips n = 2 itself; testing n here first spares the
    # `[k]^2` searches its table lookup at every node.
    if _bound_reaches(state, best) or state.shape.n > 2 and _layer_cut(state, best):
        return _PRUNE
    return (live & -live).bit_length() - 1


def _layer_cut(state: MergeState, best: int) -> bool:
    """Whether the layer cap shows that no completion of the state has
    fewer than `best` merges.

    Each layer of a rainbow-free coloring is a rainbow-free coloring of
    one dimension less, so it holds at most cap colors (`_layer_table`).
    Fix a coordinate and its k layers, let r_d count the classes that meet
    layer d, and take a set Q of pairwise kept-apart classes, each q
    meeting m(q) layers.  Then a completion has at most
    sum_d min(cap, r_d) - sum_Q (m(q) - 1) classes.  Classes only merge,
    so at most min(cap, r_d) final classes meet layer d, and the sum over
    d counts each final class once per layer it meets.  The classes of Q
    end in distinct final classes, each meeting at least as many layers
    as the class of Q inside it, so the sum counts at least
    sum_Q (m(q) - 1) more than there are final classes.  The node is cut
    when the point count less that many classes reaches `best` for some
    coordinate.  Q is built greedily from the classes that meet two or
    more layers, by (m(q) - 1, root) descending, each kept apart from
    those taken before it.

    The cut is tried only when the incumbent's colors are within k - 1 of
    k * cap, the most the layers can hold.  With a wider gap it seldom
    pays: on `[3]^4`, whose warm start's 23 colors are 7 short of 30, an
    ungated cut fired at none of 100,000 nodes and made the search about
    3.8 times slower.  Skipping a valid cut only keeps subtrees that
    cannot beat the incumbent, so the gate changes no value or witness.
    Shapes without a cap, n = 2 among them, are skipped: there a layer
    is one line, which the line rule already caps.

    On every capped shape the gate opens only once the incumbent is
    optimal.  The layer recursion of `bounds` gives at most k * cap - 2
    colors, and the gate needs k * cap - k + 1 or more, which no capped
    shape's best coloring exceeds: `[2]^n` needs 1 color and has 1,
    `[3]^3` needs 10 and has 10, and `[3]^4` needs 28 and has at most 26.
    So the cut only ever drops subtrees that cannot beat the incumbent,
    whatever it counts: a wrong count would change node counts, never a
    value or witness.  The pinned node counts, 6,827 for the full `[3]^3`
    proof among them, are the check on the count.
    """
    shape = state.shape
    table = _layer_table(shape)
    if table is None:
        return False
    cap, layers = table
    colors = shape.point_count - best
    if shape.k * cap - colors >= shape.k:
        return False
    label, class_points, incompat = state.label, state.class_points, state._incompat
    count = len(label)
    # The roots of the classes of two or more points; every other point
    # is a class of its own, in `alone`.
    merged = set(compress(label, map(ne, label, range(count))))
    alone = (1 << count) - 1 - sum(class_points[r] for r in merged)
    for masks in layers:
        counts = [(alone & mask).bit_count() for mask in masks]
        spanning = []
        for r in merged:
            points = class_points[r]
            extra = -1
            for d, mask in enumerate(masks):
                if points & mask:
                    extra += 1
                    counts[d] += 1
            if extra:
                spanning.append((extra, r))
        need = sum([c if c < cap else cap for c in counts]) - colors
        if need <= 0:
            return True
        spanning.sort(reverse=True)
        chosen: list[int] = []
        for extra, r in spanning:
            if all(incompat[r] & class_points[q] for q in chosen):
                chosen.append(r)
                need -= extra
                if need <= 0:
                    return True
    return False


def _stabilizer(state: MergeState, group: list[Sequence[int]] | None) -> list[Sequence[int]]:
    """The elements of `group`, point-index maps, that map the state's
    partition and its kept-apart relation onto themselves.  None stands
    for the whole symmetry group: `automorphism_maps` then tests each
    element on its images of the points the test reads, and builds the
    maps of only the elements that pass.

    An element fixes the partition iff it maps each class of two or more
    points into one class.  It is a bijection, so the largest classes then
    go onto classes of their size, the next largest onto the classes of
    their size left, and so on down to the singletons.  The kept-apart
    relation holds between the classes r and q when `_incompat[r]` meets
    class q; an element that fixes the partition fixes the relation iff it
    keeps apart the images of one point of each pair of such classes.
    """
    label, class_points, incompat = state.label, state.class_points, state._incompat
    # The classes of two or more points, each listed from its root; then
    # the kept-apart pairs of roots.  A merged-away root's stale
    # exclusions lead through its label to the root that holds them now.
    count = len(label)
    classes: dict[int, list[int]] = {}
    for x in compress(range(count), map(ne, label, range(count))):
        classes.setdefault(label[x], [label[x]]).append(x)
    apart = []
    for r in set(map(label.__getitem__, compress(range(count), incompat))):
        rest = incompat[r]
        while rest:
            q = label[(rest & -rest).bit_length() - 1]
            rest &= ~class_points[q]
            if r < q:
                apart.append((r, q))

    def fixes(image) -> bool:
        return all(
            len({label[image(x)] for x in points}) == 1 for points in classes.values()
        ) and all(incompat[label[image(a)]] & class_points[label[image(b)]] for a, b in apart)

    if group is None:
        moved = {x for points in classes.values() for x in points}.union(*apart)
        return list(automorphism_maps(state.shape, moved, fixes))
    return [g for g in group if fixes(g.__getitem__)]


def _orbit_firsts(
    state: MergeState, pairs: list[tuple[int, int]], group: list[Sequence[int]]
) -> list[tuple[int, int]]:
    """The branch pairs, in order, less each pair whose class pair some
    element of `group` maps an earlier kept pair's class pair onto."""
    label = state.label
    images: set[frozenset[int]] = set()
    kept = []
    for a, b in pairs:
        if frozenset((label[a], label[b])) in images:
            continue
        kept.append((a, b))
        images.update(frozenset((label[g[a]], label[g[b]])) for g in group)
    return kept


def _dfs(state: MergeState, budget: _Incumbent, group: list[Sequence[int]] | None) -> None:
    """Search below `state`.  `_dfs` may change the state it is given: a
    caller that needs its state afterwards passes a copy.  So each child
    before the last runs on a copy, and its pair is then forbidden in
    `state`; the last child runs on `state` itself.

    `group` holds automorphisms as point-index maps, None standing for the
    whole group (see `_stabilizer`).  With one element or none there is
    nothing to do.  Otherwise a branch node keeps the elements that fix
    its settled state, and branches only on the pairs of `_orbit_firsts`:
    a pair is skipped, with no node counted, when a kept element g maps
    an earlier kept pair's class pair onto its own.  Its children inherit
    the kept elements, so the work ends once the group is trivial.

    This is orbital branching, and it is sound.  Take a coloring below a
    skipped child, and apply g's inverse, which fixes the node's state as
    g does.  The image is a coloring below the node with the same number
    of colors, in which the earlier pair is merged.  So it lies below the
    first child whose pair it merges; that child was searched before, or
    was skipped for a pair earlier still, and the same argument applies
    to it.  The skipped pairs are not forbidden in the later children.
    """
    if not budget.tick():
        return
    outcome = _settle(state, budget.best_merges)
    if outcome == _SOLVED:
        budget.offer(state.merge_count, state.to_coloring().colors)
        return
    if outcome < 0:
        return
    pairs = _branch_pairs(state, state.lines[outcome])
    if group is None or len(group) > 1:
        group = _stabilizer(state, group)
        if len(group) > 1:
            pairs = _orbit_firsts(state, pairs, group)
    *before, last = pairs
    for a, b in before:
        child = state.copy()
        child.merge(a, b)
        _dfs(child, budget, group)
        if budget.exhausted:
            return
        state.forbid(a, b)
    state.merge(*last)
    _dfs(state, budget, group)


def _search_from_root(shape: CubeShape, budget: _Incumbent) -> None:
    """Run the branch and bound over the whole search tree of `shape`.

    For k >= 3 the first line's points split, under the symbol
    permutations fixing the line's constant cells, into the pair orbit
    {point 1, other} and the pair orbit within points 2..k, so two
    branches cover everything.  The first merges the first pair on a copy
    of the root state; the second keeps point 1 apart from the line's
    other points on the root state itself and merges the second-third
    pair.  For k = 2 the root node branches on the first line like any
    other.

    Each root branch starts from the whole symmetry group, which its first
    branch node filters (see `_dfs`).  A shape whose index-map table
    `automorphism_index_maps` would refuse gets no group, so the walk of
    the group stays as bounded as that table.
    """
    state = MergeState(shape)
    group = None if symmetry_table_fits(shape) else []
    if shape.k < 3:
        _dfs(state, budget, group)
        return
    p = state.lines[0]
    first = state.copy()
    first.merge(p[0], p[1])
    _dfs(first, budget, group)
    if budget.exhausted:
        return
    for q in p[1:]:
        state.forbid(p[0], q)
    state.merge(p[1], p[2])
    _dfs(state, budget, group)


def _greedy_independent_set(shape: CubeShape) -> tuple[int, ...]:
    masks = _collinearity_masks(shape)
    banned = 0
    chosen = []
    for p in shape.iter_indices():
        if banned >> p & 1:
            continue
        chosen.append(p)
        banned |= masks[p] | (1 << p)
    return tuple(chosen)


def _seed_coloring(shape: CubeShape, deadline: float | None = None) -> Coloring:
    """Deterministic warm-start witness: the best cheap construction.

    For k = 3 a singleton coloring over a large line-independent set
    usually beats the digit-position count.  Sizes are probed upward from
    one above the greedy set's, all probes sharing one budget of
    3,000,000 nodes, and each probe keeps the first set of its size.  The
    largest set found is kept once a probe finds none: its size is
    refuted, the budget is spent or the `time.monotonic()` deadline has
    passed.  If the first probe finds none, the greedy set stands in.
    The probes start their sets at the orbit leaders only: the first set
    of each size is the least of its orbit, so they find the sets a walk
    from every point finds, in fewer nodes.
    """
    if shape.k < 3:
        return monochromatic(shape)
    seed = canonical_relabel(digit_position_coloring(shape))
    if shape.k != 3:
        return seed
    best_set = _greedy_independent_set(shape)
    budget = _Budget(3_000_000, deadline)
    leaders = _orbit_leaders(shape)
    while (
        found := next(_independent_sets(shape, len(best_set) + 1, budget, leaders), None)
    ) is not None:
        best_set = found
    if len(best_set) + 1 > census(seed).distinct_count:
        return canonical_relabel(singleton_set_coloring(shape, best_set))
    return seed


def max_rf_colors(shape: CubeShape, config: SearchConfig | None = None) -> SearchOutcome:
    """Maximum color count over rainbow-free colorings of [k]^n.

    OPTIMAL on natural exhaustion; FEASIBLE_ONLY with the best witness so
    far when a time or node budget runs out (still a valid lower bound).
    A shape too large for its line tables is refused first.
    """
    _check_tables_fit(shape)
    config = config or SearchConfig()
    started = time.monotonic()
    budget = _Incumbent.of(config, started)
    with _depth_guard(shape):
        seed = _seed_coloring(shape, budget.deadline)
        budget.offer(shape.point_count - census(seed).distinct_count, seed.colors)
        _search_from_root(shape, budget)

    witness = canonical_relabel(Coloring(shape, budget.witness_colors))
    status = Status.FEASIBLE_ONLY if budget.exhausted else Status.OPTIMAL
    return _outcome(started, budget, status, shape.point_count - budget.best_merges, witness)


def _outcome(started, budget, status, value, witness, certificate=None) -> SearchOutcome:
    """The outcome of a search that started at `started`, a
    `time.monotonic()` reading, and counted its nodes in `budget`.  A
    witness is re-verified first: it must be rainbow-free with exactly
    `value` colors."""
    if witness is not None and (
        not is_rainbow_free(witness) or census(witness).distinct_count != value
    ):
        raise SearchError("internal error: witness failed re-verification")
    return SearchOutcome(
        status, value, witness, budget.nodes, time.monotonic() - started, certificate
    )


def naive_max_rf_colors(shape: CubeShape) -> int:
    """Reference oracle: filter every set partition of the points.

    A partition is rainbow-free iff every line of `line_index_table` has
    two points in one class; the answer is the most classes of such a
    partition.  The line test is skipped for a partition with no more
    classes than the best so far.  Exponential (Bell numbers); only
    sensible for k^n <= 9 or so.
    """
    count, k = shape.point_count, shape.k
    lines = _line_getters(shape)
    labels = [0] * count

    def partitions(i: int, used: int) -> Iterator[int]:
        # Restricted growth strings: point i joins one of the `used`
        # classes so far or opens the next; yields the class count.
        if i == count:
            yield used
            return
        for c in range(used + 1):
            labels[i] = c
            yield from partitions(i + 1, used + (1 if c == used else 0))

    best = 0
    for classes in partitions(0, 0):
        if classes > best and all(len(set(line(labels))) < k for line in lines):
            best = classes
    return best


@lru_cache(maxsize=None)
def _collinearity_masks(shape: CubeShape) -> tuple[int, ...]:
    """Bitmask per point of every point sharing a line with it."""
    masks = [0] * shape.point_count
    for idxs in line_index_table(shape):
        for a in idxs:
            for b in idxs:
                if a != b:
                    masks[a] |= 1 << b
    return tuple(masks)


@lru_cache(maxsize=None)
def _layer_masks(shape: CubeShape) -> tuple[tuple[int, ...], ...]:
    """Per coordinate, of weight w, the point masks of its k layers: layer
    d holds the points whose digit index // w % k is d.  It is a run of w
    points from d * w on, repeated every k * w points, so its mask is the
    run's times `repeat`, which has bit j * k * w set for each repeat j."""
    k, count = shape.k, shape.point_count
    masks = []
    for w in shape.weights:
        repeat = ((1 << count) - 1) // ((1 << k * w) - 1)
        masks.append(tuple((((1 << w) - 1) << d * w) * repeat for d in range(k)))
    return tuple(masks)


@lru_cache(maxsize=None)
def _layer_table(shape: CubeShape) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """The cap of `_layer_cut` and of `complete`, the most colors a layer
    of `shape` holds: ah(k, n-1) - 1, read from `bounds.known_value`; and
    the layer masks of `_layer_masks`.  None when n < 3 or the value is
    not known exactly: every cap is then a value the package proves itself
    (`[3]^2`, `[3]^3` and `[2]^m`), and the paper's interval for ah(3, 4)
    gives `[3]^5` none."""
    known = known_value(shape.k, shape.n - 1) if shape.n > 2 else None
    if known is None or known.lower != known.upper:
        return None
    return known.upper - 1, _layer_masks(shape)


@lru_cache(maxsize=None)
def _orbit_leaders(shape: CubeShape) -> int:
    """Bitmask of the points that have the least index in their orbit
    under the group of `automorphism_index_maps`.

    The index reads the 0-based digits lexicographically, coordinate 1
    first.  A coordinate permutation can sort the digits and a symbol
    permutation can give 0 to the most frequent symbol, 1 to the next and
    so on, so the least point of an orbit has non-decreasing digits and
    symbol counts that do not increase from 0 up; each orbit has one such
    point, since its symbol counts are an invariant.  Such a point uses
    the symbols 0..j-1 for some j <= min(k, n).  Computed from the digits
    alone, so the group is never built.
    """
    symbols = min(shape.k, shape.n)
    mask = 0
    for digits in combinations_with_replacement(range(symbols), shape.n):
        counts = [digits.count(d) for d in range(symbols)]
        if all(a >= b for a, b in zip(counts, counts[1:])):
            mask |= 1 << sum(d * w for d, w in zip(digits, shape.weights))
    return mask


def _independent_sets(
    shape: CubeShape, size: int, budget: _Budget | None = None, firsts: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Size-`size` line-independent sets of [3]^n in lexicographic order.

    Backtracking over ascending point indices, with a line-cover bound:
    for each coordinate t the lines varying only t partition the cube and
    a set takes at most one point of each, so a node whose free points
    (not banned, index >= start) meet fewer than `need` of those lines
    holds no solution and is cut.  With a `budget`, each node ticks it and
    the walk ends once it is exhausted, so the sets yielded are then a
    prefix of the full order.

    `firsts`, a point mask (all points by default), restricts the least
    point of each set; the walk then yields the sets whose least point is
    in the mask, in the same order.  With `_orbit_leaders(shape)` it keeps
    the lexicographically least set of every automorphism orbit.  Suppose
    some g maps a point of S below min(S).  Then min(g(S)) < min(S), so
    the sorted g(S) is lexicographically smaller than S.  So the least set
    of an orbit has a least point that no g moves lower: an orbit leader.
    That includes the lexicographically first set of each size, which is
    the least of its orbit, so the restricted walk finds the same first
    set and finds none exactly when no set of that size exists.
    """
    masks = _collinearity_masks(shape)
    # Per coordinate, its weight w and its first layer: the lines varying
    # only that coordinate are {p, p + w, p + 2w} for the points p of the
    # layer, and they partition the cube.
    covers = [(w, layers[0]) for w, layers in zip(shape.weights, _layer_masks(shape))]
    count = shape.point_count
    full = (1 << count) - 1
    chosen: list[int] = []

    def extend(start: int, banned: int, barred: int) -> Iterator[tuple[int, ...]]:
        # `barred` holds the points this node may not add: `banned` below
        # the root, and the points outside `firsts` at the root.
        if budget is not None and not budget.tick():
            return
        need = size - len(chosen)
        if need == 0:
            yield tuple(chosen)
            return
        # With one point left to place the scan below already finds any
        # free point, so the bound only pays from two on.
        if need > 1:
            free = (full & ~banned) >> start << start
            for w, base in covers:
                if ((free | free >> w | free >> 2 * w) & base).bit_count() < need:
                    return
        for p in range(start, count - need + 1):
            if barred >> p & 1:
                continue
            chosen.append(p)
            grown = banned | masks[p] | (1 << p)
            yield from extend(p + 1, grown, grown)
            chosen.pop()

    return extend(0, 0, 0 if firsts is None else full & ~firsts)


def enumerate_independent_sets(
    shape: CubeShape, size: int, up_to_symmetry: bool = False
) -> list[tuple[int, ...]]:
    """All size-`size` point sets with no two members collinear (k = 3).

    Lexicographic backtracking over ascending point indices, cut by the
    line-cover bound of `_independent_sets` (which removes only subtrees
    without a solution); with up_to_symmetry, keeps each automorphism
    orbit's lexicographically smallest member.  Pairwise non-collinearity
    encodes rainbow-freeness of the associated singleton coloring only for
    3-point lines, so other alphabet sizes are rejected.

    The symmetry reduction marks orbits instead of minimising over them.
    The walk starts from the orbit leaders only (`_orbit_leaders`), which
    keeps the least set of every orbit, and yields its sets in
    lexicographic order, so the first set met of an orbit is its minimum.
    That set is kept and all its images are marked seen; a seen set is
    skipped.  A set is marked by its point mask.  The images of a kept set
    are built at C level over the columns of the group, `columns[p][g]`
    being the image of point p under element g: the mask of g(S) is the
    sum over p in S of `1 << columns[p][g]` (the images are distinct, so
    the sum is their OR).  The group is applied to each representative
    only, and no per-point table of |G| masks is stored.
    """
    if shape.k != 3:
        raise SearchError("independent-set enumeration supports k = 3 only")
    if not 0 <= size <= shape.point_count:
        raise SearchError(f"size {size} out of range 0..{shape.point_count}")
    with _depth_guard(shape):
        if not up_to_symmetry:
            return list(_independent_sets(shape, size))
        columns = list(zip(*automorphism_index_maps(shape)))
        bits = [1 << p for p in shape.iter_indices()]
        reps = []
        seen = set()
        for s in _independent_sets(shape, size, firsts=_orbit_leaders(shape)):
            if sum(map(bits.__getitem__, s)) in seen:
                continue
            reps.append(s)
            seen.update(map(sum, zip(*[map(bits.__getitem__, columns[p]) for p in s])))
        return reps


def enumerate_minimal_rf(
    shape: CubeShape, num_colors: int, up_to_symmetry: bool = False
) -> list[Coloring]:
    """Every minimal rainbow-free coloring with `num_colors` colors (k = 3).

    Built from the independent sets of size num_colors - 1: the singleton
    points of a minimal RF coloring are pairwise non-collinear, and every
    such set yields one.  Canonically relabeled and returned in the
    enumeration order of the sets.

    The sets and the colorings correspond one to one.  An independent set
    holds at most one point of each 3-point line, so the dominant class,
    the points outside the set, has at least 2 points, and the set is
    exactly the points of the singleton classes.  Distinct sets therefore
    give distinct colorings, and an automorphism maps one coloring onto
    another (up to palette renaming) exactly when it maps one set onto the
    other.  So with up_to_symmetry the set-orbit reduction of
    `enumerate_independent_sets` keeps one coloring per orbit: the one
    whose set is the lexicographically smallest of its orbit.
    """
    if num_colors < 1:
        raise SearchError("num_colors must be >= 1")
    return [
        canonical_relabel(singleton_set_coloring(shape, s))
        for s in enumerate_independent_sets(shape, num_colors - 1, up_to_symmetry)
    ]


@lru_cache(maxsize=None)
def _line_bits(shape: CubeShape) -> tuple[int, ...]:
    return tuple(sum(1 << i for i in idxs) for idxs in line_index_table(shape))


@lru_cache(maxsize=None)
def _line_getters(shape: CubeShape) -> tuple[itemgetter, ...]:
    """Per line, an `itemgetter` of its points' entries in a point list."""
    return tuple(itemgetter(*idxs) for idxs in line_index_table(shape))


@lru_cache(maxsize=None)
def _line_masks_by_point(shape: CubeShape) -> tuple[int, ...]:
    """Bitmask per point of the lines through it, as bits li."""
    masks = [0] * shape.point_count
    for li, idxs in enumerate(line_index_table(shape)):
        for i in idxs:
            masks[i] |= 1 << li
    return tuple(masks)


def _deficient_lines(shape: CubeShape, colors) -> tuple[int, int, int, int | None]:
    """Line bitmasks of a partial coloring (0 = unassigned), in one scan.

    A line is deficient when it has an unassigned cell and its assigned
    cells hold pairwise distinct colors.  Returns `pin_lines`, the
    deficient lines with one unassigned cell, which they pin; `wide_lines`,
    those with two or more; `pinned_bits`, the pinned cells; and the index
    of the first rainbow line, or None.
    """
    lines, k = line_index_table(shape), shape.k
    pin_lines = wide_lines = pinned_bits = 0
    rainbow = None
    for li, line_colors in enumerate(_line_getters(shape)):
        cs = line_colors(colors)
        n_open = cs.count(0)
        if len(set(cs)) - (n_open > 0) == k - n_open:
            if n_open == 1:
                pin_lines |= 1 << li
                pinned_bits |= 1 << lines[li][cs.index(0)]
            elif n_open:
                wide_lines |= 1 << li
            elif rainbow is None:
                rainbow = li
    return pin_lines, wide_lines, pinned_bits, rainbow


def find_forced_cell(partial: Coloring) -> ForcedCell | None:
    """First free cell (point-index order) that no color can legally fill.

    Read from the pin masks of `_deficient_lines`, as the completion search
    reads them: a line pinning a cell only allows the cell its other
    colors.  The pinned cells are walked in index order, and each cell's
    pinning lines in line order, keeping the running intersection of their
    colors; a line that shrinks it is a witness.  The first cell whose
    intersection becomes empty is returned with its witnesses.
    """
    shape, colors = partial.shape, partial.colors
    pin_lines, _, pinned_bits, _ = _deficient_lines(shape, colors)
    return _forced_cell(shape, colors, pin_lines, pinned_bits)


def _allowance(colors, lines, cell, pinning, witnesses) -> set[int] | None:
    """The colors that the lines of the mask `pinning`, which pin `cell`,
    allow it: each line's other colors, intersected in line order until the
    set is empty.  Each line that shrinks the set, the first included, has
    its index appended to the list `witnesses`."""
    allowance = None
    while pinning:
        li = (pinning & -pinning).bit_length() - 1
        pinning &= pinning - 1
        allowed = {colors[i] for i in lines[li] if i != cell}
        if allowance is None or not allowance <= allowed:
            allowance = allowed if allowance is None else allowance & allowed
            witnesses.append(li)
            if not allowance:
                break
    return allowance


def _forced_cell(shape: CubeShape, colors, pin_lines, pinned_bits) -> ForcedCell | None:
    """`find_forced_cell` read from the pin masks `_deficient_lines` gives
    for `colors`."""
    lines = line_index_table(shape)
    through = _line_masks_by_point(shape)
    while pinned_bits:
        cell = (pinned_bits & -pinned_bits).bit_length() - 1
        pinned_bits &= pinned_bits - 1
        witnesses: list[int] = []
        if not _allowance(colors, lines, cell, pin_lines & through[cell], witnesses):
            templates = tuple(line_template(lines[li], shape) for li in witnesses)
            return ForcedCell(cell, templates)
    return None


def complete(
    partial: Coloring, total_colors: int, config: SearchConfig | None = None
) -> SearchOutcome:
    """Decide whether the free cells extend to a rainbow-free coloring
    with exactly `total_colors` distinct colors.

    Free cells may reuse assigned colors or introduce fresh ones; fresh
    colors are interchangeable, so each cell considers at most one fresh
    representative.  Cells are filled most-constrained-first, and values
    succeed-first: an unpinned cell tries the fresh color first, when the
    target leaves room for one, then the used colors; a pinned cell tries
    its allowance.  The used colors are ranked once per call, by most
    cells in the partial, ties to the lower label; a color the search
    introduces ranks after the partial's, in the order it came in.  A
    node's subtree depends only on its own colors, used set and masks,
    and the fresh label only on how many colors are used, so a subtree
    searched to the end has the same nodes under any candidate order:
    every refusal's node count and certificate is that of any order, and
    only first-found completions and where a node budget stops depend on
    it.

    A line is deficient when it has an unassigned cell and its assigned
    cells hold pairwise distinct colors.  Its unassigned cells cannot all
    take distinct colors outside the used set, or the line would be
    rainbow, so each deficient line costs at least one of the colors its
    unassigned cells could add.  Deficient lines whose unassigned cells
    are pairwise disjoint cost one each, so with `p` of them packed no
    completion has more than `len(used) + open cells - p` colors, and a
    node is cut when that is below `total_colors`.  A deficient line with
    one unassigned cell pins it: the cell must repeat one of the line's
    colors.  The packing starts from the pinned cells and adds the other
    deficient lines greedily in line order, stopping once it exceeds the
    room left.  Counting the pinned cells alone is the weaker pin-only
    bound, so the packing cuts at least where that does.  It cuts only
    subtrees without a completion, and it leaves the cell and candidate
    order alone, so every witness, first-found completion and decided
    status is that of the pin-only bound, reached in at most as many
    nodes.

    For n >= 3 a second cut reads the layers.  Each layer of a
    rainbow-free coloring of [k]^n, the cells with one coordinate fixed,
    is a rainbow-free coloring of [k]^(n-1), so it holds at most cap =
    ah(k, n-1) - 1 colors; the cap comes from the exact rows of
    `bounds.known_value` through `_layer_table`, and the package proves
    each of them (`[3]^2` by this search with no cap, since n = 2 has
    none).  Fix a coordinate, and let a_d count the colors assigned in
    its layer d and o_d the layer's open cells.  Assigned colors never
    change, so each color a completion adds is new to every layer it
    lies in, and the colors it adds to layer d number at most
    min(cap - a_d, o_d).  So no completion has more than
    `len(used) + sum_d min(cap - a_d, o_d)` colors, and a node is cut when
    that is below `total_colors` for some coordinate (`_layers_refuse`).
    A fresh color raises `len(used)` by one and lowers the term of its
    cell's layer by one along each coordinate, so a child reached by a
    fresh color has its parent's bound and skips the test.  The cut, too,
    removes only subtrees without a completion and reads only the node's
    own state, so it keeps every decided status, witness and certificate,
    and refusals still do not depend on the candidate order.

    The line state is the bitmasks of `_deficient_lines`.  Assigning a cell
    updates only the deficient lines through it, and each child receives
    its own masks.  A pinned cell's candidates are the colors its pinning
    lines share, the set `_allowance` reads for `find_forced_cell`.  The
    search keeps it per open cell as a mask of color ranks: a node that
    expands narrows it by the lines that became pin lines in its parent,
    and restores it when it returns.  Any other cell takes one fresh color
    and every used color.  Each layer's assigned colors are a mask too,
    set as a cell is assigned and restored as it is freed.  The
    certificate of an INFEASIBLE result is the partial's first rainbow
    line, else the cell of `find_forced_cell`, read from the pin masks the
    search starts from; it is None when neither exists.  A shape too large
    for its line tables is refused first.
    """
    _check_tables_fit(partial.shape)
    config = config or SearchConfig()
    started = time.monotonic()
    budget = _Budget.of(config, started)
    if total_colors < 1:
        raise SearchError("total_colors must be >= 1")
    with _depth_guard(partial.shape):
        solution, certificate = _fill(partial, total_colors, budget)
    if solution is not None:
        witness, status = Coloring(partial.shape, solution), Status.OPTIMAL
    else:
        witness, status = None, Status.TIMEOUT if budget.exhausted else Status.INFEASIBLE
    return _outcome(started, budget, status, total_colors, witness, certificate)


def _fill(
    partial: Coloring, total_colors: int, budget: _Budget
) -> tuple[tuple[int, ...] | None, ForcedCell | LineTemplate | None]:
    """The search of `complete`: the completion's colors, or None with the
    certificate of a refusal (None when the counts alone refuse it or the
    budget ran out)."""
    shape = partial.shape
    lines = line_index_table(shape)
    colors = list(partial.colors)
    pin_lines, wide_lines, pinned_bits, rainbow = _deficient_lines(shape, colors)
    if rainbow is not None:
        return None, line_template(lines[rainbow], shape)

    # open_bits holds the unassigned cells, line_bits[li] the cells of line
    # li and through[cell] the lines through cell, as bits li.
    open_bits = sum(1 << i for i, c in enumerate(colors) if c == 0)
    counts = Counter(c for c in colors if c)
    if len(counts) > total_colors or len(counts) + open_bits.bit_count() < total_colors:
        return None, None
    if not open_bits:
        return tuple(colors), None

    # The succeed-first rank of every color the search can try (`complete`):
    # the partial's colors, then the fresh ones in the order they come in,
    # so the colors used are always the first `used` of `ranked`.  A set of
    # colors is a mask of bits 1 << rank; `bit[0]`, an unassigned cell, is 0.
    ranked = sorted(counts, key=lambda c: (-counts[c], c))
    top = max(counts, default=0)
    ranked += range(top + 1, top + 1 + total_colors - len(counts))
    bit = {0: 0} | {c: 1 << i for i, c in enumerate(ranked)}
    line_bits = _line_bits(shape)
    through = _line_masks_by_point(shape)
    line_colors = _line_getters(shape)
    # allow[cell], for an open cell, is the mask of the colors that its pin
    # lines share, all colors (-1) when none pins it (`complete`).
    allow = [-1] * shape.point_count
    # present[t][d] is the mask of the colors assigned in layer d along
    # coordinate t; it is empty, as is the cap, when no cap is known.
    cap, layer_masks = _layer_table(shape) or (0, ())
    k, weights = shape.k, shape.weights
    present = [[0] * k for _ in layer_masks]
    for cell, c in enumerate(colors):
        for row, w in zip(present, weights):
            row[cell // w % k] |= bit[c]

    def dfs(open_bits, pin_lines, wide_lines, pinned_bits, new_pins, used, fresh):
        """The completion below the node with these masks, the first `used`
        colors of `ranked` used and `fresh` set when its cell took a fresh
        color, or None.  `new_pins` holds the pin lines not yet in `allow`."""
        if not budget.tick():
            return None
        # Each packed deficient line keeps one unassigned cell from adding
        # a color; the pinned cells are the packed one-cell lines.  The
        # wide lines are then packed greedily in line order.
        room = used + open_bits.bit_count() - pinned_bits.bit_count() - total_colors
        if room < 0:
            return None
        # The layer cap (`complete`), which a fresh color leaves as it was.
        if present and not fresh:
            if _layers_refuse(open_bits, present, cap, layer_masks, total_colors - used):
                return None
        if wide_lines.bit_count() > room:
            covered = pinned_bits
            rest = wide_lines
            while rest:
                low = rest & -rest
                rest ^= low
                cells = line_bits[low.bit_length() - 1] & open_bits
                if not cells & covered:
                    covered |= cells
                    room -= 1
                    if room < 0:
                        return None
        if not open_bits:
            return tuple(colors) if used == total_colors else None

        # The pin lines new in the parent narrow their cells' allowances
        # until this node returns; a node cut above skips that work.
        narrowed = []
        while new_pins:
            li = (new_pins & -new_pins).bit_length() - 1
            new_pins &= new_pins - 1
            line = line_colors[li](colors)
            other = lines[li][line.index(0)]
            narrowed.append((other, allow[other]))
            allow[other] &= sum(map(bit.__getitem__, line))

        # The most constrained open cell: the first with the fewest
        # candidates.  A pinned cell allows only used colors, any other cell
        # every used color and a fresh one, so only a pinned cell can have
        # fewer than the first open cell.  That one is counted one over when
        # pinned, so that the scan of the pinned cells takes it.  A pinned
        # cell that allows no color is taken with none: the node is dead.
        fresh_room = used < total_colors
        cell = (open_bits & -open_bits).bit_length() - 1
        fewest = used + fresh_room + (pinned_bits >> cell & 1)
        allowance = 0
        rest = pinned_bits if fewest > 1 else 0
        while rest:
            other = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            allowed = allow[other]
            if allowed.bit_count() < fewest:
                cell, allowance, fewest = other, allowed, allowed.bit_count()
                if fewest <= 1:
                    break
        candidates = []
        if fewest and not allowance:
            candidates = ranked[used : used + fresh_room] + ranked[:used]
        while allowance:
            low = allowance & -allowance
            allowance ^= low
            candidates.append(ranked[low.bit_length() - 1])

        # The children's masks.  Only lines through the cell change: those
        # pinning it are done, and a wide one stops being deficient if the
        # value repeats one of its colors, else pins its last open cell.
        open_bits ^= 1 << cell
        pinned_bits &= ~(1 << cell)
        pin_lines &= ~through[cell]
        if present:
            slots = [(row, d, row[d]) for row, d in zip(present, (cell // w % k for w in weights))]
        for value in candidates:
            colors[cell] = value
            added = bit[value] >> used
            if present:
                for row, d, seen in slots:
                    row[d] = seen | bit[value]
            wide, pins, pinned = wide_lines, pin_lines, pinned_bits
            rest = wide_lines & through[cell]
            while rest:
                low = rest & -rest
                rest ^= low
                li = low.bit_length() - 1
                if line_colors[li](colors).count(value) > 1:
                    wide ^= low
                    continue
                cells = line_bits[li] & open_bits
                if not cells & (cells - 1):
                    wide ^= low
                    pins |= low
                    pinned |= cells
            found = dfs(open_bits, pins, wide, pinned, pins ^ pin_lines, used + added, added)
            if found is not None:
                return found
            if budget.exhausted:
                break
        if present:
            for row, d, seen in slots:
                row[d] = seen
        for other, mask in reversed(narrowed):
            allow[other] = mask
        colors[cell] = 0
        return None

    found = dfs(open_bits, pin_lines, wide_lines, pinned_bits, pin_lines, len(counts), 0)
    if found is not None or budget.exhausted:
        return found, None
    return None, _forced_cell(shape, partial.colors, pin_lines, pinned_bits)


def _layers_refuse(open_bits: int, present, cap: int, layer_masks, wanted: int) -> bool:
    """Whether the layer cap of `complete` leaves the open cells of
    `open_bits` fewer than `wanted` colors to add: for some coordinate t,
    the sum over its layers d of min(cap - a_d, o_d) is less, with a_d the
    colors of the mask present[t][d] and o_d the open cells in the mask
    layer_masks[t][d]."""
    for masks, row in zip(layer_masks, present):
        most = 0
        for mask, seen in zip(masks, row):
            free = (open_bits & mask).bit_count()
            left = cap - seen.bit_count()
            most += free if free < left else left
        if most < wanted:
            return True
    return False


def two_layer_arrangements() -> list[Coloring]:
    """The six partial colorings of [3]^4 behind the completion endgame.

    Each places the two 9-point line-independent sets of [3]^3 (the
    singleton classes of its two minimal rainbow-free 10-colorings), in
    both orders, on one of the three ordered pairs of distinct layers
    along coordinate 1.  Both filled layers take color 1 off their set,
    the first layer's set points take colors 2..10 and the second's
    11..19, each in index order, and the remaining layer is left
    unassigned.
    """
    shape = CubeShape(3, 4)
    sets = enumerate_independent_sets(CubeShape(3, 3), 9)
    if len(sets) != 2:
        raise SearchError("expected exactly two 9-point independent sets")
    width = shape.weights[0]
    out = []
    for first, second in (sets, sets[::-1]):
        for la, lb in ((0, 1), (0, 2), (1, 2)):
            cells = [0] * shape.point_count
            for base, points, palette in ((la * width, first, 2), (lb * width, second, 11)):
                cells[base : base + width] = [1] * width
                for color, p in enumerate(points, start=palette):
                    cells[base + p] = color
            out.append(Coloring(shape, tuple(cells)))
    return out
