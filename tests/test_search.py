"""Branch-and-bound search, enumeration, and completion endgames."""

import hashlib
import sys
import time
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ahj.bounds import bounds_table, known_value
from ahj.coloring import (
    UNASSIGNED,
    Coloring,
    canonical_relabel,
    census,
    is_minimal,
    is_rainbow_free,
    orbit_canonical_form,
)
from ahj.constructions import digit_position_coloring, singleton_set_coloring
from ahj.hypercube import (
    CubeShape,
    automorphism_index_maps,
    enumerate_lines,
    line_index_table,
    point_name,
)
from ahj.search import (
    MergeState,
    SearchConfig,
    SearchError,
    Status,
    complete,
    enumerate_independent_sets,
    enumerate_minimal_rf,
    find_forced_cell,
    max_rf_colors,
    naive_max_rf_colors,
    two_layer_arrangements,
)
from ahj.search import (
    _DEAD,
    _PRUNE,
    _SOLVED,
    _Budget,
    _Incumbent,
    _bound_reaches,
    _check_tables_fit,
    _dfs,
    _independent_sets,
    _layer_cut,
    _layer_table,
    _layers_refuse,
    _orbit_firsts,
    _orbit_leaders,
    _seed_coloring,
    _settle,
    _stabilizer,
)

from reference import collinear, expand, point_from_index

S31 = CubeShape(3, 1)
S32 = CubeShape(3, 2)
S33 = CubeShape(3, 3)
S34 = CubeShape(3, 4)
S35 = CubeShape(3, 5)

# The lexicographically first 22-point line-independent set of [3]^4; no
# 23-point set exists.
FIRST_22_OF_S34 = (
    1, 3, 8, 9, 14, 16, 20, 22, 24, 27, 32, 34, 38, 42, 46, 48, 56, 58, 60, 64, 66, 72,
)


def _reference_naive_max_rf_colors(shape):
    """The partition oracle through validated Colorings and is_rainbow_free."""
    count = shape.point_count
    labels = [0] * count

    def partitions(i, used):
        if i == count:
            yield labels
            return
        for c in range(used + 1):
            labels[i] = c
            yield from partitions(i + 1, used + (1 if c == used else 0))

    best = 0
    for assignment in partitions(0, 0):
        coloring = Coloring(shape, tuple(c + 1 for c in assignment))
        if is_rainbow_free(coloring):
            best = max(best, census(coloring).distinct_count)
    return best


def _reference_independent_sets(shape):
    """Every line-independent set of `shape`, by size, in lexicographic order.

    Plain backtracking over ascending indices with no bound: each partial
    set is itself an independent set, and depth-first pre-order visits the
    sets of one size in lexicographic order.
    """
    points = [point_from_index(i, shape) for i in shape.iter_indices()]
    by_size = {}

    def extend(chosen, start):
        by_size.setdefault(len(chosen), []).append(tuple(chosen))
        for p in range(start, len(points)):
            if not any(collinear(points[p], points[q], shape) for q in chosen):
                extend(chosen + [p], p + 1)

    extend([], 0)
    return by_size


def _reference_orbit_minima(shape, size):
    """The sets that are the lexicographic minimum of their orbit."""
    maps = automorphism_index_maps(shape)
    return [
        s
        for s in enumerate_independent_sets(shape, size)
        if min(tuple(sorted(m[p] for p in s)) for m in maps) == s
    ]


class _PartitionModel:
    """Naive reference for MergeState: a class id per point, anti pairs of ids."""

    def __init__(self, count):
        self.cls = list(range(count))
        self.anti = set()

    def copy(self):
        twin = _PartitionModel(0)
        twin.cls, twin.anti = list(self.cls), set(self.anti)
        return twin

    def same(self, a, b):
        return self.cls[a] == self.cls[b]

    def blocked(self, a, b):
        return frozenset((self.cls[a], self.cls[b])) in self.anti

    def merge(self, a, b):
        keep, gone = self.cls[a], self.cls[b]
        self.cls = [keep if c == gone else c for c in self.cls]
        self.anti = {
            frozenset(keep if c == gone else c for c in pair) for pair in self.anti
        }

    def forbid(self, a, b):
        self.anti.add(frozenset((self.cls[a], self.cls[b])))

    @property
    def class_count(self):
        return len(set(self.cls))


def _assert_agrees(state, model):
    count = len(model.cls)
    assert state.class_count == model.class_count
    for a in range(count):
        for b in range(count):
            if a != b:
                assert state.same(a, b) == model.same(a, b), (a, b)
                assert state.blocked(a, b) == model.blocked(a, b), (a, b)


def _unblocked_pairs(state, idxs):
    return [(a, b) for a, b in combinations(idxs, 2) if not state.blocked(a, b)]


def _assert_bookkeeping(state, model):
    """The class, line and exclusion masks of `state` match a
    recomputation from its labels, the line table and the model's
    exclusions, every live line with fewer than two unblocked pairs is
    dirty, and the packing is valid.

    The exclusion masks hold points: `_incompat[r]` meets the points of
    another root q iff the model keeps r and q apart, and every point in
    it lies in a class kept apart from r.  The packed lines are live and
    their class sets pairwise disjoint, and each one's `reach` entry is the
    lines through its classes."""
    shape = state.shape
    lines = line_index_table(shape)
    roots = sorted(set(state.label))
    points = {r: 0 for r in roots}
    for x, r in enumerate(state.label):
        points[r] |= 1 << x
    for r in roots:
        assert state.class_points[r] == points[r], r
        through = [li for li, idxs in enumerate(lines) if any(state.label[x] == r for x in idxs)]
        assert state.class_lines[r] == sum(1 << li for li in through), r
        apart = 0
        for q in roots:
            if q != r:
                kept = model.blocked(r, q)
                assert bool(state._incompat[r] & points[q]) == kept, (r, q)
                if kept:
                    apart |= points[q]
        assert state._incompat[r] & ~apart == 0, r
    live = [
        li for li, idxs in enumerate(lines) if len({state.label[x] for x in idxs}) == shape.k
    ]
    assert state.live == sum(1 << li for li in live)
    for li in live:
        if len(_unblocked_pairs(state, lines[li])) < 2:
            assert state.dirty >> li & 1, li
    assert state.packed & ~state.live == 0
    _assert_packing(state)


def _assert_packing(state):
    """The packed lines' class sets are pairwise disjoint, and each one's
    `reach` entry is the lines through its classes."""
    taken = set()
    for li, idxs in enumerate(state.lines):
        if state.packed >> li & 1:
            roots = {state.label[x] for x in idxs}
            assert not roots & taken, li
            taken |= roots
            reach = 0
            for r in roots:
                reach |= state.class_lines[r]
            assert state.reach[li] == reach, li


def _fields(state):
    """Every per-state entry of `state`, with its lists as tuples."""
    return (
        tuple(state.label),
        tuple(state.class_points),
        tuple(state.class_lines),
        tuple(state._incompat),
        tuple(state.reach),
        state.merge_count,
        state.live,
        state.dirty,
        state.packed,
    )


def _adopt_merges(state, model):
    """Merge in `model` the classes that `state` has merged, such as the
    forced merges of a settle."""
    for x, r in enumerate(state.label):
        if not model.same(x, r):
            model.merge(r, x)


_STATE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["merge", "forbid"]), st.integers(0, 26), st.integers(0, 26)
        ),
        st.tuples(st.just("save"), st.just(0), st.just(0)),
        st.tuples(st.just("settle"), st.integers(1, 8), st.just(0)),
        st.tuples(st.just("resume"), st.integers(0, 1000), st.just(0)),
    ),
    max_size=40,
)


class TestMergeState:
    def test_fresh_state_is_discrete(self):
        s = MergeState(S32)
        assert s.class_count == 9
        assert s.merge_count == 0

    def test_merges_on_a_copy_leave_the_original(self):
        s = MergeState(S32)
        c = s.copy()
        c.merge(0, 1)
        c.merge(1, 2)
        assert c.same(0, 2)
        assert c.class_count == 7
        assert not s.same(0, 1)
        assert s.class_count == 9
        _assert_bookkeeping(s, _PartitionModel(S32.point_count))

    def test_forbid_blocks_pairs(self):
        s = MergeState(S32)
        s.forbid(0, 1)
        assert s.blocked(0, 1)
        assert not s.blocked(0, 2)

    def test_forbid_survives_merges(self):
        # anti edges must follow classes through unions
        s = MergeState(S32)
        s.forbid(0, 1)
        s.merge(1, 2)
        assert s.blocked(0, 2)

    def test_forbids_on_a_copy_leave_the_original(self):
        s = MergeState(S32)
        fresh = _fields(s)
        c = s.copy()
        c.forbid(0, 1)
        assert c.blocked(0, 1)
        assert not s.blocked(0, 1)
        assert _fields(s) == fresh

    def test_repeated_forbid_on_nested_copies(self):
        s = MergeState(S32)
        first = s.copy()
        first.forbid(0, 1)
        second = first.copy()
        second.forbid(1, 0)
        assert second.blocked(0, 1)
        assert first.blocked(0, 1)
        assert not s.blocked(0, 1)

    def test_nested_copies_keep_their_own_bookkeeping(self):
        s = MergeState(S33)
        outer = s.copy()
        model = _PartitionModel(S33.point_count)
        outer.merge(0, 1)
        model.merge(0, 1)
        outer.forbid(0, 2)
        model.forbid(0, 2)
        _settle(outer, S33.point_count + 1)
        _adopt_merges(outer, model)
        settled = model.copy()
        inner = outer.copy()
        inner.merge(3, 4)
        model.merge(3, 4)
        _assert_agrees(inner, model)
        _assert_bookkeeping(inner, model)
        _assert_agrees(outer, settled)
        _assert_bookkeeping(outer, settled)
        _assert_agrees(s, _PartitionModel(S33.point_count))
        _assert_bookkeeping(s, _PartitionModel(S33.point_count))

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_merges_on_a_copy_leave_the_original_discrete(self, pairs):
        """Any merge sequence on a copy leaves the original discrete."""
        s = MergeState(S32)
        fresh = _fields(s)
        c = s.copy()
        for a, b in pairs:
            if not c.same(a, b):
                c.merge(a, b)
        assert s.class_count == 9
        assert s.merge_count == 0
        assert _fields(s) == fresh

    @pytest.mark.parametrize("shape", [S32, S33])
    @given(ops=_STATE_OPS)
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_naive_partition_model(self, shape, ops):
        """Merge and forbid track a naive set partition, and keep the line,
        class and packing masks equal to a recomputation.  A settle step
        runs `_settle` with a threshold 1-8 merges above the current count,
        so that it also refills, tries swaps and cuts, and the model takes
        over the forced merges it made.  A settle that branches leaves a
        maximal packing: every live line meets a class of a packed line.

        A save step keeps a copy of the state with a copy of its model; a
        resume step goes on from a copy of a saved one.  Whatever runs on
        the state afterwards, every saved copy keeps every entry it was
        made with, its packing and reaches included, and at the end still
        agrees with its model."""
        count = shape.point_count
        lines = line_index_table(shape)
        state = MergeState(shape)
        model = _PartitionModel(count)
        saved = [(state.copy(), model.copy(), _fields(state))]
        for tag, a, b in ops:
            a, b = a % count, b % count
            if tag == "merge":
                if model.same(a, b) or model.blocked(a, b):
                    with pytest.raises(SearchError):
                        state.merge(a, b)
                else:
                    state.merge(a, b)
                    model.merge(a, b)
            elif tag == "forbid":
                if model.same(a, b):
                    with pytest.raises(SearchError):
                        state.forbid(a, b)
                else:
                    state.forbid(a, b)
                    model.forbid(a, b)
            elif tag == "save":
                saved.append((state.copy(), model.copy(), _fields(state)))
            elif tag == "settle":
                if _settle(state, state.merge_count + a) >= 0:
                    taken = {
                        state.label[x]
                        for li in range(len(lines))
                        if state.packed >> li & 1
                        for x in lines[li]
                    }
                    for li in range(len(lines)):
                        if state.live >> li & 1:
                            assert any(state.label[x] in taken for x in lines[li]), li
                _adopt_merges(state, model)
            else:
                twin, twin_model, _ = saved[a % len(saved)]
                state, model = twin.copy(), twin_model.copy()
            _assert_agrees(state, model)
            _assert_bookkeeping(state, model)
            for twin, _, fields in saved:
                assert _fields(twin) == fields
        for twin, twin_model, _ in saved:
            _assert_agrees(twin, twin_model)
            _assert_bookkeeping(twin, twin_model)
        root = saved[0][0]
        assert root.merge_count == 0
        assert root.to_coloring().colors == tuple(range(1, count + 1))


_S32_LINES = [
    [p.index for p in expand(t, S32)] for t in enumerate_lines(S32)
]


def _rainbow_free_partitions_of_s32():
    """Every set partition of [3]^2 with two same-block points on each line,
    as restricted-growth block labels, by plain enumeration."""
    found = []
    labels = [0] * S32.point_count

    def extend(i, used):
        if i == len(labels):
            if all(len({labels[x] for x in line}) < len(line) for line in _S32_LINES):
                found.append((tuple(labels), used))
            return
        for c in range(used + 1):
            labels[i] = c
            extend(i + 1, used + (c == used))

    extend(0, 0)
    return found


_S32_RF_PARTITIONS = _rainbow_free_partitions_of_s32()

_SETTLE_OPS = st.lists(
    st.tuples(st.sampled_from(["merge", "forbid"]), st.integers(0, 8), st.integers(0, 8)),
    max_size=8,
)


class TestLowerBound:
    """The disjoint-line bound, as `_settle` applies it."""

    def test_all_satisfied_is_zero(self):
        s = MergeState(S31)
        s.merge(0, 1)
        assert _settle(s, s.merge_count + 1) == _SOLVED

    def test_fresh_square_counts_disjoint_rows(self):
        assert _settle(MergeState(S32), 3) == _PRUNE

    def test_never_exceeds_true_minimum(self):
        # minimum merges on [3]^2 is 9 - 4 = 5
        assert _settle(MergeState(S32), 6) >= 0

    @given(_SETTLE_OPS)
    @settings(max_examples=400, deadline=None)
    def test_admissible_against_partition_oracle(self, ops):
        """`_settle` keeps every state that can still reach its minimum.

        The minimum m* is the fewest merges over all rainbow-free set
        partitions that coarsen the state's classes and keep its forbidden
        pairs apart.  With m* + 1 as the prune threshold, neither the
        forced merges nor the bound may cut the state, and a state that
        propagation solves outright must land on m* exactly.
        """
        s = MergeState(S32)
        merged, forbidden = [], []
        for tag, a, b in ops:
            if s.same(a, b):
                continue
            if tag == "forbid":
                s.forbid(a, b)
                forbidden.append((a, b))
            elif not s.blocked(a, b):
                s.merge(a, b)
                merged.append((a, b))
        fits = [
            S32.point_count - blocks
            for labels, blocks in _S32_RF_PARTITIONS
            if all(labels[a] == labels[b] for a, b in merged)
            and all(labels[a] != labels[b] for a, b in forbidden)
        ]
        if not fits:
            return
        least = min(fits)
        outcome = _settle(s, least + 1)
        assert outcome not in (_DEAD, _PRUNE), (ops, least)
        if outcome == _SOLVED:
            assert s.merge_count == least


def _reference_settle(state, best):
    """The lowest-first full-scan settle: through `same`, `blocked` and
    `merge` only, it repeatedly takes the first live line, in table order,
    that has fewer than two unblocked pairs, and stops on a dead one or
    merges a forced one's pair.  The fixpoint takes the first live line to
    branch on.

    The packing bound is not recomputed here: the fixpoint reads it from
    the state's own maintained packing through `_bound_reaches`, as
    `_settle` does.  So this reference checks the propagation and the
    order of its merges, on which the packing's repairs depend; the oracle
    test in `TestPackingBound` checks the packing's cuts.  The layer cut
    that follows it is recomputed, by `_reference_layer_cut`."""
    lines = line_index_table(state.shape)
    while True:
        live = [
            li
            for li, idxs in enumerate(lines)
            if not any(state.same(a, b) for a, b in combinations(idxs, 2))
        ]
        for li in live:
            unblocked = _unblocked_pairs(state, lines[li])
            if len(unblocked) < 2:
                if not unblocked:
                    return _DEAD
                state.merge(*unblocked[0])
                if state.merge_count >= best:
                    return _PRUNE
                break
        else:
            if not live:
                return _SOLVED if state.merge_count < best else _PRUNE
            if _bound_reaches(state, best) or _reference_layer_cut(state, best):
                return _PRUNE
            return live[0]


def _reference_layer_cut(state, best):
    """The layer cut of `_settle` from its definition, through `same`,
    `blocked` and the labels of `to_coloring` only.  It is tried for
    n >= 3 when `known_value` gives ah(k, n-1) exactly, with cap =
    ah(k, n-1) - 1, and the incumbent's point_count - best colors are at
    least k * cap - (k - 1).  Per coordinate, each class meets the layers
    of its points' symbols there; r_d counts the classes meeting layer d,
    and Q takes the classes meeting m >= 2 layers, by (m - 1, root)
    descending, each one kept apart from all taken before it.  The node is
    cut when point_count - (sum_d min(cap, r_d) - sum_Q (m - 1)) reaches
    `best` for some coordinate."""
    shape = state.shape
    known = known_value(shape.k, shape.n - 1) if shape.n >= 3 else None
    if known is None or known.lower != known.upper:
        return False
    cap = known.upper - 1
    if shape.point_count - best < shape.k * cap - (shape.k - 1):
        return False
    classes = []
    for x in range(shape.point_count):
        for points in classes:
            if state.same(points[0], x):
                points.append(x)
                break
        else:
            classes.append([x])
    roots = state.to_coloring().colors
    for t in range(shape.n):
        met = [{point_from_index(x, shape).coords[t] for x in points} for points in classes]
        counts = [sum(d in symbols for symbols in met) for d in range(1, shape.k + 1)]
        chosen = []
        for extra, _, points in sorted(
            ((len(symbols) - 1, roots[points[0]], points) for symbols, points in zip(met, classes)),
            reverse=True,
        ):
            if extra and all(state.blocked(points[0], other[0]) for _, other in chosen):
                chosen.append((extra, points))
        most = sum(min(cap, r) for r in counts) - sum(extra for extra, _ in chosen)
        if shape.point_count - most >= best:
            return True
    return False


def _blocks(state):
    """The partition of `state` as first-occurrence block numbers."""
    first = {}
    return tuple(first.setdefault(r, len(first)) for r in state.label)


@st.composite
def _settle_runs(draw, shapes=(S32, CubeShape(4, 2), S33)):
    """A shape and a list of merge, forbid and settle steps.  A settle step
    carries the slack of its prune threshold over the merges made; the
    share of forbids among the pair steps is drawn once per run."""
    shape = draw(st.sampled_from(shapes))
    count = shape.point_count
    forbids = draw(st.integers(0, 4))
    steps = []
    for kind, a, b, slack in draw(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.integers(0, count - 1),
                st.integers(0, count - 1),
                st.integers(1, 8),
            ),
            max_size=40,
        )
    ):
        if kind < 2:
            steps.append(("settle", slack, 0))
        else:
            steps.append(("forbid" if kind < 2 + 2 * forbids else "merge", a, b))
    return shape, steps + [("settle", draw(st.integers(1, 8)), 0)]


def _play(shape, steps):
    """Run `steps` on a `_settle` state and on a full-scan reference state,
    asserting after each settle that both return the same outcome on the
    same partition.  Steps after a branch go on from the settled states,
    so later settles read the bookkeeping left by the merges and forbids
    made since the last one."""
    mine, ref = MergeState(shape), MergeState(shape)
    for tag, a, b in steps:
        if tag == "settle":
            best = mine.merge_count + a
            outcome = _settle(mine, best)
            assert outcome == _reference_settle(ref, best)
            assert _blocks(mine) == _blocks(ref)
            assert mine.packed == ref.packed
            if outcome < 0:
                return outcome
            assert mine.dirty == 0
        elif mine.same(a, b):
            continue
        elif tag == "forbid":
            mine.forbid(a, b)
            ref.forbid(a, b)
        elif not mine.blocked(a, b):
            mine.merge(a, b)
            ref.merge(a, b)
    return outcome


class TestSettleAgainstFullScan:
    """`_settle` on its line bookkeeping against the full-scan reference."""

    @given(_settle_runs())
    @settings(max_examples=1000, deadline=None)
    def test_same_outcome_as_full_scan(self, run):
        _play(*run)

    def test_line_forced_below_is_settled_first(self):
        """On this [3]^2 state line 2, (6, 7, 8), is forced and line 3,
        (0, 3, 6), is dead.  The merge of 6 and 8 on line 2 forces line 1,
        (3, 4, 5), as well, and line 1 is lower than line 3, so its pair 3-5
        is merged before line 3 is found dead, as the lowest-first full
        scan does.  The dead line stays dirty."""
        steps = [
            ("merge", 0, 7),
            ("forbid", 0, 8),
            ("merge", 4, 6),
            ("forbid", 8, 5),
            ("forbid", 3, 7),
            ("forbid", 6, 3),
            ("forbid", 6, 0),
        ]
        assert _play(S32, steps + [("settle", 6, 0)]) == _DEAD
        state = MergeState(S32)
        for tag, a, b in steps:
            getattr(state, tag)(a, b)
        assert not state.same(3, 5)
        assert _settle(state, state.merge_count + 6) == _DEAD
        assert state.same(6, 8)
        assert state.same(3, 5)
        assert state.dirty >> 3 & 1


def _fewest_merges(shape, labels, forbidden, below):
    """The fewest merges, if fewer than `below`, of a rainbow-free set
    partition of `shape`'s points that coarsens the blocks of `labels`
    and keeps each pair in `forbidden` apart; None if there is none.

    Plain backtracking: each block joins an earlier group or opens the
    next one, a branch stops once its merges reach the best so far, and a
    line is checked for two same-group points once its last block is
    placed.  The lines come from `expand`, and nothing here packs lines."""
    roots = sorted(set(labels))
    block = {r: i for i, r in enumerate(roots)}
    of = [block[r] for r in labels]
    count = len(roots)
    apart = [[] for _ in range(count)]
    for a, b in forbidden:
        i, j = sorted((of[a], of[b]))
        apart[j].append(i)
    closing = [[] for _ in range(count)]
    for t in enumerate_lines(shape):
        line = [of[p.index] for p in expand(t, shape)]
        closing[max(line)].append(line)
    group = [0] * count
    least = [below]

    def extend(i, used):
        merges = shape.point_count - count + i - used
        if merges >= least[0]:
            return
        if i == count:
            least[0] = merges
            return
        for g in range(used + 1):
            if any(group[j] == g for j in apart[i]):
                continue
            group[i] = g
            if all(len({group[x] for x in line}) < len(line) for line in closing[i]):
                extend(i + 1, used + (g == used))

    extend(0, 0)
    return least[0] if least[0] < below else None


def _reference_bound_reaches(state, best):
    """`_bound_reaches` in two walks: the greedy refill, then, one line
    short, a search for a 1-for-2 swap that walks the packed lines again
    in line order to rebuild their reaches.  A swap found only answers:
    the state keeps the refill's packing."""
    label, lines, class_lines = state.label, state.lines, state.class_lines
    packed = rest = state.packed
    plines = 0
    while True:
        if not rest:
            free = state.live & ~plines
            if not free:
                break
            rest = free & -free
            packed |= rest
        low = rest & -rest
        rest ^= low
        for x in lines[low.bit_length() - 1]:
            plines |= class_lines[label[x]]
    state.packed = packed
    short = best - state.merge_count - packed.bit_count()
    if short <= 0:
        return True
    return short == 1 and _reference_swap(state)


def _reference_swap(state):
    label, lines, class_lines = state.label, state.lines, state.class_lines
    packed = state.packed
    reaches = []
    seen = twice = 0
    rest = packed
    while rest:
        low = rest & -rest
        rest ^= low
        reach = 0
        for x in lines[low.bit_length() - 1]:
            reach |= class_lines[label[x]]
        twice |= seen & reach
        seen |= reach
        reaches.append((low, reach))
    single = state.live & ~twice & ~packed
    if single & (single - 1) == 0:
        return False
    for low, reach in reaches:
        alone = single & reach
        while alone & (alone - 1):
            first = alone & -alone
            alone ^= first
            apart = 0
            for x in lines[first.bit_length() - 1]:
                apart |= class_lines[label[x]]
            if alone & ~apart:
                return True
    return False


class TestPackingBound:
    """The line packing that `MergeState` keeps and `_settle` cuts on."""

    @given(_settle_runs((S32, CubeShape(4, 2))))
    @settings(max_examples=300, deadline=None)
    def test_cuts_against_partition_oracle(self, run):
        """When `_settle(state, best)` cuts, no rainbow-free partition
        that coarsens the state's classes and keeps its exclusions apart
        has fewer than `best` merges.  The earlier settles of the run leave
        their packing in the state, so a cut reads a packing that merges
        have repaired, not one built afresh.  After a settle that branches,
        the bound is also asked for one merge more than the packing
        reaches, which only a 1-for-2 swap can meet; a yes must hold
        against the oracle too, and the packing left in the state must
        stay class-disjoint with the reaches of its lines."""
        shape, steps = run
        state = MergeState(shape)
        forbidden = []
        for tag, a, b in steps:
            if tag == "settle":
                best = state.merge_count + a
                labels = tuple(state.label)
                if _settle(state, best) in (_DEAD, _PRUNE):
                    assert _fewest_merges(shape, labels, forbidden, best) is None, steps
                    return
                labels = tuple(state.label)
                best = state.merge_count + state.packed.bit_count() + 1
                if _bound_reaches(state, best):
                    assert _fewest_merges(shape, labels, forbidden, best) is None, steps
                _assert_packing(state)
            elif state.same(a, b):
                continue
            elif tag == "forbid":
                state.forbid(a, b)
                forbidden.append((a, b))
            elif not state.blocked(a, b):
                state.merge(a, b)

    @given(_settle_runs())
    @settings(max_examples=300, deadline=None)
    def test_merges_plus_packed_lines_never_fall(self, run):
        """Along a run of merges, forbids and settles, cut or not, the
        merge count plus the number of packed lines never decreases: a
        merge drops at most one packed line, a forbid drops none, and a
        settle only adds lines."""
        shape, steps = run
        state = MergeState(shape)
        level = 0
        for tag, a, b in steps:
            if tag == "settle":
                _settle(state, state.merge_count + a)
            elif state.same(a, b):
                continue
            elif tag == "forbid":
                state.forbid(a, b)
            elif not state.blocked(a, b):
                state.merge(a, b)
            now = state.merge_count + state.packed.bit_count()
            assert now >= level
            level = now

    def test_bound_matches_reference(self, monkeypatch):
        """Every bound test of the full [3]^3 proof gives the answer of the
        two-walk reference, run first from the same state, and leaves the
        same packing: the greedy refill in line order, which a swap found
        does not change."""
        checked = []

        def against_reference(state, best):
            start = state.packed
            expected = _reference_bound_reaches(state, best), state.packed
            state.packed = start
            assert (_bound_reaches(state, best), state.packed) == expected
            checked.append(expected[0])
            return expected[0]

        monkeypatch.setattr("ahj.search._bound_reaches", against_reference)
        outcome = max_rf_colors(S33)
        assert (outcome.status, outcome.best_value) == (Status.OPTIMAL, 10)
        assert outcome.nodes_explored == 6_827
        assert checked

    def test_swap_found_leaves_the_refill(self, monkeypatch):
        """A bound test that answers yes through a 1-for-2 swap leaves
        `state.packed` and the packed lines' `reach` entries exactly as its
        refill made them.  Each bound test of the [4]^2 search is preceded
        by a refill alone, asked for more lines than the state has, so the
        state seen afterwards is the refill's."""
        swaps = []

        def refill_first(state, best):
            assert not _bound_reaches(state, state.merge_count + len(state.lines) + 2)
            packed, reach = state.packed, state.reach[:]
            answer = _bound_reaches(state, best)
            if answer and best - state.merge_count - packed.bit_count() == 1:
                assert state.packed == packed
                assert state.reach == reach
                swaps.append(best)
            return answer

        monkeypatch.setattr("ahj.search._bound_reaches", refill_first)
        outcome = max_rf_colors(CubeShape(4, 2))
        assert (outcome.best_value, outcome.nodes_explored) == (10, 648)
        assert swaps


def _forbidden_pairs(state):
    """Point pairs whose classes `state` keeps apart, one pair per forbid
    entry: x with each point of `_incompat[x]`, which covers every
    kept-apart pair of classes."""
    return [
        (x, y)
        for x, points in enumerate(state._incompat)
        for y in range(state.shape.point_count)
        if points >> y & 1
    ]


# A rainbow-free 10-coloring of [3]^3, the blank cube's completion: one
# class of 18 points and nine singletons.
TEN_COLORS_33 = (1, 2, 1, 3, 1, 1, 1, 1, 4, 5, 1, 1, 1, 1, 6, 1, 7, 1, 1, 1, 8, 1, 9, 1, 10, 1, 1)


@st.composite
def _deep_runs(draw):
    """Merge, forbid and settle steps on [3]^3 inside a rainbow-free
    partition P: an automorphism image of `TEN_COLORS_33` with up to four
    pairs of its colors joined.  A merge joins two points of one class of
    P and a forbid keeps two classes of P apart, so P stays a completion
    of every state: a settle at one above P's merges may neither find a
    state dead nor cut it, and the runs go as deep as P's classes allow.
    Returns P's merges and the steps, whose pair steps have the form of
    `_settle_runs`'s and whose settle steps carry nothing."""
    maps = automorphism_index_maps(S33)
    image = maps[draw(st.integers(0, len(maps) - 1))]
    color = list(range(11))
    for a, b in draw(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), max_size=4)):
        color = [color[b] if c == color[a] else c for c in color]
    part = [0] * S33.point_count
    for x, y in enumerate(image):
        part[y] = color[TEN_COLORS_33[x]]
    steps = []
    for kind, a, b in draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 26), st.integers(0, 26)),
            min_size=30,
            max_size=60,
        )
    ):
        if kind < 2:
            steps.append(("settle", 0, 0))
        elif kind < 4:
            if part[a] != part[b]:
                steps.append(("forbid", a, b))
        else:
            mates = [x for x, c in enumerate(part) if c == part[a]]
            steps.append(("merge", a, mates[b % len(mates)]))
    return S33.point_count - len(set(part)), steps + [("settle", 0, 0)]


class TestLayerCut:
    """The layer-cap cut that `_settle` tries after the packing bound.

    On every capped shape the cut's gate opens only once the incumbent is
    optimal (`test_gate_opens_only_at_an_optimal_incumbent`), so no count
    it makes can lose a value or witness, and the admissibility tests here
    can check the count against the oracle but cannot show a search going
    wrong.  The node pin of the full `[3]^3` proof, 6,827, is the check on
    the count that the searches see.
    """

    @given(_deep_runs())
    @settings(max_examples=200, deadline=None)
    def test_cut_is_admissible(self, run):
        """Each settle of a run settles the [3]^3 state at one above the
        merges of the partition P that the run stays inside, which neither
        cuts nor kills it.  Then the cut may fire at no `best` above P's
        merges, and the largest `best` at which it fires is checked against
        the partition oracle when the state is deep enough for the oracle,
        at most 4 merges short of it (at 5 to 8 short one state may take
        it seconds): no rainbow-free partition that coarsens the state's
        classes and keeps its exclusions apart has fewer than `best`
        merges.  The cut fires at every smaller `best` too, where the
        oracle's answer follows."""
        merges, steps = run
        state = MergeState(S33)
        for tag, a, b in steps:
            if tag == "settle":
                assert _settle(state, merges + 1) >= _SOLVED
                fires = [
                    best
                    for best in range(state.merge_count + 1, S33.point_count)
                    if _layer_cut(state, best)
                ]
                assert not fires or fires[-1] <= merges
                if fires and fires[-1] - state.merge_count <= 4:
                    labels, forbidden = tuple(state.label), _forbidden_pairs(state)
                    assert _fewest_merges(S33, labels, forbidden, fires[-1]) is None, steps
            elif state.same(a, b):
                continue
            elif tag == "forbid":
                state.forbid(a, b)
            elif not state.blocked(a, b):
                state.merge(a, b)

    def test_cuts_of_the_proof_are_admissible(self, monkeypatch):
        """The cuts that the full [3]^3 proof makes, on the states it meets:
        each one at most 5 merges short of its `best`, and every tenth one 6
        short, is checked against the partition oracle as above."""
        fired = []

        def recording(state, best):
            cut = _layer_cut(state, best)
            short = best - state.merge_count
            if cut and short <= 6:
                fired.append((short, tuple(state.label), _forbidden_pairs(state), best))
            return cut

        monkeypatch.setattr("ahj.search._layer_cut", recording)
        assert max_rf_colors(S33).nodes_explored == 6_827
        near = [run for run in fired if run[0] <= 5]
        assert near
        for _, labels, forbidden, best in near + [run for run in fired if run[0] == 6][::10]:
            assert _fewest_merges(S33, labels, forbidden, best) is None

    def test_one_class_across_three_layers_closes_a_gap_of_two(self):
        """Fresh, each layer along a coordinate meets 9 classes, capped at
        4, so a completion has at most 12 classes by this count, 2 more
        than the 10 an incumbent of 17 merges leaves.  A class across two
        layers along coordinate 1, 111 and 211, takes off 1; with 311 it
        meets all three and takes off 2, and the node is cut."""
        state = MergeState(S33)
        assert not _layer_cut(state, 17)
        state.merge(0, 9)
        assert not _layer_cut(state, 17)
        state.merge(0, 18)
        assert _layer_cut(state, 17)
        assert _settle(state, 17) == _PRUNE

    def test_spanning_classes_count_once_unless_kept_apart(self):
        """Two classes across two layers along coordinate 1, {111, 211} and
        {112, 212}, may still merge into one, which then takes off 1 only,
        so the greedy set Q holds one of them.  Kept apart, they end in
        two final classes, take off 2, and the node is cut."""
        state = MergeState(S33)
        state.merge(0, 9)
        state.merge(1, 10)
        assert not _layer_cut(state, 17)
        assert _settle(state.copy(), 17) >= 0
        state.forbid(0, 1)
        assert _layer_cut(state, 17)
        assert _settle(state, 17) == _PRUNE

    def test_caps_are_values_the_package_proves(self):
        """Every cap the searches read for k, n <= 8 is ah(k, n-1) - 1 for a
        value the package proves itself: claim 1 and the oracle of claim 3
        prove [3]^2 and [3]^3, and the search proves [2]^m.  `complete()`
        proves [3]^2 too, with no cap, since n = 2 has none: it refuses the
        blank [3]^2 at 5 colors, which backs the cap 4 that its own [3]^3
        trees read.  Only exact rows of `known_value` give a cap, so the
        paper's 24 <= ah(3, 4) <= 27 gives [3]^5 none, and a wrong row
        fails here before it can shape a proof."""
        tables = {(k, n): _layer_table(CubeShape(k, n)) for k in range(2, 9) for n in range(1, 9)}
        assert {kn: table[0] for kn, table in tables.items() if table is not None} == {
            **{(2, n): 1 for n in range(3, 9)},
            (3, 3): 4,
            (3, 4): 10,
        }
        assert max_rf_colors(S32).best_value == naive_max_rf_colors(S32) == 4
        refusal = complete(Coloring(S32, (0,) * 9), 5)
        assert (refusal.status, refusal.nodes_explored) == (Status.INFEASIBLE, 71)
        proof = max_rf_colors(S33)
        assert (proof.status, proof.best_value) == (Status.OPTIMAL, 10)
        for m in range(2, 8):
            assert max_rf_colors(CubeShape(2, m)).best_value == 1
        assert naive_max_rf_colors(CubeShape(2, 2)) == naive_max_rf_colors(CubeShape(2, 3)) == 1
        assert known_value(3, 4).lower < known_value(3, 4).upper

    def test_gate_opens_only_at_an_optimal_incumbent(self):
        """The gate needs k * cap - k + 1 colors or more, and on every shape
        with a cap (k <= 6, n <= 8) that is at least the most colors
        `bounds_table` allows, ah(k, n) - 1: the cut fires only under an
        optimal incumbent."""
        capped = []
        for k in range(2, 7):
            for n in range(1, 9):
                table = _layer_table(CubeShape(k, n))
                if table is not None:
                    capped.append((k, n))
                    upper = bounds_table(k, n).rows[-1].upper
                    assert k * table[0] - k + 1 >= upper - 1, (k, n)
        assert capped == [(2, n) for n in range(3, 9)] + [(3, 3), (3, 4)]

    def test_gate_skips_a_wide_gap(self):
        """Three pairwise kept-apart classes across all three layers along
        coordinate 1 leave at most 12 - 6 = 6 classes by this count.  That
        cuts at an incumbent of 17 merges, 10 colors, 2 short of k * cap =
        12.  At 18 merges the count would cut as well, but 9 colors are 3
        short of 12, more than k - 1, so the cut is not tried."""
        state = MergeState(S33)
        for x in (0, 1, 2):
            state.merge(x, x + 9)
            state.merge(x, x + 18)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            state.forbid(a, b)
        assert _layer_cut(state, 17)
        assert not _layer_cut(state, 18)


class TestMaxRfColors:
    def test_single_axis(self):
        out = max_rf_colors(S31)
        assert out.status is Status.OPTIMAL
        assert out.best_value == 2

    def test_square(self):
        out = max_rf_colors(S32)
        assert out.status is Status.OPTIMAL
        assert out.best_value == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_symbols(self, n):
        out = max_rf_colors(CubeShape(2, n))
        assert out.status is Status.OPTIMAL
        assert out.best_value == 1

    def test_witness_self_verifies(self):
        out = max_rf_colors(S32)
        assert is_rainbow_free(out.witness)
        assert census(out.witness).distinct_count == out.best_value

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_naive_oracle(self, k, n):
        shape = CubeShape(k, n)
        assert max_rf_colors(shape).best_value == naive_max_rf_colors(shape)

    @pytest.mark.parametrize(
        "k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)]
    )
    def test_naive_oracle_matches_coloring_filter(self, k, n):
        shape = CubeShape(k, n)
        assert naive_max_rf_colors(shape) == _reference_naive_max_rf_colors(shape)

    def test_naive_oracle_on_claim_shapes(self):
        shapes = [CubeShape(2, 2), CubeShape(2, 3), S31, S32]
        assert [naive_max_rf_colors(shape) for shape in shapes] == [1, 1, 2, 4]

    @pytest.mark.parametrize("k,value,nodes", [(3, 4, 38), (4, 10, 648), (5, 17, 30411)])
    def test_single_worker_node_counts_pinned(self, k, value, nodes):
        """The 1-worker search tree is fixed; a kernel change must not move it."""
        out = max_rf_colors(CubeShape(k, 2))
        assert out.status is Status.OPTIMAL
        assert out.best_value == value
        assert out.nodes_explored == nodes

    @pytest.mark.parametrize(
        "shape,node_limit,value,colors",
        [
            (
                CubeShape(5, 2),
                None,
                17,
                (
                    1, 1, 2, 3, 4,
                    1, 1, 5, 6, 4,
                    7, 7, 8, 9, 10,
                    11, 12, 13, 13, 14,
                    15, 16, 13, 13, 17,
                ),
            ),
            (
                S33,
                100_000,
                10,
                (
                    1, 2, 1, 3, 1, 1, 1, 1, 4,
                    5, 1, 1, 1, 1, 6, 1, 7, 1,
                    1, 1, 8, 1, 9, 1, 10, 1, 1,
                ),
            ),
            (
                S34,
                3_000,
                23,
                (
                    1, 2, 1, 3, 1, 1, 1, 1, 4,
                    5, 1, 1, 1, 1, 6, 1, 7, 1,
                    1, 1, 8, 1, 9, 1, 10, 1, 1,
                    11, 1, 1, 1, 1, 12, 1, 13, 1,
                    1, 1, 14, 1, 1, 1, 15, 1, 1,
                    1, 16, 1, 17, 1, 1, 1, 1, 1,
                    1, 1, 18, 1, 19, 1, 20, 1, 1,
                    1, 21, 1, 22, 1, 1, 1, 1, 1,
                    23, 1, 1, 1, 1, 1, 1, 1, 1,
                ),
            ),
        ],
        ids=["5^2", "3^3-capped", "3^4-capped"],
    )
    def test_witnesses_pinned(self, shape, node_limit, value, colors):
        """The witness of each benchmarked search is fixed along with its
        node count: the [5]^2 proof and the capped [3]^3 and [3]^4 runs."""
        out = max_rf_colors(shape, SearchConfig(node_limit=node_limit))
        assert out.best_value == value
        assert out.witness.colors == colors

    def test_time_limit_bounds_warm_start(self):
        started = time.monotonic()
        out = max_rf_colors(CubeShape(3, 4), SearchConfig(time_limit=1.0))
        elapsed = time.monotonic() - started
        assert out.status is Status.FEASIBLE_ONLY
        assert is_rainbow_free(out.witness)
        assert census(out.witness).distinct_count == out.best_value
        assert elapsed < 5.0

    def test_time_limit_bounds_five_cube_warm_start(self):
        """[3]^4's warm start ends in well under a second; [3]^5's does not."""
        started = time.monotonic()
        out = max_rf_colors(S35, SearchConfig(time_limit=1.0))
        elapsed = time.monotonic() - started
        assert out.status is Status.FEASIBLE_ONLY
        assert is_rainbow_free(out.witness)
        assert census(out.witness).distinct_count == out.best_value
        assert elapsed < 5.0

    def test_single_thread_node_counts_reproduce(self):
        a = max_rf_colors(S32)
        b = max_rf_colors(S32)
        assert a.nodes_explored == b.nodes_explored
        assert a.best_value == b.best_value

    def test_node_budget_degrades_to_feasible(self):
        out = max_rf_colors(S33, SearchConfig(node_limit=50))
        assert out.status is Status.FEASIBLE_ONLY
        assert out.nodes_explored == 50
        assert is_rainbow_free(out.witness)
        assert census(out.witness).distinct_count == out.best_value

    def test_no_symmetry_reduction_same_value(self):
        """The unreduced search, one `_dfs` from the empty state with the
        same warm start and no automorphism, reaches the value of the
        two-branch root split with orbital branching."""
        for shape, value in ((S32, 4), (CubeShape(4, 2), 10), (CubeShape(5, 2), 17)):
            seed = _seed_coloring(shape)
            budget = _Incumbent(None, None)
            budget.offer(shape.point_count - census(seed).distinct_count, seed.colors)
            _dfs(MergeState(shape), budget, [])
            assert not budget.exhausted
            assert shape.point_count - budget.best_merges == value
            assert max_rf_colors(shape).best_value == value

    def test_config_validation(self):
        for workers in (0, 2):
            with pytest.raises(SearchError):
                SearchConfig(worker_count=workers)
        # True would read as 1 s and "5" would fail to compare: both are
        # refused as input errors.
        for limit in (-1.0, 0.0, float("nan"), True, "5"):
            with pytest.raises(SearchError):
                SearchConfig(time_limit=limit)
        # A node count meets only an int limit, so 50.5 would never stop a
        # search; 50.0 and True are refused with it.
        for limit in (0, -3, 50.5, 50.0, True):
            with pytest.raises(SearchError):
                SearchConfig(node_limit=limit)


def _fixes_by_brute_force(state, g):
    """Whether the point map g maps the state's classes onto its classes
    and its kept-apart class pairs onto kept-apart class pairs, read from
    the labels and `blocked` alone."""
    classes = {}
    for x, r in enumerate(state.label):
        classes.setdefault(r, set()).add(x)
    partition = {frozenset(c) for c in classes.values()}
    if {frozenset(g[x] for x in c) for c in partition} != partition:
        return False
    apart = {
        frozenset((c, d))
        for c, d in combinations(partition, 2)
        if state.blocked(min(c), min(d))
    }
    return {frozenset(frozenset(g[x] for x in c) for c in pair) for pair in apart} == apart


class TestOrbitalBranching:
    @pytest.mark.parametrize("k", [4, 5])
    def test_stabilizer_matches_brute_force(self, k, monkeypatch):
        """On every state whose stabilizer the [k]^2 search computes, the
        walk of the whole group (None), the filter of the whole table and
        the filter of the inherited group each keep exactly the elements
        that fix the state."""
        shape = CubeShape(k, 2)
        maps = automorphism_index_maps(shape)
        recorded = []

        def recording(state, group):
            recorded.append((state.copy(), group))
            return _stabilizer(state, group)

        monkeypatch.setattr("ahj.search._stabilizer", recording)
        max_rf_colors(shape)
        assert sum(group is None for _, group in recorded) == 2
        for state, group in recorded:
            expected = [g for g in maps if _fixes_by_brute_force(state, g)]
            assert [tuple(g) for g in _stabilizer(state, None)] == expected
            assert _stabilizer(state, list(maps)) == expected
            if group is not None:
                kept = [g for g in group if _fixes_by_brute_force(state, g)]
                assert _stabilizer(state, group) == kept

    def test_skipped_pairs_are_images_of_kept_ones(self, monkeypatch):
        """`_orbit_firsts` keeps the first pair of each class-pair orbit
        under the node's stabilizer and skips the rest, in the [5]^2
        search."""
        calls = []

        def recording(state, pairs, group):
            kept = _orbit_firsts(state, pairs, group)
            calls.append((state.label[:], pairs, group, kept))
            return kept

        monkeypatch.setattr("ahj.search._orbit_firsts", recording)
        max_rf_colors(CubeShape(5, 2))
        assert any(len(kept) < len(pairs) for _, pairs, _, kept in calls)
        for label, pairs, group, kept in calls:
            for i, (a, b) in enumerate(pairs):
                earlier = [pair for pair in pairs[:i] if pair in kept]
                is_image = any(
                    {label[g[c]], label[g[d]]} == {label[a], label[b]}
                    for c, d in earlier
                    for g in group
                )
                assert ((a, b) in kept) is not is_image

    def test_search_never_builds_the_symmetry_table(self, monkeypatch):
        """The first branch node of each root branch walks the group by
        digit arithmetic instead of reading `automorphism_index_maps`."""

        def refuse(_):
            raise AssertionError("automorphism_index_maps was called")

        for module in ("ahj.hypercube", "ahj.search", "ahj.coloring"):
            monkeypatch.setattr(f"{module}.automorphism_index_maps", refuse)
        assert max_rf_colors(CubeShape(4, 2)).nodes_explored == 648
        assert max_rf_colors(S33, SearchConfig(node_limit=2_000)).best_value == 10
        assert max_rf_colors(S34, SearchConfig(node_limit=100)).best_value == 23


class TestIndependentSets:
    def test_square_size_three(self):
        sets = enumerate_independent_sets(S32, 3)
        assert len(sets) == 5
        assert (0, 5, 7) in sets

    def test_cube_size_nine(self):
        assert len(enumerate_independent_sets(S33, 9)) == 2

    def test_cube_size_ten_empty(self):
        assert enumerate_independent_sets(S33, 10) == []

    def test_symmetry_quotient(self):
        assert len(enumerate_independent_sets(S32, 3, up_to_symmetry=True)) == 2
        assert len(enumerate_independent_sets(S33, 9, up_to_symmetry=True)) == 1

    def test_rejects_other_alphabets(self):
        with pytest.raises(SearchError):
            enumerate_independent_sets(CubeShape(2, 2), 2)

    def test_members_pairwise_non_collinear(self):
        for points in enumerate_independent_sets(S32, 3):
            for i, p in enumerate(points):
                for q in points[i + 1 :]:
                    assert not collinear(
                        point_from_index(p, S32), point_from_index(q, S32), S32
                    )

    @pytest.mark.parametrize("size", [-1, 28])
    def test_sizes_out_of_range_rejected(self, size):
        with pytest.raises(SearchError, match="out of range 0..27"):
            enumerate_independent_sets(S33, size)

    @pytest.mark.parametrize("shape", [S32, S33])
    def test_bounded_search_matches_plain_backtracking(self, shape):
        reference = _reference_independent_sets(shape)
        for size in range(shape.point_count + 1):
            expected = reference.get(size, [])
            assert enumerate_independent_sets(shape, size) == expected
            # The warm-start probes walk the same order under a node budget.
            first = next(_independent_sets(shape, size, _Budget(3_000_000, None)), None)
            assert first == (expected[0] if expected else None)

    def test_hypercube_largest_sets(self):
        assert enumerate_independent_sets(S34, 23) == []
        sets = enumerate_independent_sets(S34, 22)
        assert len(sets) == 48
        assert sets[0] == FIRST_22_OF_S34
        assert len(enumerate_independent_sets(S34, 22, up_to_symmetry=True)) == 3

    @pytest.mark.parametrize(
        "shape, sizes",
        [(S32, range(10)), (S33, range(28)), (S34, [0, 1, 2, 20, 21, 22, 23])],
        ids=["3^2", "3^3", "3^4"],
    )
    def test_orbit_marking_matches_orbit_minimum_filter(self, shape, sizes):
        for size in sizes:
            assert enumerate_independent_sets(
                shape, size, up_to_symmetry=True
            ) == _reference_orbit_minima(shape, size)

    def test_hypercube_three_sets_up_to_symmetry(self):
        assert len(enumerate_independent_sets(S34, 3, up_to_symmetry=True)) == 452

    @pytest.mark.parametrize(
        "size, count, digest",
        [
            (3, 452, "46451103d5d5c6af7749a4083340e1f053bfdf6904b70e397e5ad0555f86b130"),
            (4, 4370, "10049c42467eb47c10d0e0711af19d1454f90bef6490a1dc39af31f23dccd610"),
        ],
    )
    def test_hypercube_representatives_pinned(self, size, count, digest):
        """The representatives of the [3]^4 orbits, in order, as the
        whole-orbit walk marked by sorted tuples gave them."""
        reps = enumerate_independent_sets(S34, size, up_to_symmetry=True)
        assert len(reps) == count
        assert hashlib.sha256(repr(reps).encode()).hexdigest() == digest

    @pytest.mark.parametrize("shape", [S31, S32, S33, S34, S35], ids=lambda s: f"3^{s.n}")
    def test_orbit_leaders_are_the_orbit_minima(self, shape):
        maps = automorphism_index_maps(shape)
        expected = {p for p in shape.iter_indices() if min(m[p] for m in maps) == p}
        leaders = _orbit_leaders(shape)
        assert {p for p in shape.iter_indices() if leaders >> p & 1} == expected

    @pytest.mark.parametrize("size", range(19, 24))
    def test_leader_walk_finds_the_first_set(self, size):
        """The first set of each size is the least of its orbit, so a walk
        from the orbit leaders finds it too (and none for 23 points)."""
        first = next(_independent_sets(S34, size), None)
        assert next(_independent_sets(S34, size, firsts=_orbit_leaders(S34)), None) == first
        assert (first is None) == (size == 23)

    def test_hypercube_warm_start_has_23_colors(self):
        started = time.monotonic()
        seed = _seed_coloring(S34)
        assert time.monotonic() - started < 5.0
        assert seed == canonical_relabel(singleton_set_coloring(S34, FIRST_22_OF_S34))
        assert is_rainbow_free(seed)
        assert census(seed).distinct_count == 23

    def test_hypercube_warm_start_probe_nodes(self, monkeypatch):
        """The probes for 20 to 23 points, walked from the orbit leaders
        0, 1, 4 and 5 only, take 17,075 nodes (29,773 from every point)."""
        budgets = []

        class Recorded(_Budget):
            def __init__(self, *args):
                super().__init__(*args)
                budgets.append(self)

        monkeypatch.setattr("ahj.search._Budget", Recorded)
        _seed_coloring(S34)
        assert [b.nodes for b in budgets] == [17_075]

    def test_five_cube_warm_start_ends_without_a_time_limit(self):
        """The size probes share one node budget, so the [3]^5 seed ends in
        seconds with no deadline (eleven full probe budgets took about 63 s)."""
        started = time.monotonic()
        seed = _seed_coloring(S35)
        assert time.monotonic() - started < 15.0
        assert is_rainbow_free(seed)
        # The budget runs out while probing 52 points: the greedy 51-point
        # set stands in.
        assert census(seed).distinct_count == 52

    def test_warm_start_keeps_the_largest_set_found(self, monkeypatch):
        """A clock that advances by 1 at each read passes a deadline of
        10,000 after 22 points are found and while 23 are being refuted;
        the 22-point set is kept, not the greedy 19-point one."""
        clock = [0]

        def monotonic():
            clock[0] += 1
            return clock[0]

        monkeypatch.setattr("ahj.search.time", SimpleNamespace(monotonic=monotonic))
        assert census(_seed_coloring(S34, 10_000)).distinct_count == 23


class TestMinimalEnumeration:
    def test_square_four_colorings(self):
        cs = enumerate_minimal_rf(S32, 4)
        assert len(cs) == 5
        for c in cs:
            assert is_rainbow_free(c)
            assert is_minimal(c)
            assert census(c).distinct_count == 4

    def test_cube_ten_colorings(self):
        cs = enumerate_minimal_rf(S33, 10)
        assert len(cs) == 2
        assert cs[0].colors != cs[1].colors
        for c in cs:
            assert canonical_relabel(c).colors == c.colors

    def test_eleven_colorings_do_not_exist(self):
        assert enumerate_minimal_rf(S33, 11) == []

    def test_cube_colorings_pairwise_distinct(self):
        for colors in range(1, 12):
            cs = enumerate_minimal_rf(S33, colors)
            assert len({c.colors for c in cs}) == len(cs)

    @pytest.mark.parametrize(
        "shape, counts",
        [(S31, range(1, 4)), (S32, range(1, 6)), (S33, range(1, 12)), (S34, range(1, 3))],
        ids=["3^1", "3^2", "3^3", "3^4"],
    )
    def test_up_to_symmetry_matches_orbit_form_filter(self, shape, counts):
        """The set-orbit reduction keeps the first coloring of each
        orbit_canonical_form class, in enumeration order."""
        for colors in counts:
            expected, seen = [], set()
            for c in enumerate_minimal_rf(shape, colors):
                orbit = orbit_canonical_form(c).colors
                if orbit not in seen:
                    seen.add(orbit)
                    expected.append(c)
            assert enumerate_minimal_rf(shape, colors, up_to_symmetry=True) == expected


class TestForcedCell:
    def test_arrangements_have_forced_diagonal_cells(self):
        for arrangement in two_layer_arrangements():
            forced = find_forced_cell(arrangement)
            assert forced is not None
            assert len(forced.witnesses) >= 2
            assert arrangement.colors[forced.point] == UNASSIGNED

    def test_witness_lines_constrain_the_cell(self):
        arrangement = two_layer_arrangements()[0]
        forced = find_forced_cell(arrangement)
        for template in forced.witnesses:
            line = expand(template, arrangement.shape)
            assert any(p.index == forced.point for p in line)

    def test_total_coloring_has_no_forced_cell(self):
        c = singleton_set_coloring(S32, [0, 5, 7])
        assert find_forced_cell(c) is None

    def test_unconstrained_blank_has_no_forced_cell(self):
        blank = Coloring(S32, (0,) * 9)
        assert find_forced_cell(blank) is None

    @pytest.mark.parametrize(
        "number, cell, witnesses",
        [
            (1, "3333", ["*33*", "*3*3"]),
            (2, "2222", ["*2**", "**2*"]),
            (3, "1111", ["*11*", "*1*1"]),
            (4, "3333", ["*3**", "**3*"]),
            (5, "2222", ["*22*", "*2*2"]),
            (6, "1111", ["*1**", "**1*"]),
        ],
    )
    def test_arrangement_certificates(self, number, cell, witnesses):
        forced = find_forced_cell(two_layer_arrangements()[number - 1])
        assert point_name(forced.point, S34) == cell
        assert [str(t) for t in forced.witnesses] == witnesses

    def test_witnesses_skip_lines_that_allow_no_less(self):
        # Cell 11 is pinned to {1, 2} by 1* and again by *1, then to {3, 4}
        # by **: the second line shrinks nothing, so it is no witness.
        partial = Coloring(S32, (0, 1, 2, 2, 3, 3, 1, 3, 4))
        forced = find_forced_cell(partial)
        assert point_name(forced.point, S32) == "11"
        assert [str(t) for t in forced.witnesses] == ["1*", "**"]

    @pytest.mark.parametrize("k, palette, blanks", [(3, 6, 3), (4, 10, 4)])
    def test_matches_oracle_on_random_partials(self, k, palette, blanks):
        """The first forced cell, checked against a scan of the expanded
        lines: a free cell is forced iff each partial color, and one fresh
        color, makes some fully assigned line through it rainbow."""
        import random

        shape = CubeShape(k, 2)
        lines = [[p.index for p in expand(t, shape)] for t in enumerate_lines(shape)]
        rng = random.Random(29 + k)
        forced_seen = 0
        for _ in range(300):
            colors = [rng.randint(1, palette) for _ in range(shape.point_count)]
            for i in rng.sample(range(shape.point_count), rng.randint(1, blanks)):
                colors[i] = UNASSIGNED
            partial = Coloring(shape, tuple(colors))
            used = set(colors) - {UNASSIGNED}
            options = used | {max(used, default=0) + 1}

            def rainbow_with(cell, c):
                return any(
                    cell in idxs
                    and all(colors[i] != UNASSIGNED for i in idxs if i != cell)
                    and len({c if i == cell else colors[i] for i in idxs}) == k
                    for idxs in lines
                )

            expected = next(
                (
                    cell
                    for cell in range(shape.point_count)
                    if colors[cell] == UNASSIGNED
                    and all(rainbow_with(cell, c) for c in options)
                ),
                None,
            )
            forced = find_forced_cell(partial)
            if expected is None:
                assert forced is None, colors
                continue
            forced_seen += 1
            cell = forced.point
            assert cell == expected, colors
            running = None
            for template in forced.witnesses:
                idxs = [p.index for p in expand(template, shape)]
                assert cell in idxs, (colors, template)
                others = [colors[i] for i in idxs if i != cell]
                assert UNASSIGNED not in others and len(set(others)) == k - 1, (colors, template)
                # Each witness shrinks the colors the ones before it allow.
                assert running is None or not running <= set(others), (colors, template)
                running = set(others) if running is None else running & set(others)
            assert running == set(), colors
        # Both answers occur often enough to test.
        assert 50 <= forced_seen <= 250


class TestComplete:
    def test_blank_square_reaches_four(self):
        blank = Coloring(S32, (0,) * 9)
        out = complete(blank, 4)
        assert out.status is Status.OPTIMAL
        assert is_rainbow_free(out.witness)
        assert census(out.witness).distinct_count == 4

    def test_blank_square_refuses_five(self):
        blank = Coloring(S32, (0,) * 9)
        out = complete(blank, 5)
        assert out.status is Status.INFEASIBLE

    def test_completion_extends_the_partial(self):
        partial = singleton_set_coloring(S32, [0, 5, 7]).assign(8, 0)
        out = complete(partial, 4)
        assert out.status is Status.OPTIMAL
        for i, color in enumerate(partial.colors):
            if color != UNASSIGNED:
                assert out.witness.colors[i] == color

    def test_arrangements_refuse_twenty_seven(self):
        for arrangement in two_layer_arrangements():
            out = complete(arrangement, 27, SearchConfig(time_limit=60.0))
            assert out.status is Status.INFEASIBLE
            assert out.certificate is not None

    def test_rainbow_partial_is_infeasible_with_line_certificate(self):
        rainbow = Coloring(S32, tuple(range(1, 10)))
        out = complete(rainbow, 9)
        assert out.status is Status.INFEASIBLE
        assert out.certificate is not None

    def test_overfull_target_is_infeasible(self):
        c = singleton_set_coloring(S32, [0, 5, 7])
        assert complete(c, 3).status is Status.INFEASIBLE

    def test_node_budget_times_out(self):
        blank = Coloring(S33, (0,) * 27)
        out = complete(blank, 10, SearchConfig(node_limit=1))
        assert out.status is Status.TIMEOUT


class TestSharedBudget:
    @pytest.mark.parametrize(
        "run, status, value",
        [
            (lambda config: max_rf_colors(S33, config), Status.FEASIBLE_ONLY, 8),
            (lambda config: max_rf_colors(S34, config), Status.FEASIBLE_ONLY, 20),
            (lambda config: max_rf_colors(S35, config), Status.FEASIBLE_ONLY, 52),
            (lambda config: complete(Coloring(S33, (0,) * 27), 11, config), Status.TIMEOUT, 11),
        ],
        ids=["max_rf_colors-3^3", "max_rf_colors-3^4", "max_rf_colors-3^5", "complete-3^3-to-11"],
    )
    def test_passed_deadline_stops_at_the_first_node(self, run, status, value):
        """Every search reads the clock at every node, so a deadline that
        has passed by the first node ends the search there, and
        max_rf_colors reports its warm start's value before any size probe."""
        out = run(SearchConfig(time_limit=1e-9))
        assert (out.status, out.nodes_explored, out.best_value) == (status, 1, value)


def _assert_completes(partial, target, witness):
    assert is_rainbow_free(witness)
    assert census(witness).distinct_count == target
    assert all(p == 0 or p == w for p, w in zip(partial.colors, witness.colors))


class TestCompleteNodeCounts:
    """complete() is deterministic: these counts fix its search tree (cell
    order, candidate order and pruning), so a faster engine must match them.
    The candidate order moves only first-found completions and where a
    node budget stops: the refusals' counts are those of any order."""

    @pytest.mark.parametrize(
        "k, n, target, node_limit, status, nodes, witness",
        [
            (3, 2, 4, None, Status.OPTIMAL, 10, (1, 2, 1, 3, 4, 3, 1, 2, 1)),
            (3, 2, 5, None, Status.INFEASIBLE, 71, None),
            (
                4, 2, 10, None, Status.OPTIMAL, 3_156,
                (1, 2, 3, 1, 4, 5, 5, 6, 7, 5, 5, 8, 1, 9, 10, 1),
            ),
            (3, 3, 9, 5_000, Status.TIMEOUT, 5_000, None),
            (
                3, 3, 10, 5_000, Status.OPTIMAL, 266,
                (1, 2, 1, 3, 1, 1, 1, 1, 4, 5, 1, 1, 1, 1, 6, 1, 7, 1, 1, 1, 8, 1, 9, 1, 10, 1, 1),
            ),
            (4, 2, 11, 5_000, Status.TIMEOUT, 5_000, None),
            # ah(3, 3) = 11 by a second engine, independent of max_rf_colors:
            # the refusal of the blank [3]^2 at 5 colors above (71 nodes, with
            # no layer cap at n = 2) proves ah(3, 2) = 5, which backs the cap
            # of 4 colors a layer that cuts these two trees.
            (
                3, 3, 10, None, Status.OPTIMAL, 266,
                (1, 2, 1, 3, 1, 1, 1, 1, 4, 5, 1, 1, 1, 1, 6, 1, 7, 1, 1, 1, 8, 1, 9, 1, 10, 1, 1),
            ),
            (3, 3, 11, None, Status.INFEASIBLE, 81, None),
            (
                5, 2, 17, None, Status.OPTIMAL, 204_273,
                (1, 2, 3, 4, 1, 5, 6, 7, 8, 5, 9, 10, 11, 10, 12, 13, 10, 14, 10, 15, 1, 16, 3, 17, 1),
            ),
        ],
    )
    def test_blank_cube(self, k, n, target, node_limit, status, nodes, witness):
        shape = CubeShape(k, n)
        blank = Coloring(shape, (0,) * shape.point_count)
        out = complete(blank, target, SearchConfig(node_limit=node_limit))
        assert (out.status, out.nodes_explored) == (status, nodes)
        assert (out.witness and out.witness.colors) == witness
        if witness is not None:
            _assert_completes(blank, target, out.witness)

    def test_total_partial_is_decided_before_the_first_node(self):
        """A partial with no unassigned cell is decided by the color counts
        before the search ticks: to its own count it is its own
        completion, and one color more has no certificate to give."""
        from ahj.fixtures import load_fixture

        fixture = load_fixture("hypercube-rf-23.ahj")
        out = complete(fixture, 23)
        assert (out.status, out.nodes_explored, out.certificate) == (Status.OPTIMAL, 0, None)
        assert out.witness == fixture
        out = complete(fixture, 24)
        assert (out.status, out.nodes_explored) == (Status.INFEASIBLE, 0)
        assert (out.witness, out.certificate) == (None, None)

    def test_two_layer_endgames(self):
        counts = []
        for arrangement in two_layer_arrangements():
            out = complete(arrangement, 27)
            assert out.status is Status.INFEASIBLE
            counts.append(out.nodes_explored)
        assert counts == [1, 7, 1, 13, 1, 1]

    def test_layer_refills_of_the_23_coloring(self):
        from ahj.fixtures import load_fixture
        from ahj.hypercube import layer

        fixture = load_fixture("hypercube-rf-23.ahj")
        # By symbol of the blanked layer (the same along every coordinate)
        # and target: status and nodes at node_limit=1000.
        expected = {
            (1, 23): (Status.OPTIMAL, 29),
            (1, 24): (Status.INFEASIBLE, 2),
            (2, 23): (Status.OPTIMAL, 28),
            (2, 24): (Status.INFEASIBLE, 8),
            (3, 23): (Status.OPTIMAL, 28),
            (3, 24): (Status.INFEASIBLE, 21),
        }

        # The blanked layer's cells, in index order, of each OPTIMAL refill:
        # one pattern per symbol, with consecutive fresh colors from a base
        # that depends on the coordinate for symbols 1 and 3.
        def fresh_run(spots, base):
            return tuple(base + spots.index(i) if i in spots else 1 for i in range(27))

        refilled = {(t, 2): fresh_run((0, 5, 7, 11, 15, 19, 21), 24) for t in range(1, 5)}
        for t, base in ((1, 24), (2, 24), (3, 23), (4, 22)):
            refilled[t, 1] = fresh_run((1, 3, 8, 9, 14, 16, 20, 22, 24), base)
        for t, base in ((1, 18), (2, 23), (3, 24), (4, 24)):
            refilled[t, 3] = fresh_run((2, 4, 6, 10, 12, 18), base)
        total = solved = 0
        for t in range(1, S34.n + 1):
            for symbol in range(1, S34.k + 1):
                blank = layer(S34, t, symbol)
                partial = Coloring(
                    S34, tuple(0 if i in blank else c for i, c in enumerate(fixture.colors))
                )
                for target in (23, 24):
                    out = complete(partial, target, SearchConfig(node_limit=1_000))
                    assert (out.status, out.nodes_explored) == expected[symbol, target]
                    if out.status is Status.OPTIMAL:
                        _assert_completes(partial, target, out.witness)
                        cells = tuple(out.witness.colors[i] for i in sorted(blank))
                        assert cells == refilled[t, symbol]
                    total += out.nodes_explored
                    solved += out.status in (Status.OPTIMAL, Status.INFEASIBLE)
        assert (total, solved) == (464, 24)

    def test_refusals_do_not_depend_on_the_palette(self):
        """A refusal searches its whole tree, and which subtrees exist does
        not depend on the candidate order, so renaming the partial's colors
        leaves every refusal count alone.  Each layer refill to 23 colors
        stays OPTIMAL within 1,000 nodes under the renamings too."""
        import random

        from ahj.fixtures import load_fixture
        from ahj.hypercube import layer

        def renamed(partial, rng):
            palette = sorted(set(partial.colors) - {0})
            rename = {0: 0, **dict(zip(palette, rng.sample(palette, len(palette))))}
            return Coloring(partial.shape, tuple(rename[c] for c in partial.colors))

        fixture = load_fixture("hypercube-rf-23.ahj")
        refills = []
        for t in range(1, S34.n + 1):
            for symbol in range(1, S34.k + 1):
                blank = layer(S34, t, symbol)
                refills.append(
                    Coloring(S34, tuple(0 if i in blank else c for i, c in enumerate(fixture.colors)))
                )
        endgames = two_layer_arrangements()
        refusals = [complete(p, 24).nodes_explored for p in refills]
        ends = [complete(a, 27).nodes_explored for a in endgames]
        assert (refusals, ends) == ([2, 8, 21] * 4, [1, 7, 1, 13, 1, 1])
        rng = random.Random(32)
        for _ in range(3):
            images = [renamed(p, rng) for p in refills]
            for image in images:
                out = complete(image, 23, SearchConfig(node_limit=1_000))
                assert out.status is Status.OPTIMAL
                _assert_completes(image, 23, out.witness)
            assert [complete(p, 24).nodes_explored for p in images] == refusals
            assert [complete(renamed(a, rng), 27).nodes_explored for a in endgames] == ends


def _reachable_color_counts(partial):
    """Color counts of every rainbow-free fill of the free cells.

    Plain backtracking in point-index order over the assigned colors plus
    one fresh color per free cell, rejecting a value as soon as it completes
    a rainbow line; no pinning, cell ordering or fresh-color symmetry.
    """
    shape = partial.shape
    colors = list(partial.colors)
    lines = [[p.index for p in expand(t, shape)] for t in enumerate_lines(shape)]

    def rainbow_free(cell=None):
        return all(
            0 in cs or len(set(cs)) < len(cs)
            for cs in ([colors[i] for i in line] for line in lines if cell is None or cell in line)
        )

    if not rainbow_free():
        return set()
    free = [i for i, c in enumerate(colors) if c == 0]
    used = sorted(set(colors) - {0})
    top = max(used, default=0)
    alphabet = used + list(range(top + 1, top + 1 + len(free)))
    reached = set()

    def fill(pos):
        if pos == len(free):
            reached.add(len(set(colors)))
            return
        cell = free[pos]
        for value in alphabet:
            colors[cell] = value
            if rainbow_free(cell):
                fill(pos + 1)
        colors[cell] = 0

    fill(0)
    return reached


def _check_against_oracle(partial, monkeypatch):
    """complete() on `partial` at every target from 1 to one above the
    most colors the counts allow, against `_reachable_color_counts`, with
    the layer cut and with `_layer_table` giving no cap.  Both runs have
    the oracle's status, the same witness and certificate, and the cut
    never adds a node.  Returns how many times the cut refused a node."""
    reachable = _reachable_color_counts(partial)
    top = len(set(partial.colors) - {0}) + partial.colors.count(0)
    refusals = []

    def recording(*args):
        refusals.append(_layers_refuse(*args))
        return refusals[-1]

    for target in range(1, top + 2):
        with monkeypatch.context() as patch:
            patch.setattr("ahj.search._layers_refuse", recording)
            out = complete(partial, target)
            patch.setattr("ahj.search._layer_table", lambda shape: None)
            plain = complete(partial, target)
        status = Status.OPTIMAL if target in reachable else Status.INFEASIBLE
        assert (out.status, plain.status) == (status, status), (partial.colors, target)
        assert (out.witness, out.certificate) == (plain.witness, plain.certificate)
        assert out.nodes_explored <= plain.nodes_explored
        if out.witness is not None:
            _assert_completes(partial, target, out.witness)
    return sum(refusals)


class TestCompleteOracle:
    def test_matches_brute_force_on_cubes_with_the_cut(self, monkeypatch):
        """Partials of [3]^3, where each layer holds at most 4 colors:
        automorphism images of three rainbow-free colorings, with up to
        two pairs of colors joined and 1 to 5 cells blanked.  So few open
        cells leave the pins little room, and the cut fires at a few nodes
        only."""
        import random

        bases = [
            TEN_COLORS_33,
            digit_position_coloring(S33).colors,
            enumerate_minimal_rf(S33, 6)[0].colors,
        ]
        rng = random.Random(34)
        maps = automorphism_index_maps(S33)
        fired = 0
        for _ in range(150):
            base, image = rng.choice(bases), maps[rng.randrange(len(maps))]
            cells = [0] * S33.point_count
            for x, y in enumerate(image):
                cells[y] = base[x]
            for _ in range(rng.randint(0, 2)):
                a, b = rng.sample(sorted(set(cells)), 2)
                cells = [a if c == b else c for c in cells]
            for i in rng.sample(range(S33.point_count), rng.randint(1, 5)):
                cells[i] = 0
            fired += _check_against_oracle(Coloring(S33, tuple(cells)), monkeypatch)
        assert fired > 0

    def test_matches_brute_force_on_binary_cubes_with_the_cut(self, monkeypatch):
        """Partials of [2]^3, where each layer holds one color, rainbow
        lines included."""
        import random

        shape = CubeShape(2, 3)
        rng = random.Random(23)
        fired = 0
        for _ in range(60):
            cells = [rng.choice((1, 1, 1, 2)) for _ in range(shape.point_count)]
            for i in rng.sample(range(shape.point_count), rng.randint(1, 6)):
                cells[i] = 0
            fired += _check_against_oracle(Coloring(shape, tuple(cells)), monkeypatch)
        assert fired > 0

    def test_matches_brute_force_on_small_squares(self):
        import random

        rng = random.Random(5)
        for _ in range(120):
            cells = [rng.randint(1, 3) for _ in range(S32.point_count)]
            for i in rng.sample(range(S32.point_count), rng.randint(0, 6)):
                cells[i] = 0
            partial = Coloring(S32, tuple(cells))
            reachable = _reachable_color_counts(partial)
            top = len(set(cells) - {0}) + cells.count(0)
            for target in range(1, top + 2):
                out = complete(partial, target)
                if target in reachable:
                    assert out.status is Status.OPTIMAL, (cells, target)
                    _assert_completes(partial, target, out.witness)
                else:
                    assert out.status is Status.INFEASIBLE, (cells, target)

    def test_matches_brute_force_on_four_squares(self):
        """Partials of [4]^2 have lines with two distinct colors and two free
        cells, where the packing bound counts lines beyond the pins."""
        import random

        shape = CubeShape(4, 2)
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            cells = [rng.randint(1, 6) for _ in range(shape.point_count)]
            if not is_rainbow_free(Coloring(shape, tuple(cells))):
                continue
            checked += 1
            for i in rng.sample(range(shape.point_count), rng.randint(1, 4)):
                cells[i] = 0
            partial = Coloring(shape, tuple(cells))
            reachable = _reachable_color_counts(partial)
            top = len(set(cells) - {0}) + cells.count(0)
            for target in range(1, top + 2):
                out = complete(partial, target)
                if target in reachable:
                    assert out.status is Status.OPTIMAL, (cells, target)
                    _assert_completes(partial, target, out.witness)
                else:
                    assert out.status is Status.INFEASIBLE, (cells, target)


class TestDepthGuard:
    """A search that nests past Python's recursion limit, one frame per
    chosen point or filled cell, is a SearchError that names the shape."""

    def test_max_rf_colors(self):
        with pytest.raises(SearchError, match=r"\[3\]\^8 nests too deeply"):
            max_rf_colors(CubeShape(3, 8), SearchConfig(time_limit=1))

    def test_enumerate_independent_sets(self):
        with pytest.raises(SearchError, match=r"\[3\]\^8 nests too deeply"):
            enumerate_independent_sets(CubeShape(3, 8), 1108)

    def test_complete(self):
        # A blank [3]^7 nests one frame per cell, 2,187 in all, but takes
        # seconds to get there; a lower limit brings the blank [3]^4's 81
        # cells past it instead.
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        blank = Coloring(CubeShape(3, 4), (0,) * 3**4)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            with pytest.raises(SearchError, match=r"\[3\]\^4 nests too deeply"):
                complete(blank, 3, SearchConfig(node_limit=5000))
        finally:
            sys.setrecursionlimit(limit)
        assert complete(blank, 3, SearchConfig(node_limit=5000)).status is Status.OPTIMAL


class TestTableGuard:
    """A shape whose `_line_masks_by_point` table, one bit per point and
    line, would pass 2^32 bits is refused before anything is built.  The
    line table and the warm start are replaced by ones that fail, so a
    refusal that came late would fail here without allocating."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a table was built")

        monkeypatch.setattr("ahj.search.line_index_table", refuse)
        monkeypatch.setattr("ahj.search._seed_coloring", refuse)

    def test_max_rf_colors(self):
        # 2^30 points and 3^30 - 2^30 lines.
        with pytest.raises(SearchError, match=r"\[2\]\^30 needs line tables over 2\^32 bits"):
            max_rf_colors(CubeShape(2, 30), SearchConfig(node_limit=5))

    def test_complete(self):
        # 16,384 points and 4,766,585 lines: 7.8 * 10^10 bits.
        blank = Coloring(CubeShape(2, 14), (0,) * 2**14)
        with pytest.raises(SearchError, match=r"\[2\]\^14 needs line tables over 2\^32 bits"):
            complete(blank, 2, SearchConfig(node_limit=5))

    @pytest.mark.parametrize("k, n", [(2, 12), (3, 8)])
    def test_largest_fitting_shapes_pass(self, k, n):
        _check_tables_fit(CubeShape(k, n))

    @pytest.mark.parametrize("k, n", [(2, 13), (3, 9)])
    def test_next_shapes_are_refused(self, k, n):
        with pytest.raises(SearchError, match="needs line tables"):
            _check_tables_fit(CubeShape(k, n))


class TestTwoLayerArrangements:
    def test_six_arrangements(self):
        arrangements = two_layer_arrangements()
        assert len(arrangements) == 6

    def test_arrangements_pinned(self):
        colors = repr([a.colors for a in two_layer_arrangements()])
        assert hashlib.sha256(colors.encode()).hexdigest() == (
            "49340c8d114abc196fa824c8cd500aacb234e7ab93850eaa3ded9aad9ac55f70"
        )

    def test_arrangement_shape_and_census(self):
        for arrangement in two_layer_arrangements():
            assert arrangement.shape == CubeShape(3, 4)
            cen = census(arrangement)
            # dominant + 9 + 9 singleton palettes, one free layer
            assert cen.distinct_count == 19
            assert cen.unassigned_count == 27

    def test_palettes_disjoint_except_dominant(self):
        for arrangement in two_layer_arrangements():
            sizes = sorted(census(arrangement).class_sizes.values(), reverse=True)
            assert sizes[0] == 36
            assert sizes[1:] == [1] * 18
