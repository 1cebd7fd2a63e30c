"""Property tests of the bitmask solver core against frozenset definitions.

Every reference here recomputes on-sets from the current tuples as
frozensets, so a mask bit left stale by the search shows up as a mismatch.
"""

import types
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmcam import solver
from dmcam.solver import (
    BudgetExceededError,
    CurrentRange,
    RowAssignment,
    ac3,
    backtrack_row,
    decompose_dm,
    extract_solution,
)


def _on_sets(row):
    k = len(row.tuples[0])
    return tuple(frozenset(c for c, t in enumerate(row.tuples) if t[i]) for i in range(k))


def _nest(a, b):
    return all(x <= y or y <= x for x, y in zip(_on_sets(a), _on_sets(b)))


def _single_valued(tuples):
    k = len(tuples[0])
    return all(len({t[i] for t in tuples if t[i]}) <= 1 for i in range(k))


@st.composite
def row_assignments(draw, columns, k):
    """A row whose branch i conducts current values[i] in the columns of masks[i]."""
    values = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    masks = draw(st.lists(st.integers(0, (1 << columns) - 1), min_size=k, max_size=k))
    return RowAssignment(
        tuple(tuple(v if mask >> c & 1 else 0 for v, mask in zip(values, masks))
              for c in range(columns))
    )


@st.composite
def row_pairs(draw):
    columns, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return draw(row_assignments(columns, k)), draw(row_assignments(columns, k))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(row_pairs())
def test_mask_views_equal_frozenset_definitions(pair):
    a, b = pair
    assert a.on_sets == _on_sets(a)
    # two one-assignment rows are arc consistent exactly when their masks nest
    assert ac3([[a], [b]]).feasible == _nest(a, b) == ac3([[b], [a]]).feasible


@st.composite
def domain_lists(draw):
    columns, k, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = row_assignments(columns, k)
    return [draw(st.lists(rows, min_size=1, max_size=30)) for _ in range(m)]


def _naive_ac3(domains):
    doms = [list(d) for d in domains]
    m = len(doms)
    queue = deque((i, j) for i in range(m) for j in range(m) if i != j)
    while queue:
        i, j = queue.popleft()
        supported = [a for a in doms[i] if any(_nest(a, b) for b in doms[j])]
        if len(supported) != len(doms[i]):
            doms[i] = supported
            if not supported:
                return doms, False
            queue.extend((l, i) for l in range(m) if l != i and l != j)
    return doms, True


def _naive_picks(domains, pick=()):
    """Pairwise-nesting picks of one row per domain, in lexicographic order."""
    if len(pick) == len(domains):
        yield tuple(r.tuples for r in pick)
        return
    for a in domains[len(pick)]:
        if all(_nest(a, b) for b in pick):
            yield from _naive_picks(domains, pick + (a,))


def _rows(columns, *on_sets):
    """Single-current RowAssignment with the given per-branch on columns."""
    return RowAssignment(
        tuple(tuple(1 if c in on else 0 for on in on_sets) for c in range(columns))
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(domain_lists())
# Arc consistent, yet no triple of rows nests: extraction finds nothing.
@example([[_rows(6, {0, 1}), _rows(6, {3})], [_rows(6, {0}), _rows(6, {1, 3})],
          [_rows(6, {0, 2, 3}), _rows(6, {1})]])
# Row 2 is pruned on arc (2, 0) and again on arc (2, 1); arc (0, 2) then has
# to see the second loss to drop row 0's second pick, whose only partner it was.
@example([[_rows(5, {0}, {0, 2, 3, 4}), _rows(5, {0, 2, 4}, {0, 1, 2, 3, 4})],
          [_rows(5, {0, 4}, {0, 2, 3, 4})],
          [_rows(5, {4}, {0, 4}), _rows(5, {0, 1, 3}, {0, 3}), _rows(5, {2, 3}, {1, 2, 4})]])
# More than 64 columns: support bitsets and nesting tests span several words.
@example([[_rows(70, {0, 65}, {69}), _rows(70, {65}, set()), _rows(70, {64, 66}, {1})],
          [_rows(70, {0, 1, 65}, {68, 69}), _rows(70, {65, 66}, {68}), _rows(70, {66}, {1, 69})],
          [_rows(70, {0, 1, 2, 65}, {69}), _rows(70, {64, 65, 66}, {1, 2})]])
def test_ac3_and_extraction_equal_naive_frozenset_search(domains):
    naive_domains, naive_feasible = _naive_ac3(domains)
    region = ac3(domains)
    assert region.feasible == naive_feasible
    assert region.domains == tuple(tuple(d) for d in naive_domains)
    expected = next(_naive_picks(domains), None)
    ga = extract_solution(region)
    assert (tuple(r.tuples for r in ga.rows) if ga else None) == expected


def _naive_rows(sets):
    """Valid picks in search order, and the nodes a depth-first search tries."""
    prefixes, nodes = [()], 0
    for col in sets:
        nodes += len(prefixes) * len(col)
        prefixes = [p + (t,) for p in prefixes for t in col if _single_valued(p + (t,))]
    return prefixes, nodes


@st.composite
def column_tuple_sets(draw):
    k, columns = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    tuples = st.tuples(*[st.integers(0, 2)] * k)
    return [draw(st.lists(tuples, min_size=1, max_size=6, unique=True)) for _ in range(columns)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(column_tuple_sets())
@example([decompose_dm(3, v, CurrentRange((0, 1, 2))) for v in (2, 1, 1, 0)])
def test_backtrack_row_equals_fresh_assignments(sets):
    naive, nodes = _naive_rows(sets)
    got = backtrack_row(sets, budget=nodes)
    assert [r.tuples for r in got] == naive
    for row in got:
        fresh = RowAssignment(row.tuples)
        assert row.masks == fresh.masks
        assert row.fet_values == fresh.fet_values
        assert hash(row) == hash(fresh) and row == fresh
    with pytest.raises(BudgetExceededError):
        backtrack_row(sets, budget=nodes - 1)


def _sorted_vectors(tuples):
    """Branch vectors (branch i's currents over the columns) nondecreasing."""
    vectors = list(zip(*tuples))
    return all(x <= y for x, y in zip(vectors, vectors[1:]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(column_tuple_sets())
@example([decompose_dm(3, v, CurrentRange((0, 1, 2))) for v in (2, 1, 1, 0)])
# The two branches tie through column 1 on (1, 1) or (0, 0) picks and are
# decided in column 2; other prefixes are decided in column 0 or 1.
@example([[(1, 1), (0, 1), (1, 0)], [(1, 1), (0, 1), (1, 0), (0, 0)], [(0, 1), (1, 0)]])
def test_canonical_rows_equal_sorted_vector_filter(sets):
    naive, nodes = _naive_rows(sets)
    got = backtrack_row(sets, budget=nodes, canonical=True)
    assert [r.tuples for r in got] == [t for t in naive if _sorted_vectors(t)]


def _names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_oracle_shares_no_code_with_the_solver_pipeline():
    oracle = set()
    for fn in (solver.brute_force_feasible, solver._contribution_matrices,
               solver._branch_patterns.__wrapped__):
        oracle |= _names(fn.__code__)
    pipeline = {"RowAssignment", "_SupportIndex", "_bitset", "backtrack_row", "ac3",
                "extract_solution", "decompose_dm", "solve_fixed_k", "masks"}
    assert not oracle & pipeline
