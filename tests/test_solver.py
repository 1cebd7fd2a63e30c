from itertools import product

import numpy as np
import pytest

from dmcam.compiler import compile_dm
from dmcam.metric import DistanceMatrix, DistanceSpec, MetricKind, build_dm
from dmcam.solver import (
    BudgetExceededError,
    CurrentRange,
    GlobalAssignment,
    RowAssignment,
    ac3,
    backtrack_row,
    brute_force_feasible,
    decompose_dm,
    extract_solution,
    solve_fixed_k,
)

CR012 = CurrentRange((0, 1, 2))


# -- current range -----------------------------------------------------------


def test_current_range_must_contain_zero():
    with pytest.raises(ValueError):
        CurrentRange((1, 2))


def test_current_range_needs_positive():
    with pytest.raises(ValueError):
        CurrentRange((0,))


def test_current_range_strictly_increasing():
    with pytest.raises(ValueError):
        CurrentRange((0, 2, 1))
    with pytest.raises(ValueError):
        CurrentRange((0, 1, 1))


def test_current_range_rejects_non_integers():
    with pytest.raises(ValueError, match="must be an integer"):
        CurrentRange((0, 1.7))
    with pytest.raises(ValueError, match="must be an integer"):
        CurrentRange((0, True))
    with pytest.raises(ValueError, match="must be an integer"):
        RowAssignment(((1.7,),))
    with pytest.raises(ValueError, match="must be an integer"):
        RowAssignment(((True,), (1,)))


def test_current_range_parse_and_covering():
    assert CurrentRange.parse("0,1,2").multiples == (0, 1, 2)
    assert CurrentRange.covering(3).multiples == (0, 1, 2, 3)
    assert CurrentRange.covering(0).multiples == (0, 1)


# -- decomposition ------------------------------------------------------------


def test_decompose_value_two_three_branches():
    got = set(decompose_dm(3, 2, CR012))
    assert got == {(0, 0, 2), (0, 2, 0), (2, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_decompose_zero():
    assert decompose_dm(3, 0, CR012) == ((0, 0, 0),)


def test_decompose_unreachable_value():
    assert decompose_dm(1, 3, CR012) == ()


def test_decompose_is_lexicographic():
    out = decompose_dm(3, 2, CR012)
    assert list(out) == sorted(out)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("cr", [CR012, CurrentRange((0, 1, 3)), CurrentRange((0, 2, 5))])
def test_decompose_matches_cartesian_enumeration(k, cr):
    for value in range(10):
        naive = {
            t for t in product(cr.multiples, repeat=k) if sum(t) == value
        }
        assert set(decompose_dm(k, value, cr)) == naive


def test_decompose_rejects_bad_args():
    with pytest.raises(ValueError):
        decompose_dm(0, 1, CR012)
    with pytest.raises(ValueError):
        decompose_dm(2, -1, CR012)


# -- row assignments -----------------------------------------------------------


def test_row_assignment_rejects_mixed_on_currents():
    # branch 0 would need both 1 and 2
    with pytest.raises(ValueError):
        RowAssignment(((1, 0), (2, 0)))


def test_row_assignment_derived_fields():
    ra = RowAssignment(((0, 0, 2), (0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert ra.masks == (0b100, 0b010, 0b001)
    assert ra.fet_values == (1, 1, 2)


def test_row_assignment_keeps_trailing_all_off_column():
    ra = RowAssignment(((1,), (0,)))
    assert ra != RowAssignment(((1,),))
    assert ra.tuples == ((1,), (0,))


def test_backtrack_row_contains_published_pattern(hamming_dm):
    # search row "11" of the 2-bit Hamming matrix with a 3-branch cell
    row = hamming_dm.entries[0b11]
    sets = [decompose_dm(3, v, CR012) for v in row]
    assignments = backtrack_row(sets)
    wanted = RowAssignment(((0, 0, 2), (0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert wanted in assignments


def test_backtrack_row_empty_column_set():
    assert backtrack_row([((0, 1),), ()]) == ()


def test_backtrack_row_single_column_accepts_everything():
    sets = [decompose_dm(2, 2, CR012)]
    assignments = backtrack_row(sets)
    assert {a.tuples[0] for a in assignments} == set(decompose_dm(2, 2, CR012))


def test_backtrack_row_outputs_satisfy_per_branch_rule(hamming_dm):
    for s in range(hamming_dm.m):
        sets = [decompose_dm(3, v, CR012) for v in hamming_dm.entries[s]]
        for a in backtrack_row(sets):
            for i in range(a.k):
                nonzero = {a.tuples[c][i] for c in range(a.columns) if a.tuples[c][i]}
                assert len(nonzero) <= 1


def test_backtrack_row_budget():
    sets = [decompose_dm(4, 4, CurrentRange.covering(4))] * 6
    with pytest.raises(BudgetExceededError):
        backtrack_row(sets, budget=10)


# -- ac3 and extraction -----------------------------------------------------------


def _row_from_on_sets(on_sets, columns, value=1):
    """Single-value RowAssignment with the given per-branch on columns."""
    k = len(on_sets)
    return RowAssignment(
        tuple(tuple(value if c in on_sets[i] else 0 for i in range(k)) for c in range(columns))
    )


def _global_picks(domains):
    """Every pick of one row per domain whose on-sets nest pairwise.

    On-sets are recomputed from the current tuples as frozensets, so this
    shares no code with the solver's masks.
    """

    def on_sets(row):
        return [frozenset(c for c, t in enumerate(row.tuples) if t[i]) for i in range(row.k)]

    def nest(a, b):
        return all(x <= y or y <= x for x, y in zip(on_sets(a), on_sets(b)))

    picks = [()]
    for domain in domains:
        picks = [p + (a,) for p in picks for a in domain if all(nest(a, b) for b in p)]
    return set(picks)


def test_ac3_hamming_k3_feasible(hamming_dm):
    out = solve_fixed_k(hamming_dm, 3, CR012)
    assert out.status == "solved"
    assert all(size > 0 for size in out.pruned_sizes)


def test_ac3_hamming_k2_infeasible(hamming_dm):
    out = solve_fixed_k(hamming_dm, 2, CR012)
    assert not out.feasible
    assert brute_force_feasible(hamming_dm, 2, CR012) is False


def test_ac3_single_row_unchanged():
    sets = [decompose_dm(2, 1, CR012)]
    lines = [backtrack_row(sets)]
    region = ac3(lines)
    assert region.feasible
    assert region.domains[0] == lines[0]


def test_extract_single_candidate():
    a = _row_from_on_sets([{0}], columns=2)
    region = ac3([[a]])
    assert extract_solution(region) == GlobalAssignment((a,))


def test_extract_none_when_ac3_passes_but_no_global_pick():
    # Three rows, two candidates each, over six stored columns and one
    # branch. Every candidate has a comparable partner in each other row
    # (arc consistency holds) yet no triple is mutually comparable.
    a1 = _row_from_on_sets([{0, 1}], columns=6)
    a2 = _row_from_on_sets([{3}], columns=6)
    b1 = _row_from_on_sets([{0}], columns=6)
    b2 = _row_from_on_sets([{1, 3}], columns=6)
    c1 = _row_from_on_sets([{0, 2, 3}], columns=6)
    c2 = _row_from_on_sets([{1}], columns=6)
    domains = [[a1, a2], [b1, b2], [c1, c2]]
    region = ac3(domains)
    assert region.feasible
    assert region.domain_sizes == (2, 2, 2)
    assert extract_solution(region) is None
    # brute-force confirmation on the raw domains
    assert _global_picks(domains) == set()


def test_extracted_solution_chains_validate(hamming_dm):
    # per branch, the rows' on-sets nest into an inclusion chain
    out = solve_fixed_k(hamming_dm, 3, CR012)
    for i in range(out.assignment.k):
        chain = sorted({r.masks[i] for r in out.assignment.rows}, key=int.bit_count)
        assert all(a != b and not a & ~b for a, b in zip(chain, chain[1:]))


def test_ac3_pruning_is_sound(hamming_dm):
    # The assignments surviving AC-3 support exactly the same global
    # solutions as the unpruned domains.
    sets = [[decompose_dm(3, v, CR012) for v in hamming_dm.entries[s]] for s in range(4)]
    lines = [backtrack_row(s) for s in sets]
    region = ac3(lines)
    assert _global_picks(region.domains) == _global_picks(lines)


def test_ac3_pruning_sound_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        dm = DistanceMatrix(tuple(tuple(int(v) for v in row) for row in rng.integers(0, 3, (m, n))))
        sets = [[decompose_dm(2, v, CR012) for v in dm.entries[s]] for s in range(m)]
        if any(not cs for row in sets for cs in row):
            continue
        lines = [backtrack_row(s) for s in sets]
        if any(not l for l in lines):
            continue
        region = ac3(lines)
        assert _global_picks(region.domains) == _global_picks(lines)


# -- minimal k ---------------------------------------------------------------------


def test_find_min_k_hamming(hamming_dm):
    result = compile_dm(hamming_dm, CR012, k_max=4)
    assert result.feasible and result.k == 3


def test_find_min_k_trivial_matrix():
    dm = DistanceMatrix(((0,),))
    result = compile_dm(dm, CurrentRange((0, 1)), k_max=1)
    assert result.feasible
    k, ga = result.k, result.assignment
    assert k == 1
    assert ga.rows[0].tuples == ((0,),)


def test_find_min_k_manhattan_matches_oracle(manhattan_dm):
    cr = CurrentRange.covering(manhattan_dm.max_entry)
    result = compile_dm(manhattan_dm, cr, k_max=6)
    assert result.feasible
    k = result.k
    assert k == 3  # derived with the brute-force oracle
    assert brute_force_feasible(manhattan_dm, k, cr) is True
    assert all(not brute_force_feasible(manhattan_dm, kk, cr) for kk in range(1, k))


def test_probe_k_range_stops_at_first_solution(hamming_dm):
    probes = compile_dm(hamming_dm, CR012, k_max=8).probes
    assert [p.k for p in probes] == [1, 2, 3]
    assert [p.feasible for p in probes] == [False, False, True]


@pytest.mark.parametrize("kind", list(MetricKind))
def test_fixed_size_compile_is_one_probe(kind):
    dm = build_dm(DistanceSpec(kind, 2))
    cr = CurrentRange.covering(dm.max_entry)
    min_k = compile_dm(dm, cr).k
    for k in (2, min_k):
        result = compile_dm(dm, cr, k_min=k, k_max=k)
        assert result.probes == (solve_fixed_k(dm, k, cr),)
        assert result.feasible == (k == min_k)


def test_compile_rejects_empty_k_range(hamming_dm):
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        compile_dm(hamming_dm, CR012, k_max=0)
    with pytest.raises(ValueError, match="k_max must be >= 3"):
        compile_dm(hamming_dm, CR012, k_min=3, k_max=2)


def test_monotone_in_k():
    rng = np.random.default_rng(9)
    for _ in range(15):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dm = DistanceMatrix(tuple(tuple(int(v) for v in row) for row in rng.integers(0, 3, (m, n))))
        for k in (1, 2):
            if solve_fixed_k(dm, k, CR012).feasible:
                assert solve_fixed_k(dm, k + 1, CR012).feasible


# -- brute-force oracle -------------------------------------------------------------


def test_oracle_hamming_values(hamming_dm):
    assert brute_force_feasible(hamming_dm, 3, CR012) is True
    assert brute_force_feasible(hamming_dm, 1, CR012) is False


def test_oracle_trivial_matrix():
    assert brute_force_feasible(DistanceMatrix(((0,),)), 1, CurrentRange((0, 1))) is True


def test_oracle_witness_sums_to_target(hamming_dm):
    feasible, witness = brute_force_feasible(hamming_dm, 3, CR012, return_witness=True)
    assert feasible
    assert len(witness) == 3
    total = [[0] * hamming_dm.n for _ in range(hamming_dm.m)]
    for mat in witness:
        for s in range(hamming_dm.m):
            for t in range(hamming_dm.n):
                total[s][t] += mat[s][t]
    assert tuple(tuple(row) for row in total) == hamming_dm.entries


def test_oracle_budget_guard():
    big = DistanceMatrix(tuple(tuple(0 for _ in range(8)) for _ in range(8)))
    with pytest.raises(BudgetExceededError):
        brute_force_feasible(big, 9, CR012)


def test_oracle_agrees_with_solver_on_random_sample():
    rng = np.random.default_rng(123)
    for _ in range(20):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        dm = DistanceMatrix(tuple(tuple(int(v) for v in row) for row in rng.integers(0, 4, (m, n))))
        for k in (1, 2, 3):
            assert solve_fixed_k(dm, k, CR012).feasible == brute_force_feasible(dm, k, CR012)


def test_solver_determinism(hamming_dm):
    a = solve_fixed_k(hamming_dm, 3, CR012)
    b = solve_fixed_k(hamming_dm, 3, CR012)
    assert a.assignment == b.assignment
    assert a.domain_sizes == b.domain_sizes
