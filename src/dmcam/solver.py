"""Constraint solver deciding whether a distance matrix fits a k-device cell.

Each associative-memory cell holds k FeFET+resistor branches. For a search
symbol s and a stored symbol t, branch i either stays off or conducts a
fixed integer multiple of the unit current, chosen from a discrete current
range. Three restrictions shape the search space:

1. the k branch currents of a cell must sum to the target distance entry;
2. within one search row, a branch that turns on conducts the same multiple
   in every stored column, because its drain drive is set by the search
   symbol alone;
3. across search rows, the sets of stored columns that turn a branch on
   must be totally ordered by inclusion, otherwise no threshold-voltage
   ordering over the stored symbols can realize the on/off pattern.

Rows are solved independently first (restriction 2) by backtracking over
the per-entry decompositions, restriction 3 is pruned with AC-3 over row
pairs, and a final depth-first pass extracts one globally consistent
assignment. An independent brute-force oracle enumerates voltage-rank
assignments directly and must agree with the solver verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .metric import DistanceMatrix

DEFAULT_NODE_BUDGET = 1_000_000
ORACLE_CELL_BUDGET = 512        # bound on m*n*k
ORACLE_PATTERN_BUDGET = 2_000_000  # bound on n^n * (n+1)^m rank enumerations


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget."""


@dataclass(frozen=True)
class CurrentRange:
    """Sorted multiples of the unit current a single branch may conduct."""

    multiples: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = tuple(int(v) for v in self.multiples)
        object.__setattr__(self, "multiples", ms)
        if not ms or ms[0] != 0:
            raise ValueError("current range must contain 0 as its first multiple")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("current range must be strictly increasing")
        if len(ms) < 2:
            raise ValueError("current range needs at least one positive multiple")

    @property
    def positive(self) -> tuple[int, ...]:
        return self.multiples[1:]

    @property
    def max_multiple(self) -> int:
        return self.multiples[-1]

    def __contains__(self, value: int) -> bool:
        return value in self.multiples

    @classmethod
    def parse(cls, text: str) -> "CurrentRange":
        return cls(tuple(int(part) for part in text.split(",") if part.strip() != ""))

    @classmethod
    def covering(cls, max_entry: int) -> "CurrentRange":
        """Contiguous range 0..max(max_entry, 1)."""
        return cls(tuple(range(max(int(max_entry), 1) + 1)))


DEFAULT_CURRENT_RANGE = CurrentRange((0, 1, 2))


def decompose_dm(
    k: int, value: int, cr: CurrentRange, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """All ordered k-tuples over the current range that sum to value.

    Branch index carries identity (it names a physical device), so order
    matters. Tuples come out in lexicographic order; an empty result means
    the value cannot be decomposed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if value < 0:
        raise ValueError("value must be nonnegative")
    multiples = cr.multiples
    cap = cr.max_multiple
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    nodes = 0

    def extend(remaining: int, slots: int) -> None:
        nonlocal nodes
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if remaining > cap * slots:
            return
        for v in multiples:
            if v > remaining:
                break
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"decomposition of {value} into {k} parts exceeded {budget} nodes"
                )
            prefix.append(v)
            extend(remaining - v, slots - 1)
            prefix.pop()

    extend(value, k)
    return tuple(out)


class RowAssignment:
    """One current tuple per stored column, for a single search row.

    Construction enforces the per-row rule: each branch has at most one
    distinct nonzero multiple across the stored columns.
    """

    __slots__ = ("tuples", "on_sets", "fet_values", "_hash")

    def __init__(self, tuples: Iterable[Sequence[int]]):
        tt = tuple(tuple(int(v) for v in t) for t in tuples)
        if not tt:
            raise ValueError("row assignment needs at least one column")
        k = len(tt[0])
        if any(len(t) != k for t in tt):
            raise ValueError("current tuples must all have the same branch count")
        on_sets = []
        values = []
        for i in range(k):
            cols = frozenset(c for c, t in enumerate(tt) if t[i] != 0)
            vals = {tt[c][i] for c in cols}
            if len(vals) > 1:
                raise ValueError(
                    f"branch {i} would need distinct on-currents {sorted(vals)}"
                )
            on_sets.append(cols)
            values.append(next(iter(vals)) if vals else 0)
        self.tuples = tt
        self.on_sets = tuple(on_sets)
        self.fet_values = tuple(values)
        self._hash = hash(tt)

    @property
    def k(self) -> int:
        return len(self.tuples[0])

    @property
    def columns(self) -> int:
        return len(self.tuples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowAssignment) and self.tuples == other.tuples

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RowAssignment({self.tuples!r})"


@dataclass(frozen=True)
class GlobalAssignment:
    """One row assignment per search row, jointly threshold-orderable."""

    rows: tuple[RowAssignment, ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return self.rows[0].columns

    @property
    def k(self) -> int:
        return self.rows[0].k

    def currents(self, s: int, t: int) -> tuple[int, ...]:
        return self.rows[s].tuples[t]

    def validate_chains(self) -> None:
        """Check that each branch's per-row on-sets nest into a chain."""
        for i in range(self.k):
            sets = sorted({r.on_sets[i] for r in self.rows}, key=len)
            for a, b in zip(sets, sets[1:]):
                if not a < b:
                    raise ValueError(f"branch {i} on-sets do not form an inclusion chain")


def backtrack_row(
    column_tuple_sets: Sequence[Sequence[tuple[int, ...]]],
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[RowAssignment, ...]:
    """Every pick of one tuple per column keeping per-branch currents unique.

    Columns are filled left to right, tuples tried in the order produced by
    decompose_dm, so the output order is deterministic. An empty input set
    for any column yields no assignments.
    """
    sets = [tuple(s) for s in column_tuple_sets]
    if not sets or any(not s for s in sets):
        return ()
    k = len(sets[0][0])
    results: list[RowAssignment] = []
    values = [0] * k
    choice: list[tuple[int, ...]] = []
    nodes = 0

    def dfs(col: int) -> None:
        nonlocal nodes
        if col == len(sets):
            results.append(RowAssignment(tuple(choice)))
            return
        for tup in sets[col]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"row enumeration exceeded {budget} nodes; raise the budget to continue"
                )
            changed = []
            ok = True
            for i, v in enumerate(tup):
                if v == 0:
                    continue
                if values[i] == 0:
                    values[i] = v
                    changed.append(i)
                elif values[i] != v:
                    ok = False
                    break
            if ok:
                choice.append(tup)
                dfs(col + 1)
                choice.pop()
            for i in changed:
                values[i] = 0

    dfs(0)
    return tuple(results)


def arcs_consistent(a: RowAssignment, b: RowAssignment) -> bool:
    """True when the two rows can share one threshold ordering per branch.

    For every branch the on-sets of the two rows must be comparable under
    set inclusion; an incomparable pair would demand contradictory stored
    threshold orderings.
    """
    if a.k != b.k or a.columns != b.columns:
        raise ValueError("row assignments have mismatched shapes")
    for sa, sb in zip(a.on_sets, b.on_sets):
        if not (sa <= sb or sb <= sa):
            return False
    return True


@dataclass(frozen=True)
class FeasibleRegion:
    """Per-row surviving assignment sets after arc-consistency pruning."""

    domains: tuple[tuple[RowAssignment, ...], ...]
    feasible: bool

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.domains)


def ac3(searchlines: Sequence[Sequence[RowAssignment]]) -> FeasibleRegion:
    """Prune row domains to pairwise-supported assignments.

    Textbook AC-3: FIFO queue over directed arcs, re-enqueueing neighbor
    arcs whenever a domain is revised. Domain order is preserved so later
    extraction is deterministic. Feasible is False as soon as any domain
    empties; a pass here is necessary but not sufficient for a global
    solution.
    """
    domains = [list(d) for d in searchlines]
    region = lambda ok: FeasibleRegion(tuple(tuple(d) for d in domains), ok)
    if any(not d for d in domains):
        return region(False)
    m = len(domains)
    queue = deque((i, j) for i in range(m) for j in range(m) if i != j)
    while queue:
        i, j = queue.popleft()
        supported = [
            a for a in domains[i] if any(arcs_consistent(a, b) for b in domains[j])
        ]
        if len(supported) != len(domains[i]):
            domains[i] = supported
            if not supported:
                return region(False)
            queue.extend((l, i) for l in range(m) if l != i and l != j)
    return region(True)


def iter_global_assignments(
    domains: Sequence[Sequence[RowAssignment]],
) -> Iterator[GlobalAssignment]:
    """Depth-first enumeration of jointly consistent row picks, in domain order."""
    doms = [tuple(d) for d in domains]
    if not doms or any(not d for d in doms):
        return
    chosen: list[RowAssignment] = []

    def dfs(row: int) -> Iterator[GlobalAssignment]:
        if row == len(doms):
            yield GlobalAssignment(tuple(chosen))
            return
        for a in doms[row]:
            if all(arcs_consistent(a, b) for b in chosen):
                chosen.append(a)
                yield from dfs(row + 1)
                chosen.pop()

    yield from dfs(0)


def extract_solution(region: FeasibleRegion) -> Optional[GlobalAssignment]:
    """First globally consistent assignment from a pruned region, or None."""
    if not region.feasible:
        return None
    return next(iter_global_assignments(region.domains), None)


def _first_row_canonical(a: RowAssignment) -> bool:
    """Branch vectors in nondecreasing order: the lexicographically minimal
    representative among all branch permutations of this pattern."""
    vectors = [tuple(t[i] for t in a.tuples) for i in range(a.k)]
    return all(x <= y for x, y in zip(vectors, vectors[1:]))


@dataclass(frozen=True)
class ProbeOutcome:
    """Result of a fixed-k feasibility probe."""

    k: int
    status: str  # solved | no_decomposition | empty_row | arc_inconsistent | no_global
    assignment: Optional[GlobalAssignment] = None
    domain_sizes: tuple[int, ...] = ()
    pruned_sizes: tuple[int, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.status == "solved"


def solve_fixed_k(
    dm: DistanceMatrix,
    k: int,
    cr: CurrentRange = DEFAULT_CURRENT_RANGE,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ProbeOutcome:
    """Run the full pipeline for one cell size.

    Branch permutations are symmetric, so the first row's domain is cut to
    patterns whose branch vectors are sorted; every solution class keeps a
    representative and the k! duplicates disappear.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    decomp_cache: dict[int, tuple[tuple[int, ...], ...]] = {}
    dmcurs: list[list[tuple[tuple[int, ...], ...]]] = []
    for s in range(dm.m):
        row_sets = []
        for t in range(dm.n):
            value = dm.entries[s][t]
            if value not in decomp_cache:
                decomp_cache[value] = decompose_dm(k, value, cr, budget)
            if not decomp_cache[value]:
                return ProbeOutcome(k, "no_decomposition")
            row_sets.append(decomp_cache[value])
        dmcurs.append(row_sets)

    searchlines: list[tuple[RowAssignment, ...]] = []
    for s in range(dm.m):
        assignments = backtrack_row(dmcurs[s], budget)
        if not assignments:
            return ProbeOutcome(k, "empty_row")
        searchlines.append(assignments)
    searchlines[0] = tuple(a for a in searchlines[0] if _first_row_canonical(a))
    domain_sizes = tuple(len(d) for d in searchlines)

    region = ac3(searchlines)
    if not region.feasible:
        return ProbeOutcome(k, "arc_inconsistent", None, domain_sizes, region.domain_sizes)
    ga = extract_solution(region)
    if ga is None:
        return ProbeOutcome(k, "no_global", None, domain_sizes, region.domain_sizes)
    return ProbeOutcome(k, "solved", ga, domain_sizes, region.domain_sizes)


def probe_k_range(
    dm: DistanceMatrix,
    cr: CurrentRange = DEFAULT_CURRENT_RANGE,
    k_max: int = 8,
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[ProbeOutcome]:
    """Probe k = 1..k_max in order, stopping at the first solved size."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    outcomes = []
    for k in range(1, k_max + 1):
        outcome = solve_fixed_k(dm, k, cr, budget)
        outcomes.append(outcome)
        if outcome.feasible:
            break
    return outcomes


def find_min_k(
    dm: DistanceMatrix,
    cr: CurrentRange = DEFAULT_CURRENT_RANGE,
    k_max: int = 8,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[tuple[int, GlobalAssignment]]:
    """Smallest cell size k <= k_max with a full solution, or None."""
    last = probe_k_range(dm, cr, k_max, budget)[-1]
    if last.feasible:
        assert last.assignment is not None
        return last.k, last.assignment
    return None


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------
#
# One branch is fully described by a stored threshold rank per column, a gate
# rank per row and a positive drain multiple per row; it conducts in (s, t)
# exactly when gate_rank[s] > threshold_rank[t]. Any real-valued threshold
# assignment is order-isomorphic to thresholds in {0..n-1} with gate ranks in
# {0..n} (rank = number of distinct thresholds strictly below the gate), so
# enumerating those alphabets covers every realizable on/off pattern. The
# oracle shares no code with the solver pipeline above.


@lru_cache(maxsize=None)
def _branch_patterns(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Distinct on/off matrices one branch can realize; rows as bitmasks."""
    prefix_families = set()
    for thresholds in product(range(n), repeat=n):
        masks = tuple(
            sorted(
                {
                    sum(1 << t for t in range(n) if thresholds[t] < gate)
                    for gate in range(n + 1)
                }
            )
        )
        prefix_families.add(masks)
    patterns: set[tuple[int, ...]] = set()
    for masks in prefix_families:
        patterns.update(product(masks, repeat=m))
    return tuple(sorted(patterns))


def _contribution_matrices(
    dm: DistanceMatrix, cr: CurrentRange
) -> list[tuple[int, ...]]:
    """All distinct per-branch contribution matrices bounded by the target."""
    m, n = dm.m, dm.n
    flat = tuple(v for row in dm.entries for v in row)
    out: set[tuple[int, ...]] = set()
    for pattern in _branch_patterns(m, n):
        choices: list[tuple[int, ...]] = []
        viable = True
        for s in range(m):
            mask = pattern[s]
            if mask == 0:
                choices.append((0,))
                continue
            cap = min(flat[s * n + t] for t in range(n) if mask >> t & 1)
            ds = tuple(d for d in cr.positive if d <= cap)
            if not ds:
                viable = False
                break
            choices.append(ds)
        if not viable:
            continue
        for dvec in product(*choices):
            out.add(
                tuple(
                    dvec[s] if pattern[s] >> t & 1 else 0
                    for s in range(m)
                    for t in range(n)
                )
            )
    return sorted(out)


def brute_force_feasible(
    dm: DistanceMatrix,
    k: int,
    cr: CurrentRange = DEFAULT_CURRENT_RANGE,
    cell_budget: int = ORACLE_CELL_BUDGET,
    pattern_budget: int = ORACLE_PATTERN_BUDGET,
    return_witness: bool = False,
):
    """Exhaustively test whether k branches can reproduce the matrix exactly.

    Enumerates every realizable per-branch contribution matrix over discrete
    rank alphabets and searches for a k-multiset summing to the target.
    Returns a bool, or (bool, witness) with the chosen contribution matrices
    when return_witness is set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m, n = dm.m, dm.n
    if m * n * k > cell_budget:
        raise BudgetExceededError(
            f"oracle instance {m}x{n}x{k} exceeds cell budget {cell_budget}"
        )
    if n**n * (n + 1) ** m > pattern_budget:
        raise BudgetExceededError(
            f"oracle rank enumeration for {m}x{n} exceeds pattern budget {pattern_budget}"
        )

    target = tuple(v for row in dm.entries for v in row)
    zero = tuple(0 for _ in target)
    mats = [mat for mat in _contribution_matrices(dm, cr) if mat != zero]
    mats.sort(key=lambda mat: (-sum(mat), mat))
    sums = [sum(mat) for mat in mats]
    suffix_max = [0] * (len(mats) + 1)
    for idx in range(len(mats) - 1, -1, -1):
        suffix_max[idx] = max(sums[idx], suffix_max[idx + 1])

    failed: set[tuple[int, tuple[int, ...], int]] = set()

    def dfs(start: int, remaining: tuple[int, ...], left: int):
        if not any(remaining):
            return [zero] * left
        if left == 0 or start >= len(mats):
            return None
        if sum(remaining) > left * suffix_max[start]:
            return None
        key = (start, remaining, left)
        if key in failed:
            return None
        for idx in range(start, len(mats)):
            mat = mats[idx]
            next_remaining = []
            ok = True
            for have, need in zip(mat, remaining):
                if have > need:
                    ok = False
                    break
                next_remaining.append(need - have)
            if not ok:
                continue
            sub = dfs(idx, tuple(next_remaining), left - 1)
            if sub is not None:
                return [mat] + sub
        failed.add(key)
        return None

    witness_flat = dfs(0, target, k)
    feasible = witness_flat is not None
    if not return_witness:
        return feasible
    if not feasible:
        return False, None
    witness = [
        tuple(tuple(mat[s * n : (s + 1) * n]) for s in range(m)) for mat in witness_flat
    ]
    return True, witness
