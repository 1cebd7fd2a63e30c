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
assignment. On-sets travel through all three stages as int column masks.
AC-3 and extraction share one support index that keeps domain positions as
int bitsets, so a support test is a few big-int ANDs (bitwise arc
consistency: Lecoutre and Vion, "Enforcing arc consistency using bitwise
operations", 2008). An independent brute-force oracle enumerates
voltage-rank assignments directly and must agree with the solver verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Sequence

from .metric import DistanceMatrix, as_integer

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
        ms = tuple(as_integer(v, "a current multiple") for v in self.multiples)
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

    @classmethod
    def parse(cls, text: str) -> "CurrentRange":
        return cls(tuple(int(part) for part in text.split(",") if part.strip() != ""))

    @classmethod
    def covering(cls, max_entry: int) -> "CurrentRange":
        """Contiguous range 0..max(max_entry, 1)."""
        return cls(tuple(range(max(int(max_entry), 1) + 1)))


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
    distinct nonzero multiple across the stored columns. An assignment is
    stored as its column count, branch i's int column mask ``masks[i]``
    (bit c set when column c conducts) and branch i's on-current
    ``fet_values[i]`` (0 when it never conducts); ``tuples`` derives the
    per-column current tuples from those on demand.
    """

    __slots__ = ("columns", "masks", "fet_values")

    def __init__(self, tuples: Iterable[Sequence[int]]):
        tt = tuple(tuple(as_integer(v, "a branch current") for v in t) for t in tuples)
        if not tt:
            raise ValueError("row assignment needs at least one column")
        k = len(tt[0])
        if any(len(t) != k for t in tt):
            raise ValueError("current tuples must all have the same branch count")
        masks = []
        values = []
        for i in range(k):
            cols = [c for c, t in enumerate(tt) if t[i] != 0]
            vals = {tt[c][i] for c in cols}
            if len(vals) > 1:
                raise ValueError(
                    f"branch {i} would need distinct on-currents {sorted(vals)}"
                )
            masks.append(sum(1 << c for c in cols))
            values.append(next(iter(vals)) if vals else 0)
        self.columns, self.masks, self.fet_values = len(tt), tuple(masks), tuple(values)

    @classmethod
    def _checked(cls, columns, masks, fet_values) -> "RowAssignment":
        """An assignment whose masks and values the caller already derived."""
        row = object.__new__(cls)
        row.columns, row.masks, row.fet_values = columns, masks, fet_values
        return row

    @property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(v if mask >> c & 1 else 0 for mask, v in zip(self.masks, self.fet_values))
            for c in range(self.columns)
        )

    @property
    def k(self) -> int:
        return len(self.masks)

    def _key(self) -> tuple:
        return self.columns, self.masks, self.fet_values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowAssignment) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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


def backtrack_row(
    column_tuple_sets: Sequence[Sequence[tuple[int, ...]]],
    budget: int = DEFAULT_NODE_BUDGET,
    canonical: bool = False,
) -> tuple[RowAssignment, ...]:
    """Every pick of one tuple per column keeping per-branch currents unique.

    Columns are filled left to right, tuples tried in the order produced by
    decompose_dm, so the output order is deterministic. An empty input set
    for any column yields no assignments. Branch masks and on-currents are
    built along the search path, so each result needs no re-validation.

    With canonical set, only assignments whose branch vectors (branch i's
    currents over the columns, left to right) are in nondecreasing
    lexicographic order come out, in the same relative order. A prefix is
    cut as soon as two adjacent branches are decided in descending order.
    """
    sets = [tuple(s) for s in column_tuple_sets]
    if not sets or any(not s for s in sets):
        return ()
    k = len(sets[0][0])
    # per column and tuple: its nonzero (branch, current) pairs, and the
    # adjacent branch pairs (bit i for branches i, i+1) it orders ascending
    # and those it orders descending
    options = [
        [
            (
                tuple((i, v) for i, v in enumerate(tup) if v != 0),
                sum(1 << i for i in range(k - 1) if tup[i] < tup[i + 1]),
                sum(1 << i for i in range(k - 1) if tup[i] > tup[i + 1]),
            )
            for tup in col
        ]
        for col in sets
    ]
    results: list[RowAssignment] = []
    values = [0] * k
    masks = [0] * k
    nodes = 0
    columns = len(options)
    last = columns - 1

    def dfs(col: int, tied: int) -> None:
        # tied: adjacent branch pairs whose vectors are equal so far
        nonlocal nodes
        bit = 1 << col
        for on, ascending, descending in options[col]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"row enumeration exceeded {budget} nodes; raise the budget to continue"
                )
            if tied & descending:
                continue
            changed = []
            for i, v in on:
                if values[i] == 0:
                    values[i] = v
                    changed.append(i)
                elif values[i] != v:
                    break
            else:
                for i, _ in on:
                    masks[i] |= bit
                if col == last:
                    results.append(
                        RowAssignment._checked(columns, tuple(masks), tuple(values))
                    )
                else:
                    dfs(col + 1, tied & ~ascending)
                for i, _ in on:
                    masks[i] ^= bit
            for i in changed:
                values[i] = 0

    dfs(0, (1 << (k - 1)) - 1 if canonical else 0)
    return tuple(results)


def _bitset(positions: Iterable[int], size: int) -> int:
    """The int with exactly the given bit positions (all below size) set."""
    bits = bytearray((size + 7) >> 3)
    for p in positions:
        bits[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(bits, "little")


class _SupportIndex:
    """Which positions of each row's domain nest with a given branch mask.

    Built from one list of branch-mask tuples per row. For row j and branch
    b it keeps every distinct mask with the bitset of the positions holding
    it, and memoizes, per query mask q, the OR of the bitsets whose mask
    nests with q (a subset or a superset). The positions of row j that an
    assignment with masks x can share a threshold ordering with are then
    the AND over b of those ORs: a support test is k big-int ANDs. A row is
    indexed on its first query, and positions are fixed at construction, so
    a memo entry stays valid while callers narrow their own live bitsets.
    """

    __slots__ = ("_rows", "_branches")

    def __init__(self, rows: Sequence[Sequence[tuple[int, ...]]]):
        self._rows = rows
        self._branches: list[Optional[list]] = [None] * len(rows)

    def _index_row(self, j: int) -> list:
        row = self._rows[j]
        branches = []
        for b in range(len(row[0])):
            positions: dict[int, list[int]] = {}
            for p, masks in enumerate(row):
                positions.setdefault(masks[b], []).append(p)
            values = [(v, _bitset(ps, len(row))) for v, ps in positions.items()]
            branches.append(({}, values))
        self._branches[j] = branches
        return branches

    def support(self, j: int, masks: Sequence[int], allowed: int) -> int:
        """The positions of ``allowed`` in row j that nest with ``masks`` on every branch."""
        branches = self._branches[j] or self._index_row(j)
        for q, (memo, values) in zip(masks, branches):
            comparable = memo.get(q)
            if comparable is None:
                comparable = 0
                for v, bits in values:
                    both = v & q
                    if both == v or both == q:
                        comparable |= bits
                memo[q] = comparable
            allowed &= comparable
            if not allowed:
                break
        return allowed


@dataclass(frozen=True)
class FeasibleRegion:
    """Per-row surviving assignment sets after arc-consistency pruning."""

    domains: tuple[tuple[RowAssignment, ...], ...]
    feasible: bool
    # when feasible: ac3's input domains, its support index over them and
    # each row's live bitset, which extraction goes on from
    _support: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.domains)


def ac3(searchlines: Sequence[Sequence[RowAssignment]]) -> FeasibleRegion:
    """Prune row domains to pairwise-supported assignments.

    Textbook AC-3: FIFO queue over directed arcs, re-enqueueing neighbor
    arcs whenever a domain is revised. Each row keeps its live domain
    positions, in order, and the same positions as a bitset; revising arc
    (i, j) keeps each live position of row i whose support in row j, from
    the support index, meets row j's live bitset. Domain order is
    preserved so later extraction is deterministic. Feasible is False as
    soon as any domain empties; a pass here is necessary but not
    sufficient for a global solution.
    """
    domains = [tuple(d) for d in searchlines]
    if any(not d for d in domains):
        return FeasibleRegion(tuple(domains), False)
    m = len(domains)
    masks = [[a.masks for a in d] for d in domains]
    index = _SupportIndex(masks)
    kept = [list(range(len(d))) for d in domains]
    live = [(1 << len(d)) - 1 for d in domains]

    queue = deque((i, j) for i in range(m) for j in range(m) if i != j)
    while queue:
        i, j = queue.popleft()
        theirs, row = live[j], masks[i]
        still = [p for p in kept[i] if index.support(j, row[p], theirs)]
        if len(still) != len(kept[i]):
            kept[i] = still
            if not still:
                break
            live[i] = _bitset(still, len(domains[i]))
            queue.extend((l, i) for l in range(m) if l != i and l != j)
    feasible = all(kept)
    pruned = tuple(tuple(d[p] for p in ps) for d, ps in zip(domains, kept))
    return FeasibleRegion(pruned, feasible, (domains, index, live) if feasible else None)


def extract_solution(region: FeasibleRegion) -> Optional[GlobalAssignment]:
    """First globally consistent assignment from a pruned region, or None.

    Forward checking from where ac3 stopped: each pick ANDs its support into
    the live bitset of every later row, a pick that empties one is skipped,
    and a row's candidates are visited lowest position first.
    """
    if not region.feasible:
        return None
    domains, index, live = region._support
    m = len(domains)
    chosen: list[RowAssignment] = []

    def dfs(row: int, allowed: list[int]) -> bool:
        if row == m:
            return True
        candidates = allowed[0]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            a = domains[row][low.bit_length() - 1]
            later = []
            for j, bits in enumerate(allowed[1:], row + 1):
                bits = index.support(j, a.masks, bits)
                if not bits:
                    break
                later.append(bits)
            else:
                chosen.append(a)
                if dfs(row + 1, later):
                    return True
                chosen.pop()
        return False

    return GlobalAssignment(tuple(chosen)) if dfs(0, live) else None


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
    cr: CurrentRange,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ProbeOutcome:
    """Run the full pipeline for one cell size.

    Branch permutations are symmetric, so the first row is enumerated in
    canonical form only, with its branch vectors sorted; every solution
    class keeps a representative and the k! duplicates disappear.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
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
        assignments = backtrack_row(dmcurs[s], budget, canonical=s == 0)
        if not assignments:
            return ProbeOutcome(k, "empty_row")
        searchlines.append(assignments)
    domain_sizes = tuple(len(d) for d in searchlines)

    region = ac3(searchlines)
    if not region.feasible:
        return ProbeOutcome(k, "arc_inconsistent", None, domain_sizes, region.domain_sizes)
    ga = extract_solution(region)
    if ga is None:
        return ProbeOutcome(k, "no_global", None, domain_sizes, region.domain_sizes)
    return ProbeOutcome(k, "solved", ga, domain_sizes, region.domain_sizes)


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
    cr: CurrentRange,
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
    if m * n * k > ORACLE_CELL_BUDGET:
        raise BudgetExceededError(
            f"oracle instance {m}x{n}x{k} exceeds cell budget {ORACLE_CELL_BUDGET}"
        )
    if n**n * (n + 1) ** m > ORACLE_PATTERN_BUDGET:
        raise BudgetExceededError(
            f"oracle rank enumeration for {m}x{n} exceeds pattern budget {ORACLE_PATTERN_BUDGET}"
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
