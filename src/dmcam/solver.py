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
assignment. A probe decomposes each distinct entry value once and keeps one
tuple table per value (``_TupleTable``), which every column and row
holding the value shares, with the tuples that fit each prefix state it
has seen; the tables live as long as the probe. Budget nodes are counted
in bulk, with the same totals as one count per node tried: a decomposition
settles its last slot in closed form, and a row prefix adds its column's
whole tuple set. On-sets travel through all three stages as int column
masks. AC-3 and extraction share one support index that keeps domain
positions as int bitsets, so a support test is a few big-int ANDs (bitwise
arc consistency: Lecoutre and Vion, "Enforcing arc consistency using
bitwise operations", 2008; AC-3 after Mackworth, "Consistency in networks
of relations", 1977). An independent brute-force oracle enumerates
voltage-rank assignments directly and must agree with the solver verdict.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import compress, product, repeat
from operator import and_, getitem, itemgetter, or_, rshift
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
        """Comma-separated multiples such as "0,1,2"; an empty part is an error."""
        parts = text.split(",")
        if not all(part.strip() for part in parts):
            raise ValueError(f"current levels {text!r} hold an empty part")
        return cls(tuple(int(part) for part in parts))

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
    the value cannot be decomposed. One budget node is one multiple tried
    on a prefix; the last slot is settled in closed form, counting the
    multiples up to what remains and emitting the remainder only when it
    is itself a multiple.
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
        # stops early once nodes passes the budget, which the caller then raises
        nonlocal nodes
        if remaining > cap * slots:
            return
        if slots == 1:
            fits = bisect_right(multiples, remaining)
            nodes += fits
            if multiples[fits - 1] == remaining:
                out.append((*prefix, remaining))
            return
        for v in multiples:
            if v > remaining:
                break
            nodes += 1
            if nodes > budget:
                return
            prefix.append(v)
            extend(remaining - v, slots - 1)
            prefix.pop()

    try:
        extend(value, k)
    finally:
        del extend  # it refers to itself: break the cycle
    if nodes > budget:
        raise BudgetExceededError(
            f"decomposition of {value} into {k} parts exceeded {budget} nodes"
        )
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


def _bitset(positions: Iterable[int], size: int) -> int:
    """The int with exactly the given bit positions (all below size) set."""
    bits = bytearray((size + 7) >> 3)
    for p in positions:
        bits[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(bits, "little")


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _positions(bits: int) -> list[int]:
    """The positions of the set bits, ascending."""
    flags = format(bits, "b")[::-1].encode().translate(_DIGIT_FLAGS)
    return list(compress(range(len(flags)), flags))


class _TupleTable:
    """One column's tuple set prepared for row enumeration.

    A row prefix's on-currents are also kept as a one-hot state: bit
    ``i * len(levels) + levels[v]`` is set when branch i conducts current v,
    where ``levels`` numbers the nonzero currents and is shared by every
    table of a probe. Per tuple the table keeps its own state bits, the
    bits it conflicts with (another current on a branch it turns on), the
    branches it turns on and the adjacent branch pairs (bit i for branches
    i, i+1) it orders ascending and those it orders descending.
    ``fitting(state, values)`` lists, in order, the tuples a prefix with
    that state and on-current vector can take, each with the state and
    vector it extends the prefix to. Per-tuple data is built on the first
    query and answers are memoized per state, so the columns and rows that
    hold the same value share both.
    """

    __slots__ = ("tuples", "_levels", "_options", "_fits")

    def __init__(self, tuples: Sequence[tuple[int, ...]], levels: dict[int, int]):
        self.tuples = tuple(tuples)
        self._levels = levels
        self._options: Optional[list] = None
        self._fits: dict[int, list] = {}

    def _prepare(self) -> list:
        width = len(self._levels)
        every = (1 << width) - 1  # one branch's state bits
        options = []
        for tup in self.tuples:
            on: list[int] = []
            bits = conflict = ascending = descending = 0
            for i, v in enumerate(tup):
                if v:
                    on.append(i)
                    bit = 1 << (i * width + self._levels[v])
                    bits |= bit
                    conflict |= (every << (i * width)) ^ bit
                if i and tup[i - 1] != v:
                    if tup[i - 1] < v:
                        ascending |= 1 << (i - 1)
                    else:
                        descending |= 1 << (i - 1)
            options.append((tup, bits, conflict, tuple(on), ascending, descending))
        self._options = options
        return options

    def fitting(self, state: int, values: tuple[int, ...]) -> list:
        fits = self._fits.get(state)
        if fits is None:
            options = self._options or self._prepare()
            # merging by OR gives each branch its one nonzero current, or 0
            fits = self._fits[state] = [
                (state | bits, tuple(map(or_, values, tup)), on, ascending, descending)
                for tup, bits, conflict, on, ascending, descending in options
                if not state & conflict
            ]
        return fits


def _current_levels(currents: Iterable[int]) -> dict[int, int]:
    """The nonzero currents numbered in increasing order, for _TupleTable states."""
    return {v: n for n, v in enumerate(sorted(set(currents) - {0}))}


def backtrack_row(
    column_tuple_sets: Sequence[Sequence[tuple[int, ...]]],
    budget: int = DEFAULT_NODE_BUDGET,
    canonical: bool = False,
    tables: Optional[Sequence[_TupleTable]] = None,
) -> tuple[RowAssignment, ...]:
    """Every pick of one tuple per column keeping per-branch currents unique.

    Columns are filled left to right, tuples tried in the order produced by
    decompose_dm, so the output order is deterministic. An empty input set
    for any column yields no assignments. Branch masks and on-currents are
    built along the search path, so each result needs no re-validation.
    One budget node is one tuple tried on a prefix: a visited prefix adds
    its column's whole set at once.

    With canonical set, only assignments whose branch vectors (branch i's
    currents over the columns, left to right) are in nondecreasing
    lexicographic order come out, in the same relative order. A prefix is
    cut as soon as two adjacent branches are decided in descending order.

    tables, when given, holds one _TupleTable per column, built from that
    column's set; solve_fixed_k shares one per distinct entry value.
    """
    sets = [tuple(s) for s in column_tuple_sets]
    if not sets or any(not s for s in sets):
        return ()
    k = len(sets[0][0])
    if tables is None:
        levels = _current_levels(v for s in sets for tup in s for v in tup)
        tables = [_TupleTable(s, levels) for s in sets]
    results: list[RowAssignment] = []
    masks = [0] * k
    nodes = 0
    columns = len(sets)
    last = columns - 1
    checked = RowAssignment._checked

    def dfs(col: int, state: int, values: tuple[int, ...], tied: int) -> None:
        # tied: adjacent branch pairs whose vectors are equal so far
        nonlocal nodes
        table = tables[col]
        nodes += len(table.tuples)
        if nodes > budget:
            raise BudgetExceededError(
                f"row enumeration exceeded {budget} nodes; raise the budget to continue"
            )
        fits = table.fitting(state, values)
        bit = 1 << col
        if col == last:
            for _, merged, on, _, descending in fits:
                if not tied & descending:
                    for i in on:
                        masks[i] |= bit
                    results.append(checked(columns, tuple(masks), merged))
                    for i in on:
                        masks[i] ^= bit
            return
        for after, merged, on, ascending, descending in fits:
            if not tied & descending:
                for i in on:
                    masks[i] |= bit
                dfs(col + 1, after, merged, tied & ~ascending)
                for i in on:
                    masks[i] ^= bit

    try:
        dfs(0, 0, (0,) * k, (1 << (k - 1)) - 1 if canonical else 0)
    finally:
        del dfs  # it refers to itself: break the cycle so its tables are freed at once
    return tuple(results)


# _OCTET_DIGITS[c] maps a byte to the digit "1" when its bit c is set, else "0"
_OCTET_DIGITS = [bytes(b"01"[x >> c & 1] for x in range(256)) for c in range(8)]


def _bit_slices(masks: Iterable[int], width: int) -> list[int]:
    """Bitset c holds position p when bit c of the p-th mask is set, for c < width.

    Each byte of the masks becomes one byte string, read backwards so that
    position 0 is the last digit, and each of its bits one base-2 numeral.
    """
    slices: list[int] = []
    while True:
        if width > 8:
            masks = list(masks)
            octets = bytes(map(and_, masks, repeat(255)))
        else:
            octets = bytes(masks)
        octets = octets[::-1]
        slices.extend(int(octets.translate(digits), 2) for digits in _OCTET_DIGITS[:width])
        if width <= 8:
            return slices
        masks, width = map(rshift, masks, repeat(8)), width - 8


class _Nesting(dict):
    """One row's branch: query mask -> bitset of the positions whose mask nests with it.

    Holds the branch's masks bit-sliced by stored column, and fills an entry
    on its first lookup: a mask is a superset of query q when it has every
    column of q (an AND over those slices) and a subset when it has none of
    the others (the complement of an OR over theirs).
    """

    __slots__ = ("_slices", "_everyone")

    def __missing__(self, q: int) -> int:
        superset, outside = self._everyone, 0
        for c, positions in enumerate(self._slices):
            if q >> c & 1:
                superset &= positions
            else:
                outside |= positions
        comparable = self[q] = superset | (self._everyone ^ outside)
        return comparable


class _SupportIndex:
    """Which positions of each row's domain nest with a given branch mask.

    Built from one list of branch-mask tuples per row and the column count;
    ``nesting(j)`` gives row j's branches as _Nesting maps. The positions of
    row j that an assignment with masks x can share a threshold ordering
    with are the AND over b of ``nesting(j)[b][x[b]]``: a support test is k
    dict lookups and k big-int ANDs, run in C by ``reduce(and_, map(getitem,
    ...))``. A row is indexed on its first query, and positions are fixed
    until ``forget``, so a memo entry stays valid while callers narrow their
    own live bitsets.
    """

    __slots__ = ("_rows", "_columns", "_branches")

    def __init__(self, rows: Sequence[Sequence[tuple[int, ...]]], columns: int):
        self._rows = rows
        self._columns = columns
        self._branches: list[Optional[list[_Nesting]]] = [None] * len(rows)

    def nesting(self, j: int) -> list[_Nesting]:
        branches = self._branches[j]
        if branches is None:
            row = self._rows[j]
            branches = self._branches[j] = []
            for b in range(len(row[0])):
                nesting = _Nesting()
                nesting._slices = _bit_slices(map(itemgetter(b), row), self._columns)
                nesting._everyone = (1 << len(row)) - 1
                branches.append(nesting)
        return branches

    def forget(self, j: int) -> None:
        """Drop row j's index; it is rebuilt from ``rows[j]`` on the next query."""
        self._branches[j] = None


@dataclass(frozen=True)
class FeasibleRegion:
    """Per-row surviving assignment sets after arc-consistency pruning."""

    domains: tuple[tuple[RowAssignment, ...], ...]
    feasible: bool
    # when feasible: ac3's domains (a re-based row holds only its survivors),
    # its support index over them and each row's live bitset, which
    # extraction goes on from
    _support: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.domains)


def ac3(searchlines: Sequence[Sequence[RowAssignment]]) -> FeasibleRegion:
    """Prune row domains to pairwise-supported assignments.

    Textbook AC-3: FIFO queue over directed arcs, re-enqueueing neighbor
    arcs whenever a domain is revised. Each row keeps its live domain
    positions, in order, and the same positions as a bitset. Revising arc
    (i, j) keeps each live position of row i that nests with some live
    position of row j, found from whichever side has fewer live positions:
    each live position of row i ANDs its support in row j with row j's
    live bitset, or each live position of row j ORs up its support among
    row i's live positions. A revision that leaves at most half of row i's
    indexed positions re-bases row i on its survivors, so its index and
    bitsets shrink with it. Domain order is preserved, so the pruned
    domains and later extraction are deterministic. Feasible is False as
    soon as any domain empties; a pass here is necessary but not
    sufficient for a global solution.
    """
    domains = [tuple(d) for d in searchlines]
    if any(not d for d in domains):
        return FeasibleRegion(tuple(domains), False)
    m = len(domains)
    masks = [[a.masks for a in d] for d in domains]
    index = _SupportIndex(masks, domains[0][0].columns)
    kept = [list(range(len(d))) for d in domains]
    live = [(1 << len(d)) - 1 for d in domains]

    queue = deque((i, j) for i in range(m) for j in range(m) if i != j)
    while queue:
        i, j = queue.popleft()
        if len(kept[j]) < len(kept[i]):
            nesting, mine, supported = index.nesting(i), live[i], 0
            for r in kept[j]:
                supported |= reduce(and_, map(getitem, nesting, masks[j][r]), mine)
            still = _positions(supported)
        else:
            theirs, row, nesting = live[j], masks[i], index.nesting(j)
            still = [p for p in kept[i] if reduce(and_, map(getitem, nesting, row[p]), theirs)]
        if len(still) != len(kept[i]):
            kept[i] = still
            if not still:
                break
            if 2 * len(still) <= len(domains[i]):
                domains[i] = tuple(domains[i][p] for p in still)
                masks[i] = [masks[i][p] for p in still]
                index.forget(i)
                kept[i] = list(range(len(still)))
                live[i] = (1 << len(still)) - 1
            else:
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
    if region.feasible and region._support is None:  # a region ac3 did not build
        region = ac3(region.domains)
    if not region.feasible:
        return None
    domains, index, live = region._support
    m = len(domains)
    nestings = [index.nesting(j) if j else None for j in range(m)]  # row 0 is never a later row
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
                bits = reduce(and_, map(getitem, nestings[j], a.masks), bits)
                if not bits:
                    break
                later.append(bits)
            else:
                chosen.append(a)
                if dfs(row + 1, later):
                    return True
                chosen.pop()
        return False

    try:
        found = dfs(0, live)
    finally:
        del dfs  # it refers to itself: break the cycle so the index is freed at once
    return GlobalAssignment(tuple(chosen)) if found else None


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

    Each distinct entry value is decomposed once, and its tuple table is
    shared by every column and row that holds the value. Branch
    permutations are symmetric, so the first row is enumerated in
    canonical form only, with its branch vectors sorted; every solution
    class keeps a representative and the k! duplicates disappear.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    levels = _current_levels(cr.multiples)
    tables: dict[int, _TupleTable] = {}  # one per distinct entry value
    for row in dm.entries:
        for value in row:
            if value not in tables:
                tables[value] = _TupleTable(decompose_dm(k, value, cr, budget), levels)
                if not tables[value].tuples:
                    return ProbeOutcome(k, "no_decomposition")

    searchlines: list[tuple[RowAssignment, ...]] = []
    for s, row in enumerate(dm.entries):
        row_tables = [tables[value] for value in row]
        assignments = backtrack_row(
            [t.tuples for t in row_tables], budget, canonical=s == 0, tables=row_tables
        )
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
