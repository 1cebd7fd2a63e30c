"""Behavioral crossbar of multi-branch cells with minimum-current sensing.

Rows store symbol vectors as programmed threshold voltages; a search drives
per-column gate voltages and drain multiples taken from the query symbols'
encoding. Row currents are the sum of all branch currents in the row, and
the sensing stage picks the row with the smallest current: the nearest
stored vector under the compiled distance function. Ordering the rows by
current yields k-nearest-neighbor order.

Every array builds one table of unit multiples per (search, stored) symbol
pair from the encoding's ranks and checks once that its ladder realizes
it; a nominal array senses a batch of queries exactly in unit space
(`entry_sums`). Of the stored array and the query batch, the one
with more cells gets 0/1 masks, one per symbol but its first, and the
other is gathered from the table: one base-row sum plus n - 1 GEMMs for
n symbols on the mask side, the mask on the left of each GEMM (on knn's
1000 x 784 array against 20 queries, (1000 x 784) @ (784 x 20) takes
about 0.35 ms against 0.65 ms the other way round, 2 cores). The array, the
`apps` twins, `monte_carlo` and the CLI check inputs with `checked_stored`
and `checked_queries`, which narrow symbols once to the smallest unsigned
dtype. `entry_sums` senses QUERY_BLOCK queries at a time and gathers a
stored array on the gathered side once per call; knn and the twins call it
per ranking window, so HDC's class rows are gathered once per 64 queries.

A varied array is that array plus its device record: each device's gate
rank (`device.gate_ranks`, uint8 up to 255 gate levels) and, while sigma_R
is above zero, its float64 resistance, so a device costs 9 bytes, or 1 byte
at sigma_R = 0, where the resistance stays a scalar. The buffers are kept
across redraws; a zero-sigma redraw drops them, as a draw that raises
does. The constructor is the nominal array plus one redraw from
default_rng(variation.seed). `device.sample_variation` draws the record:
every device at its nominal rank, then by thinning only the devices that
leave it, then every resistance. Its one exact sum (`_exact_sums`)
compares each query's gate ranks with the record through `conduct`,
DEVICE_BLOCK devices' worth of rows at a time (a row wider than that is a
block of its own), in block-sized buffers local to each call; it takes its
queries as many at a time as a block has rows and evaluates each block for
all of them in turn. So two threads may search one varied array at once; a
redraw must not overlap a search.

`row_currents` on a varied array sums every row exactly; `knn` ranks. A
float32 pass bounds each row's current in unit multiples, a row block at a
time in buffers local to the call: g = fl32(R0 / R) once per block, then
per query one GEMV of (gate > rank) * g against the query's drain
multiples. Its n = dims x k terms are all >= 0, so the exact current lies
within delta = 2 (n + 2) 2**-24 of the sum, relatively (Higham 2002,
section 3.1); at sigma_R = 0 the sum is an exact integer and only rows tied
in distance stay together. A row whose lower bound is at or below the
kq-th smallest upper bound is a candidate; every row is a candidate where
the bound does not hold (the saturation clamp is reachable, max vds / min
R >= DEFAULT_ISAT; n x 2**-24 > 0.1; a drain multiple above 2**24). Only the
candidates are summed exactly, so knn returns smallest_k over row_currents.
Every pipeline ranks through knn (`monte_carlo`, both `apps` classifiers).
knn and `apps.software_knn_order` own the ranking window (`by_query_block`):
QUERY_BLOCK queries at a time, so at most QUERY_BLOCK x dims x k gathered gate
ranks and drain multiples and QUERY_BLOCK x rows bounds exist at once.

Source-line clamping is modeled as ideal, so drain voltages depend on the
query alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .device import (
    DEFAULT_ISAT,
    DEVICE_BLOCK,
    VariationParams,
    conduct,
    gate_ranks,
    sample_variation,
)
from .encoder import DEFAULT_LADDER, VoltageEncoding, VoltageLadder


QUERY_BLOCK = 64  # queries per block of entry_sums and of every knn ranking


def checked_symbols(values, levels: int, error: str) -> np.ndarray:
    """values as symbols in [0, levels), in the narrowest unsigned dtype that holds levels - 1.

    values must be integers (an empty array may have any dtype); an entry
    outside [0, levels) raises ValueError(error). The range is checked on
    the array as given, before it is narrowed.
    """
    symbols = np.asarray(values)
    if symbols.size and symbols.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers, got dtype {symbols.dtype}")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= levels):
        raise ValueError(error)
    return symbols.astype(np.min_scalar_type(levels - 1), copy=False)


def checked_stored(stored, n: int) -> np.ndarray:
    """stored as checked symbols in [0, n), in a nonempty rows x dims matrix."""
    symbols = checked_symbols(stored, n, "stored symbols must lie in [0, n)")
    if symbols.ndim != 2 or symbols.shape[0] < 1 or symbols.shape[1] < 1:
        raise ValueError("stored must be a nonempty rows x dims matrix")
    return symbols


def checked_queries(query, m: int, dims: int) -> np.ndarray:
    """query as checked symbols in [0, m): one (dims,) query or a (Q, dims) batch."""
    q = checked_symbols(query, m, "query symbols must lie in [0, m)")
    if q.ndim not in (1, 2) or q.shape[-1] != dims:
        raise ValueError(f"query must have {dims} symbols")
    return q


def _gathered(table: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The folded table gathered at other's symbols: (symbols, len(other), dims), float32 or float64.

    Row 0 of the table stays as it is and every other row becomes its
    difference from row 0. _masked_sums then keeps every running total a
    sum of table entries and every GEMM partial sum one of differences, so
    an integral table whose bound dims x max(|T|, |T - T[0]|) is at most
    2**24 keeps them all integers that float32 holds exactly; any other
    table is gathered in float64.
    """
    folded = table - table[0]
    bound = other.shape[1] * max(np.abs(table).max(initial=0.0), np.abs(folded).max(initial=0.0))
    exact32 = bound <= 2**24 and np.array_equal(table, np.rint(table))
    folded[0] = table[0]
    return np.take(folded.astype(np.float32 if exact32 else np.float64), other, axis=1)


def _masked_sums(gathered: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """sums[a, b] = sum over d of table[masked[a, d], other[b, d]], from other's _gathered table.

    Row 0 is folded into one base-row sum, and each masked symbol s >= 1
    adds (masked == s) @ gathered[s].T, the 0/1 mask on the left.
    """
    sums = np.empty((len(masked), gathered.shape[1]), dtype=gathered.dtype)
    sums[:] = gathered[0].sum(axis=1)
    mask = np.empty(masked.shape, dtype=gathered.dtype)
    for s in range(1, len(gathered)):
        np.equal(masked, s, out=mask)
        sums += mask @ gathered[s].T
    return sums


def entry_sums(table, stored: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """sums[q, r] = sum over d of table[queries[q, d], stored[r, d]], as float64.

    The queries are summed QUERY_BLOCK at a time into one (Q, rows) result.
    In each block the operand with more cells gets the 0/1 masks: the
    stored array when it is the larger (its (rows, block) product is
    transposed), the query block otherwise. The stored array is gathered
    once per call, however many blocks mask the queries. Stored symbols
    must lie in [0, n) and query symbols in [0, m). Either way equal
    distances compare equal and ties go to the lowest index.
    """
    table = np.asarray(table, dtype=np.float64)
    sums = np.empty((len(queries), len(stored)))
    gathered_stored = None
    for start in range(0, len(queries), QUERY_BLOCK):
        span = slice(start, start + QUERY_BLOCK)
        block = queries[span]
        if stored.size >= block.size:
            sums[span] = _masked_sums(_gathered(table.T, block), stored).T
        else:
            if gathered_stored is None:
                gathered_stored = _gathered(table, stored)
            sums[span] = _masked_sums(gathered_stored, block)
    return sums


def smallest_k(values: np.ndarray, kq: int) -> np.ndarray:
    """Indices of the kq smallest values along the last axis, in ascending order.

    Ties go to the lowest index, so this equals
    ``np.argsort(values, axis=-1, kind="stable")[..., :kq]``: kq = 1 is one
    argmin; otherwise a partition finds the kq-th smallest value, every value
    below it is kept, the lowest-index values equal to it fill the rest, and
    only the kq kept are sorted.
    """
    values = np.asarray(values)
    rows = values.shape[-1]
    if not 1 <= kq <= rows:  # np.partition would wrap a kth of -1 around
        raise ValueError(f"kq must be in [1, {rows}]")
    if kq == 1:  # argmin returns the first minimum, the lowest index
        return np.argmin(values, axis=-1)[..., None]
    flat = values.reshape(-1, rows)
    cut = np.partition(flat, kq - 1, axis=-1)[:, kq - 1:kq]
    below = flat < cut
    at_cut = flat == cut
    room = kq - np.count_nonzero(below, axis=-1, keepdims=True)
    keep = below | (at_cut & (np.cumsum(at_cut, axis=-1) <= room))
    kept = np.nonzero(keep)[1].reshape(-1, kq)  # ascending indices per query
    order = np.argsort(np.take_along_axis(flat, kept, axis=-1), axis=-1, kind="stable")
    return np.take_along_axis(kept, order, axis=-1).reshape(values.shape[:-1] + (kq,))


def by_query_block(order, queries: np.ndarray) -> list:
    """Each query's rows as a list: order maps each block of QUERY_BLOCK queries to (B, kq) rows."""
    batch = queries.reshape(-1, queries.shape[-1])
    blocks = range(0, max(len(batch), 1), QUERY_BLOCK)  # an empty batch still checks kq
    found = np.concatenate([order(batch[start:start + QUERY_BLOCK]) for start in blocks])
    return (found if queries.ndim == 2 else found[0]).tolist()


@dataclass(frozen=True, eq=False)
class QueryResult:
    """The row currents of one search call plus its winning (minimum-current) rows.

    row_currents is float64 in amperes, (rows,) for one query and (Q, rows)
    for a batch; winner is one row index or a list of them.
    """

    row_currents: np.ndarray
    winner: int | list[int]


class Crossbar:
    """rows x dims array of k-branch cells programmed from an encoding."""

    def __init__(
        self,
        encoding: VoltageEncoding,
        stored: Sequence[Sequence[int]],
        ladder: VoltageLadder = DEFAULT_LADDER,
        variation: Optional[VariationParams] = None,
    ):
        self.encoding = encoding
        self.ladder = ladder

        self._stored = checked_stored(stored, encoding.n)

        try:
            # Per-symbol lookup tables in volts.
            self._vth_by_symbol = np.array(
                [[ladder.vth_volts(r) for r in entry] for entry in encoding.vth_ranks]
            )
            self._vgs_by_symbol = np.array(
                [[ladder.vgs_volts(r) for r in entry] for entry in encoding.vgs_ranks]
            )
            self._vds_by_symbol = np.array(
                [[ladder.vds_volts(v) for v in entry] for entry in encoding.vds_multiples]
            )
            self._multiples = np.array(encoding.vds_multiples, dtype=np.float64)
            self._units = self._unit_table()  # (m, n) nominal cell currents in unit multiples
        except OverflowError:  # an integer rank or multiple beyond float64's range
            raise ValueError("ladder saturates or overflows: a rank or drain multiple of the "
                             "encoding is too large for a float64 level") from None
        # The sorted gate levels, and each query symbol's gate ranks against them.
        self._gate_levels = np.unique(self._vgs_by_symbol)
        self._gate_by_symbol = gate_ranks(self._vgs_by_symbol, self._gate_levels)
        # The device record: _rank is (rows, dims, k), None exactly while nominal; _res is the
        # (rows, dims, k) resistances while sigma_R > 0, else the scalar resistance or None.
        self._rank = self._res = None
        if variation is not None:  # a seed draws the devices a redraw from its stream draws
            self.resample_variation(np.random.default_rng(variation.seed), variation)

    # -- geometry ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._stored.shape[0]

    @property
    def dims(self) -> int:
        return self._stored.shape[1]

    @property
    def k(self) -> int:
        return self.encoding.k

    @property
    def unit_current(self) -> float:
        return self.ladder.unit_current

    # -- variation ---------------------------------------------------------

    def _unit_table(self) -> np.ndarray:
        """Every symbol pair's cell current in unit multiples, built with cell_multiple.

        VoltageEncoding.cell_multiple is the rule verify_encoding checks. The
        device model runs once per (search, stored) symbol pair, only to check
        that the ladder realizes the table; one that does not (a branch at
        DEFAULT_ISAT, float64 levels that overflow or round together) raises ValueError.
        """
        enc = self.encoding
        units = np.array([[enc.cell_multiple(s, t) for t in range(enc.n)] for s in range(enc.m)],
                         dtype=np.float64)
        unit = self.unit_current
        cells = conduct(
            self._vgs_by_symbol[:, None], self._vds_by_symbol[:, None],
            self._vth_by_symbol[None], self.ladder.resistance,
        ).sum(axis=2)
        if not np.allclose(cells, units * unit, rtol=1e-9, atol=0):
            raise ValueError(
                "ladder saturates or overflows: nominal cell currents are not the encoding's "
                f"multiples of the unit current {unit:.6g} A (a branch reaches isat="
                f"{DEFAULT_ISAT:.6g} A, or float64 levels overflow or round together)"
            )
        return units

    def resample_variation(self, rng: np.random.Generator, params: VariationParams) -> None:
        """Redraw every device's record from the given stream, in place.

        The rank buffer, and the resistance buffer while sigma_R stays above
        zero, are reused from the last redraw. Both sigmas at zero drop the
        record, as a draw that raises does: either leaves the array nominal.
        """
        rank, res = self._rank, self._res
        self._rank = self._res = None  # nominal until the draw below completes
        if params.sigma_vth == 0 and params.sigma_r_rel == 0:
            return
        self._rank, self._res = sample_variation(
            self._stored, self._vth_by_symbol, self._gate_levels, self.ladder.resistance, params,
            rng, out=(rank, res if isinstance(res, np.ndarray) else None),
        )

    # -- search ------------------------------------------------------------

    def row_currents(self, query) -> np.ndarray:
        """Per-row currents in amperes: (rows,) for one query, (Q, rows) for a (Q, dims) batch.

        A nominal array sums its unit table exactly and scales once by the
        unit current; a varied array sums every device (`_exact_sums`).
        """
        q = checked_queries(query, self.encoding.m, self.dims)
        batch = q.reshape(-1, self.dims)
        if self._rank is None:
            currents = entry_sums(self._units, self._stored, batch) * self.unit_current
        else:
            currents = self._exact_sums(batch)
        return currents if q.ndim == 2 else currents[0]

    def search(self, query) -> QueryResult:
        """Winner = row with minimum current; ties go to the lowest index."""
        currents = self.row_currents(query)
        return QueryResult(currents, np.argmin(currents, axis=-1).tolist())

    def knn(self, query, kq: int):
        """The kq rows of lowest current in ascending order; ties go to the lowest index.

        One list of rows for one query, a list of them for a batch: smallest_k
        over row_currents, QUERY_BLOCK queries at a time, by one search per block
        on a nominal array and by `_bounded_knn` on a varied one.
        """
        q = checked_queries(query, self.encoding.m, self.dims)
        if self._rank is None:
            return by_query_block(lambda block: smallest_k(self.search(block).row_currents, kq), q)
        return by_query_block(lambda block: self._bounded_knn(block, kq), q)

    @property
    def _block_rows(self) -> int:
        """Rows per row block: DEVICE_BLOCK devices' worth, or one row wider than that."""
        return max(1, DEVICE_BLOCK // (self.dims * self.k))

    def _exact_sums(self, batch: np.ndarray, rows=slice(None)) -> np.ndarray:
        """A varied array's exact currents: one row per query of batch, one column per row summed.

        rows is slice(None), every row, or ascending row indices. The queries
        are taken as many at a time as a block has rows, and each row block
        is evaluated through `conduct` for each query of the chunk in turn,
        so its record is read once per chunk; the buffers belong to the
        call. A row's sum is the same whichever rows are summed with it.
        """
        every = isinstance(rows, slice)
        count = self.rows if every else len(rows)
        step = self._block_rows
        sums = np.empty((len(batch), count))
        shape = (min(step, count), self.dims, self.k)
        current, on = np.empty(shape), np.empty(shape, dtype=bool)
        for start in range(0, len(batch), step):
            chunk = batch[start:start + step]
            gate = np.take(self._gate_by_symbol, chunk, axis=0)  # take gathers faster than [chunk]
            vds = np.take(self._vds_by_symbol, chunk, axis=0)
            for first in range(0, count, step):
                block = slice(first, first + step)
                part = block if every else rows[block]
                rank = self._rank[part]
                res = self._res[part] if isinstance(self._res, np.ndarray) else self._res
                out = current[:len(rank)], on[:len(rank)]
                for i in range(len(chunk)):
                    sums[start + i, block] = conduct(gate[i], vds[i], rank, res, out).sum((1, 2))
        return sums

    def _bounded_knn(self, batch: np.ndarray, kq: int) -> np.ndarray:
        """smallest_k(row_currents(batch), kq) of a varied array, ranked by the float32 bound.

        The module docstring describes the bound and its candidates. Its
        delta is 2 (n + 2) 2**-53 instead when the float32 sums are exact
        integers (sigma_R = 0 and n times the largest multiple at most
        2**24): float64's error alone. A slack covers subnormal results,
        whose error is absolute. Each query's candidates are summed by
        _exact_sums and ranked in ascending index order, so ties still go to
        the lowest index.
        """
        n = self.dims * self.k
        top = float(self._multiples.max())
        if n * 2.0**-24 > 0.1 or top > 2**24:
            return smallest_k(self._exact_sums(batch), kq)
        drawn = isinstance(self._res, np.ndarray)  # a resistance per device
        gate = np.take(self._gate_by_symbol, batch, axis=0).reshape(len(batch), n)
        drain = np.take(self._multiples, batch, axis=0).reshape(len(batch), n).astype(np.float32)
        approx = np.empty((len(batch), self.rows), dtype=np.float32)
        step = self._block_rows
        g, masked = np.empty((2, min(step, self.rows), n), dtype=np.float32)
        floor = np.inf if drawn else self._res  # the least resistance
        for first in range(0, self.rows, step):
            block = slice(first, first + step)
            rank = self._rank[block].reshape(-1, n)
            size = len(rank)
            if drawn:
                res = self._res[block].reshape(size, n)
                np.divide(self.ladder.resistance, res, out=g[:size])
                floor = min(floor, float(res.min()))
            for i in range(len(batch)):
                on = np.greater(gate[i], rank, out=masked[:size])
                if drawn:
                    on *= g[:size]
                np.matmul(on, drain[i], out=approx[i, block])
        if float(self._vds_by_symbol.max()) >= DEFAULT_ISAT * floor:  # the clamp is reachable
            return smallest_k(self._exact_sums(batch), kq)

        exact32 = not drawn and n * top <= 2**24
        delta = 2 * (n + 2) * 2.0 ** (-53 if exact32 else -24)
        # A subnormal result errs absolutely: a float32 one by 2**-150 per g and per
        # product, a float64 one by 2**-1075 per drain and per current (over the unit
        # current, in unit multiples). The slack is twice their sum over n terms.
        slack = n * ((top + 1) * 2.0**-149 + 2.0**-1074 * (1 / floor + 1) / self.unit_current)
        approx = approx.astype(np.float64)
        upper = approx * (1 + delta) + slack
        lower = approx * (1 - delta) - slack
        cut = np.take_along_axis(upper, smallest_k(upper, kq)[:, -1:], axis=-1)
        found = np.empty((len(batch), kq), dtype=np.intp)
        for i, candidates in enumerate(lower <= cut):
            rows = np.flatnonzero(candidates)
            found[i] = rows[smallest_k(self._exact_sums(batch[i:i + 1], rows)[0], kq)]
        return found


@dataclass(frozen=True)
class MonteCarloResult:
    """Winner-vs-expected outcomes over independently perturbed runs."""

    accuracy: float
    winners: tuple[tuple[int, ...], ...]  # [run][query]
    expected: tuple[int, ...]

    @property
    def runs(self) -> int:
        return len(self.winners)

    def to_csv(self) -> str:
        lines = ["run,query,winner,expected,correct"]
        for run, row in enumerate(self.winners):
            for qi, winner in enumerate(row):
                ok = int(winner == self.expected[qi])
                lines.append(f"{run},{qi},{winner},{self.expected[qi]},{ok}")
        return "\n".join(lines) + "\n"


def monte_carlo(
    encoding: VoltageEncoding,
    stored: Sequence[Sequence[int]],
    queries: Sequence[Sequence[int]],
    expected_winners: Sequence[int],
    params: VariationParams,
    runs: int,
    ladder: VoltageLadder = DEFAULT_LADDER,
    workers: int = 1,
) -> MonteCarloResult:
    """Accuracy of the sensed winner under freshly sampled device variation.

    Every run redraws all device perturbations from its own substream of the
    seed, so results are independent of run order and worker count. The runs
    are split into contiguous chunks, one per worker thread (at most
    min(workers, runs, cpu count) of them); each chunk programs one array and
    redraws it in place for every run.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rows, dims = checked_stored(stored, encoding.n).shape
    if np.ndim(queries) != 2 or len(queries) == 0:
        raise ValueError("queries must be a non-empty queries x dims matrix")
    queries = checked_queries(queries, encoding.m, dims)
    expected = tuple(int(e) for e in expected_winners)
    if len(expected) != len(queries):
        raise ValueError("one expected winner per query is required")
    if not all(0 <= e < rows for e in expected):
        raise ValueError(f"expected winners must lie in [0, {rows})")
    children = np.random.SeedSequence(params.seed).spawn(runs)

    def run_chunk(chunk: range) -> list[tuple[int, ...]]:
        cb = Crossbar(encoding, stored, ladder)
        winners = []
        for idx in chunk:
            cb.resample_variation(np.random.default_rng(children[idx]), params)
            winners.append(tuple(row for (row,) in cb.knn(queries, 1)))
        return winners

    workers = max(1, min(workers, runs, os.cpu_count() or 1))
    bounds = [runs * w // workers for w in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_winners = list(pool.map(run_chunk, chunks))
    else:
        chunk_winners = [run_chunk(chunks[0])]
    winners = tuple(w for chunk in chunk_winners for w in chunk)

    total = runs * len(queries)
    hits = sum(w == e for row in winners for w, e in zip(row, expected))
    return MonteCarloResult(hits / total, winners, expected)
