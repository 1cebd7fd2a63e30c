"""Behavioral crossbar of multi-branch cells with minimum-current sensing.

Rows store symbol vectors as programmed threshold voltages; a search drives
per-column gate voltages and drain multiples taken from the query symbols'
encoding. Row currents are the sum of all branch currents in the row, and
the sensing stage picks the row with the smallest current: the nearest
stored vector under the compiled distance function. Ordering the rows by
current yields k-nearest-neighbor order.

At zero variation every cell current is an integer multiple of the unit
current, so a nominal array keeps one table of unit multiples per
(search, stored) symbol pair and senses a batch of queries exactly in unit
space (`entry_sums`). Of the stored array and the query batch, the one
with more cells gets 0/1 masks, one per symbol but its first, and the
other is gathered from the table: one base-row sum plus n - 1 GEMMs for
n symbols on the mask side, the mask on the left of each GEMM (on knn's
1000 x 784 array against 20 queries, (1000 x 784) @ (784 x 20) takes
about 0.35 ms against 0.65 ms the other way round, 2 cores). Stored
symbols are kept in the narrowest unsigned dtype and integer queries keep
theirs, so no symbol array is widened on its way to the masks.

A varied array evaluates the device model for every device, in buffers it
keeps across redraws, so one array can be redrawn and sensed run after
run without allocating; it must not be searched from two threads at once.

Source-line clamping is modeled as ideal, so drain voltages depend on the
query alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .device import DEFAULT_ISAT, VariationParams, conduct, sample_variation
from .encoder import DEFAULT_LADDER, VoltageEncoding, VoltageLadder


QUERY_BLOCK = 64  # queries per batched call in the pipelines; bounds queries x rows buffers


def _integer_array(values) -> np.ndarray:
    """values as an array in their own integer dtype (int64 if empty); any other dtype raises."""
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array
    if array.size == 0:
        return array.astype(np.int64)
    raise ValueError(f"symbols must be integers, got dtype {array.dtype}")


def checked_symbols(values, levels: int, error: str) -> np.ndarray:
    """values as an integer array (see _integer_array) whose entries lie in [0, levels).

    Raises ValueError(error) otherwise. The range is checked on the array as
    given, before anything narrows it.
    """
    symbols = _integer_array(values)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= levels):
        raise ValueError(error)
    return symbols


def narrow_symbols(symbols: np.ndarray, levels: int) -> np.ndarray:
    """Symbols in [0, levels) in the narrowest unsigned dtype that holds levels - 1."""
    return symbols.astype(np.min_scalar_type(levels - 1), copy=False)


def query_blocks(queries) -> list[np.ndarray]:
    """The queries as consecutive batches of at most QUERY_BLOCK, in an integer dtype."""
    queries = _integer_array(queries)
    return [queries[i:i + QUERY_BLOCK] for i in range(0, len(queries), QUERY_BLOCK)]


def _masked_sums(table: np.ndarray, masked: np.ndarray, other: np.ndarray) -> np.ndarray:
    """sums[a, b] = sum over d of table[masked[a, d], other[b, d]], in float32 or float64.

    Row 0 of the table is folded into one base-row sum, every other row is
    stored as its difference from row 0, and each masked symbol s >= 1 adds
    (masked == s) @ gathered[s].T, the 0/1 mask on the left. Every running
    total is then a sum of table entries and every GEMM partial sum one of
    differences, so an integral table whose bound dims x max(|T|, |T - T[0]|)
    is at most 2**24 keeps them all integers that float32 holds exactly;
    any other table runs in float64.
    """
    folded = table - table[0]
    bound = masked.shape[1] * max(np.abs(table).max(initial=0.0), np.abs(folded).max(initial=0.0))
    exact32 = bound <= 2**24 and np.array_equal(table, np.rint(table))
    dtype = np.float32 if exact32 else np.float64
    folded[0] = table[0]
    gathered = np.take(folded.astype(dtype), other, axis=1)  # (symbols, len(other), dims)
    masked = narrow_symbols(masked, len(table))
    sums = np.empty((len(masked), len(other)), dtype=dtype)
    sums[:] = gathered[0].sum(axis=1)
    mask = np.empty(masked.shape, dtype=dtype)
    for s in range(1, len(table)):
        np.equal(masked, s, out=mask)
        sums += mask @ gathered[s].T
    return sums


def entry_sums(table, stored: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """sums[q, r] = sum over d of table[queries[q, d], stored[r, d]], as float64.

    The operand with more cells gets the 0/1 masks: the stored array when it
    is the larger (its (rows, Q) product is transposed), the query batch
    otherwise. Stored symbols must lie in [0, n) and query symbols in [0, m).
    Either way equal distances compare equal and ties go to the lowest index.
    """
    table = np.asarray(table, dtype=np.float64)
    if stored.size >= queries.size:
        return np.ascontiguousarray(_masked_sums(table.T, stored, queries).T, dtype=np.float64)
    return _masked_sums(table, queries, stored).astype(np.float64, copy=False)


def smallest_k(values: np.ndarray, kq: int) -> np.ndarray:
    """Indices of the kq smallest values along the last axis, in ascending order.

    Ties go to the lowest index, so this equals
    ``np.argsort(values, axis=-1, kind="stable")[..., :kq]``: a partition finds
    the kq-th smallest value, every value below it is kept, the lowest-index
    values equal to it fill the rest, and only the kq kept are sorted.
    """
    values = np.asarray(values)
    rows = values.shape[-1]
    if not 1 <= kq <= rows:  # np.partition would wrap a kth of -1 around
        raise ValueError(f"kq must be in [1, {rows}]")
    flat = values.reshape(-1, rows)
    cut = np.partition(flat, kq - 1, axis=-1)[:, kq - 1:kq]
    below = flat < cut
    at_cut = flat == cut
    room = kq - np.count_nonzero(below, axis=-1, keepdims=True)
    keep = below | (at_cut & (np.cumsum(at_cut, axis=-1) <= room))
    kept = np.nonzero(keep)[1].reshape(-1, kq)  # ascending indices per query
    order = np.argsort(np.take_along_axis(flat, kept, axis=-1), axis=-1, kind="stable")
    return np.take_along_axis(kept, order, axis=-1).reshape(values.shape[:-1] + (kq,))


def _nominal(variation: Optional[VariationParams]) -> bool:
    return variation is None or (variation.sigma_vth == 0 and variation.sigma_r_rel == 0)


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

        stored_arr = checked_symbols(stored, encoding.n, "stored symbols must lie in [0, n)")
        if stored_arr.ndim != 2 or stored_arr.shape[0] < 1 or stored_arr.shape[1] < 1:
            raise ValueError("stored must be a nonempty rows x dims matrix")
        self._stored = narrow_symbols(stored_arr, encoding.n)

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

        self._units = None  # (m, n) cell currents in unit multiples, while nominal
        self._vth = self._res = None  # per-device draws, while varied
        # Made on the first varied draw, then kept, each (rows, dims, k): the
        # nominal thresholds, the (vth, res) draw and the (current, on) sensing buffers.
        self._vth0 = self._draw_buffers = self._sense_buffers = None
        if _nominal(variation):
            self._program_nominal()
            return
        # One draw per row, in row order: a seed keeps reproducing its stream.
        self._draw(variation, np.random.default_rng(variation.seed), range(self.rows))

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

    def _program_nominal(self) -> None:
        """Tabulate every symbol pair's nominal cell current in unit multiples.

        The device model runs once per (search, stored) symbol pair instead
        of once per device. A ladder whose nominal cell currents are not
        integer multiples of the unit current (a branch capped at
        DEFAULT_ISAT) is rejected: sensing in unit space would misreport it.
        """
        unit = self.unit_current
        cells = conduct(
            self._vgs_by_symbol[:, None], self._vds_by_symbol[:, None],
            self._vth_by_symbol[None], self.ladder.resistance,
        ).sum(axis=2)
        units = np.rint(cells / unit)
        if not np.allclose(cells, units * unit, rtol=1e-9, atol=0):
            raise ValueError(
                "ladder saturates: nominal cell currents are not integer multiples "
                f"of the unit current {unit:.6g} A (a branch reaches isat={DEFAULT_ISAT:.6g} A)"
            )
        self._units = units

    def _draw(self, params: VariationParams, rng: np.random.Generator, parts) -> None:
        """Draw every device from rng into the kept buffers, one part of the array after another."""
        if self._vth0 is None:
            self._vth0 = self._vth_by_symbol[self._stored]
            shape = self._vth0.shape
            self._draw_buffers = np.empty(shape), np.empty(shape)
            self._sense_buffers = np.empty(shape), np.empty(shape, dtype=bool)
        vth, res = self._draw_buffers
        for part in parts:
            sample_variation(self._vth0[part], self.ladder.resistance, params, rng,
                             out=(vth[part], res[part]))
        self._units = None
        # A zero sigma draws nothing: the nominal thresholds, or the scalar resistance.
        self._vth = vth if params.sigma_vth > 0 else self._vth0
        self._res = res if params.sigma_r_rel > 0 else self.ladder.resistance

    def resample_variation(self, rng: np.random.Generator, params: VariationParams) -> None:
        """Redraw every device perturbation from the given stream, in place.

        Zero sigmas draw nothing and leave the array nominal.
        """
        if not _nominal(params):
            self._draw(params, rng, [...])
        elif self._units is None:
            self._vth = self._res = None
            self._program_nominal()

    # -- search ------------------------------------------------------------

    def row_currents(self, query) -> np.ndarray:
        """Per-row currents in amperes: (rows,) for one query, (Q, rows) for a (Q, dims) batch.

        A nominal array sums its unit table exactly and scales once by the
        unit current; a varied array evaluates every device per query.
        """
        q = checked_symbols(query, self.encoding.m, "query symbols must lie in [0, m)")
        if q.ndim not in (1, 2) or q.shape[-1] != self.dims:
            raise ValueError(f"query must have {self.dims} symbols")
        batch = q.reshape(-1, self.dims)
        if self._units is not None:
            currents = entry_sums(self._units, self._stored, batch) * self.unit_current
        else:
            currents = np.empty((len(batch), self.rows))
            for i, symbols in enumerate(batch):
                vgs, vds = self._vgs_by_symbol[symbols], self._vds_by_symbol[symbols]
                cells = conduct(vgs, vds, self._vth, self._res, out=self._sense_buffers)
                currents[i] = cells.sum(axis=(1, 2))
        return currents if q.ndim == 2 else currents[0]

    def search(self, query) -> QueryResult:
        """Winner = row with minimum current; ties go to the lowest index."""
        currents = self.row_currents(query)
        return QueryResult(currents, np.argmin(currents, axis=-1).tolist())

    def knn(self, query, kq: int):
        """The kq rows of lowest current in ascending order; ties go to the lowest index.

        One list of rows for one query, a list of them for a batch.
        """
        return smallest_k(self.search(query).row_currents, kq).tolist()


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
    queries = checked_symbols(queries, encoding.m, "query symbols must lie in [0, m)")
    if queries.ndim != 2 or len(queries) == 0:
        raise ValueError("queries must be a non-empty queries x dims matrix")
    expected = tuple(int(e) for e in expected_winners)
    if len(expected) != len(queries):
        raise ValueError("one expected winner per query is required")
    if not all(0 <= e < len(stored) for e in expected):
        raise ValueError(f"expected winners must lie in [0, {len(stored)})")
    blocks = query_blocks(queries)
    children = np.random.SeedSequence(params.seed).spawn(runs)

    def run_chunk(chunk: range) -> list[tuple[int, ...]]:
        cb = Crossbar(encoding, stored, ladder)
        winners = []
        for idx in chunk:
            cb.resample_variation(np.random.default_rng(children[idx]), params)
            winners.append(tuple(w for block in blocks for w in cb.search(block).winner))
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
