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
space. A varied array evaluates the device model for every device, in
buffers it keeps across redraws, so one array can be redrawn and sensed
run after run without allocating; it must not be searched from two
threads at once.

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


def query_blocks(queries) -> list[np.ndarray]:
    """The queries as consecutive batches of at most QUERY_BLOCK."""
    queries = np.asarray(queries, dtype=np.int64)
    return [queries[i:i + QUERY_BLOCK] for i in range(0, len(queries), QUERY_BLOCK)]


def entry_sums(table, stored: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """sums[q, r] = sum over d of table[queries[q, d], stored[r, d]], as float64.

    One GEMM per stored symbol against that symbol's 0/1 mask of the stored
    array; the boolean and float64 masks are two buffers reused across
    symbols. An integer table gives integer sums, exact below 2**53, so
    equal distances compare equal and ties go to the lowest index.
    """
    table = np.asarray(table, dtype=np.float64)
    sums = np.zeros((len(queries), len(stored)))
    hit = np.empty(stored.shape, dtype=bool)
    mask = np.empty(stored.shape)
    for t in range(table.shape[1]):
        np.equal(stored, t, out=hit)
        if hit.any():
            np.copyto(mask, hit)
            sums += np.take(table[:, t], queries) @ mask.T
    return sums


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
        isat: float = DEFAULT_ISAT,
    ):
        self.encoding = encoding
        self.ladder = ladder
        self.isat = float(isat)

        stored_arr = np.asarray(stored, dtype=np.int64)
        if stored_arr.ndim != 2 or stored_arr.shape[0] < 1 or stored_arr.shape[1] < 1:
            raise ValueError("stored must be a nonempty rows x dims matrix")
        if stored_arr.min() < 0 or stored_arr.max() >= encoding.n:
            raise ValueError("stored symbols must lie in [0, n)")
        self._stored = stored_arr

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
        integer multiples of the unit current (a branch capped by isat) is
        rejected: sensing in unit space would misreport it.
        """
        unit = self.unit_current
        cells = conduct(
            self._vgs_by_symbol[:, None], self._vds_by_symbol[:, None],
            self._vth_by_symbol[None], self.ladder.resistance, self.isat,
        ).sum(axis=2)
        units = np.rint(cells / unit)
        if not np.allclose(cells, units * unit, rtol=1e-9, atol=0):
            raise ValueError(
                "ladder saturates: nominal cell currents are not integer multiples "
                f"of the unit current {unit:.6g} A (a branch reaches isat={self.isat:.6g} A)"
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
        q = np.asarray(query, dtype=np.int64)
        if q.ndim not in (1, 2) or q.shape[-1] != self.dims:
            raise ValueError(f"query must have {self.dims} symbols")
        if q.size and (q.min() < 0 or q.max() >= self.encoding.m):
            raise ValueError("query symbols must lie in [0, m)")
        batch = q.reshape(-1, self.dims)
        if self._units is not None:
            currents = entry_sums(self._units, self._stored, batch) * self.unit_current
        else:
            currents = np.empty((len(batch), self.rows))
            for i, symbols in enumerate(batch):
                vgs, vds = self._vgs_by_symbol[symbols], self._vds_by_symbol[symbols]
                cells = conduct(vgs, vds, self._vth, self._res, self.isat,
                                out=self._sense_buffers)
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
        if not 1 <= kq <= self.rows:
            raise ValueError(f"kq must be in [1, {self.rows}]")
        return np.argsort(self.search(query).row_currents, axis=-1, kind="stable")[..., :kq].tolist()


@dataclass(frozen=True)
class MonteCarloResult:
    """Winner-vs-expected outcomes over independently perturbed runs."""

    accuracy: float
    winners: tuple[tuple[int, ...], ...]  # [run][query]
    expected: tuple[int, ...]
    seed: int

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
    isat: float = DEFAULT_ISAT,
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
    queries = np.asarray(queries, dtype=np.int64)
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
        cb = Crossbar(encoding, stored, ladder, variation=None, isat=isat)
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
    return MonteCarloResult(hits / total, winners, expected, params.seed)
