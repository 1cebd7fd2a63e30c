"""Behavioral crossbar of multi-branch cells with minimum-current sensing.

Rows store symbol vectors as programmed threshold voltages; a search drives
per-column gate voltages and drain multiples taken from the query symbols'
encoding. Row currents are the sum of all branch currents in the row, and
the sensing stage picks the row with the smallest current: the nearest
stored vector under the compiled distance function. Ordering the rows by
current yields k-nearest-neighbor order.

Source-line clamping is modeled as ideal, so drain voltages depend on the
query alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .device import DEFAULT_ISAT, VariationParams, conduct, sample_variation
from .encoder import DEFAULT_LADDER, VoltageEncoding, VoltageLadder


@dataclass(frozen=True)
class QueryResult:
    """Per-row currents plus the winning (minimum-current) row index."""

    row_currents: tuple[float, ...]
    winner: int


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

        self._vth = self._vth_by_symbol[stored_arr]  # (rows, dims, k)
        self._res = ladder.resistance  # a scalar until resistance variation is drawn
        if variation is not None:
            # One draw per row, in row order: a seed keeps reproducing its stream.
            rng = np.random.default_rng(variation.seed)
            drawn = [sample_variation(vth, ladder.resistance, variation, rng) for vth in self._vth]
            self._vth = np.stack([vth for vth, _ in drawn])
            if variation.sigma_r_rel > 0:
                self._res = np.stack([res for _, res in drawn])

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

    def resample_variation(self, rng: np.random.Generator, params: VariationParams) -> None:
        """Redraw every device perturbation from the given stream."""
        self._vth = self._res = None  # free the old draw before sampling the new one
        self._vth, self._res = sample_variation(
            self._vth_by_symbol[self._stored], self.ladder.resistance, params, rng
        )

    # -- search ------------------------------------------------------------

    def row_currents(self, query: Sequence[int]) -> np.ndarray:
        """Aggregate per-row currents for one query, in amperes."""
        q = np.asarray(query, dtype=np.int64)
        if q.shape != (self.dims,):
            raise ValueError(f"query must have {self.dims} symbols")
        if q.min() < 0 or q.max() >= self.encoding.m:
            raise ValueError("query symbols must lie in [0, m)")
        vgs, vds = self._vgs_by_symbol[q], self._vds_by_symbol[q]  # (dims, k) each
        return conduct(vgs, vds, self._vth, self._res, self.isat).sum(axis=(1, 2))

    def search(self, query: Sequence[int]) -> QueryResult:
        """Winner = row with minimum current; ties go to the lowest index."""
        currents = self.row_currents(query)
        return QueryResult(tuple(float(c) for c in currents), int(np.argmin(currents)))

    def knn(self, query: Sequence[int], kq: int) -> tuple[int, ...]:
        """The kq rows of lowest current in ascending order; ties go to the lowest index."""
        if not 1 <= kq <= self.rows:
            raise ValueError(f"kq must be in [1, {self.rows}]")
        currents = np.asarray(self.search(query).row_currents)
        return tuple(int(r) for r in np.argsort(currents, kind="stable")[:kq])


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
    seed, so results are independent of run order and worker count.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    queries = [list(q) for q in queries]
    expected = tuple(int(e) for e in expected_winners)
    if len(expected) != len(queries):
        raise ValueError("one expected winner per query is required")
    children = np.random.SeedSequence(params.seed).spawn(runs)

    def run_one(idx: int) -> tuple[int, ...]:
        cb = Crossbar(encoding, stored, ladder, variation=None, isat=isat)
        cb.resample_variation(np.random.default_rng(children[idx]), params)
        return tuple(cb.search(q).winner for q in queries)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            winners = tuple(pool.map(run_one, range(runs)))
    else:
        winners = tuple(run_one(idx) for idx in range(runs))

    total = runs * len(queries)
    hits = sum(w == e for row in winners for w, e in zip(row, expected))
    return MonteCarloResult(hits / total, winners, expected, params.seed)
