"""Voltage-rank encoding tables: derivation, verification, voltage ladder, I/O.

An encoding assigns each stored symbol a threshold rank per branch, and each
search symbol a gate rank plus a positive drain multiple per branch. A branch
turns on exactly when its gate rank exceeds the stored threshold rank, and
then conducts its drain multiple of the unit current; summed over the k
branches of a cell this must reproduce the compiled distance entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .metric import DistanceMatrix, as_integer, read_input
from .solver import GlobalAssignment


@dataclass(frozen=True)
class VoltageEncoding:
    """Rank table for one compiled distance matrix.

    vth_ranks[t][i]      threshold rank of branch i when symbol t is stored
    vgs_ranks[s][i]      gate rank driven on branch i by search symbol s
    vds_multiples[s][i]  drain multiple driven on branch i by search symbol s
    """

    k: int
    vth_ranks: tuple[tuple[int, ...], ...]
    vgs_ranks: tuple[tuple[int, ...], ...]
    vds_multiples: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", as_integer(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name, what in (
            ("vth_ranks", "a threshold rank"),
            ("vgs_ranks", "a gate rank"),
            ("vds_multiples", "a drain multiple"),
        ):
            table = tuple(tuple(as_integer(v, what) for v in e) for e in getattr(self, name))
            object.__setattr__(self, name, table)
            if not table:
                raise ValueError(f"{name} must not be empty")
            for entry in table:
                if len(entry) != self.k:
                    raise ValueError(f"{name} entries must have length k={self.k}")
                if any(v < 0 for v in entry):
                    raise ValueError(f"{name} must hold nonnegative integers")
        if len(self.vgs_ranks) != len(self.vds_multiples):
            raise ValueError("search tables must cover the same symbols")
        if any(v < 1 for entry in self.vds_multiples for v in entry):
            raise ValueError("drain multiples must be >= 1 (0 means off, not a level)")

    @property
    def m(self) -> int:
        return len(self.vgs_ranks)

    @property
    def n(self) -> int:
        return len(self.vth_ranks)

    def is_on(self, s: int, t: int, i: int) -> bool:
        return self.vgs_ranks[s][i] > self.vth_ranks[t][i]

    def cell_multiple(self, s: int, t: int) -> int:
        """Total current multiple of one cell: the encoded distance."""
        return sum(self.vds_multiples[s][i] for i in range(self.k) if self.is_on(s, t, i))


def derive_encoding(ga: GlobalAssignment) -> VoltageEncoding:
    """Turn a solved assignment into a rank table.

    Per branch, the per-row on-sets form an inclusion chain; stored columns
    are ranked by where they first join the chain (more on-rows means a
    lower threshold rank) and rows by the size of their on-set (more off
    columns means a lower gate rank). Columns or rows with equal counts
    share a rank, which keeps the number of distinct voltage levels minimal.
    The drain multiple of a branch in a row is its unique nonzero current
    there, or 1 when the branch never turns on in that row (the value is
    electrically irrelevant when off; the lowest level minimizes leakage).
    """
    rows = ga.rows
    m, n, k = ga.m, ga.n, ga.k
    vth = [[0] * k for _ in range(n)]
    vgs = [[0] * k for _ in range(m)]
    vds = [[1] * k for _ in range(m)]

    for i in range(k):
        masks = [r.masks[i] for r in rows]
        # The all-off set heads the chain even if no row uses it: a row's gate rank
        # is its set's index, a column's threshold rank one below the first set holding it.
        chain = sorted(set(masks) | {0}, key=int.bit_count)
        for a, b in zip(chain, chain[1:]):
            if a & ~b:
                raise RuntimeError(
                    f"branch {i}: on-sets are not an inclusion chain; "
                    "the assignment violates the threshold-ordering rule"
                )
        for t in range(n):
            vth[t][i] = next((j for j, mask in enumerate(chain) if mask >> t & 1), len(chain)) - 1
        for s in range(m):
            vgs[s][i] = chain.index(masks[s])
            if rows[s].fet_values[i]:
                vds[s][i] = rows[s].fet_values[i]

    enc = VoltageEncoding(
        k,
        tuple(tuple(r) for r in vth),
        tuple(tuple(r) for r in vgs),
        tuple(tuple(r) for r in vds),
    )
    for s in range(m):
        for t in range(n):
            for i in range(k):
                if enc.is_on(s, t, i) != (rows[s].masks[i] >> t & 1):
                    raise RuntimeError(
                        "derived ranks fail to reproduce the on/off pattern "
                        f"at search {s}, store {t}, branch {i}"
                    )
    return enc


@dataclass(frozen=True)
class Mismatch:
    search: int
    store: int
    expected: int
    actual: int


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    checked: int
    mismatches: tuple[Mismatch, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def verify_encoding(enc: VoltageEncoding, dm: DistanceMatrix) -> VerifyReport:
    """Exhaustively recompute every cell current and compare with the matrix."""
    if enc.m != dm.m or enc.n != dm.n:
        raise ValueError(
            f"encoding is {enc.m}x{enc.n} but matrix is {dm.m}x{dm.n}"
        )
    mismatches = []
    for s in range(dm.m):
        for t in range(dm.n):
            actual = enc.cell_multiple(s, t)
            if actual != dm.entries[s][t]:
                mismatches.append(Mismatch(s, t, dm.entries[s][t], actual))
    return VerifyReport(not mismatches, dm.m * dm.n, tuple(mismatches))


@dataclass(frozen=True)
class VoltageLadder:
    """Concrete voltage levels for abstract ranks.

    Gate and threshold levels interleave: Vs_0 < Vt_0 < Vs_1 < Vt_1 < ...,
    which holds exactly when vth_base - step < vgs_base < vth_base. A gate
    of rank j then exceeds a threshold of rank i iff j > i, matching the
    rank rule. The defaults put gate levels halfway between thresholds
    (0.2 V of margin against threshold variation) and pick a drain step and
    series resistance whose quotient is an exact binary fraction, so ideal
    cell currents are exact integer multiples of the unit current.
    """

    vgs_base: float = 0.3
    vth_base: float = 0.5
    step: float = 0.4
    unit_vds: float = 0.125
    resistance: float = float(2**20)  # ~1.05 Mohm

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0 or self.unit_vds <= 0 or self.resistance <= 0:
            raise ValueError("step, unit_vds and resistance must be positive")
        if not (math.isfinite(self.unit_current) and self.unit_current > 0):
            raise ValueError(
                "unit_vds / resistance must be finite and positive, "
                f"got {self.unit_vds:g} / {self.resistance:g} = {self.unit_current:g}"
            )
        if not (self.vth_base - self.step < self.vgs_base < self.vth_base):
            raise ValueError(
                "gate and threshold levels must interleave: "
                "vth_base - step < vgs_base < vth_base"
            )

    def vth_volts(self, rank: int) -> float:
        return self.vth_base + rank * self.step

    def vgs_volts(self, rank: int) -> float:
        return self.vgs_base + rank * self.step

    def vds_volts(self, multiple: int) -> float:
        if multiple < 1:
            raise ValueError("drain multiples start at 1")
        return multiple * self.unit_vds

    @property
    def unit_current(self) -> float:
        return self.unit_vds / self.resistance


DEFAULT_LADDER = VoltageLadder()


def export_encoding(enc: VoltageEncoding) -> str:
    """Serialize to the canonical JSON schema (lossless round trip)."""
    data = {
        "k": enc.k,
        "stored": {str(t): list(enc.vth_ranks[t]) for t in range(enc.n)},
        "search": {
            str(s): {"vgs": list(enc.vgs_ranks[s]), "vds": list(enc.vds_multiples[s])}
            for s in range(enc.m)
        },
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _symbol_table(section: dict, what: str) -> list:
    try:
        keys = sorted(section, key=int)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} symbols must be decimal integers") from exc
    if [int(key) for key in keys] != list(range(len(keys))):
        raise ValueError(f"{what} symbols must be contiguous from 0")
    return [section[key] for key in keys]


def import_encoding(text: str) -> VoltageEncoding:
    """Parse JSON text in the export schema back into an encoding, validating ranks.

    k, ranks and multiples must be JSON integers: 1.7 or "3" is rejected,
    not truncated.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"encoding JSON is malformed: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("encoding JSON must be an object")
    try:
        stored = _symbol_table(data["stored"], "stored")
        search = _symbol_table(data["search"], "search")
        return VoltageEncoding(data["k"], stored, [e["vgs"] for e in search], [e["vds"] for e in search])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"encoding JSON is missing required structure: {exc}") from exc


def load_encoding(path: str | Path) -> VoltageEncoding:
    """import_encoding on a file; an invalid encoding's message starts with the path."""
    text = read_input(path)
    try:
        return import_encoding(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def encoding_table_csv(enc: VoltageEncoding, bits: int | None = None) -> str:
    """Human-readable table: one stored and one search section."""

    def label(sym: int) -> str:
        return format(sym, f"0{bits}b") if bits is not None else str(sym)

    fets = range(1, enc.k + 1)
    lines = ["# stored encoding", "symbol," + ",".join(f"vth_fet{i}" for i in fets)]
    for t in range(enc.n):
        lines.append(label(t) + "," + ",".join(str(v) for v in enc.vth_ranks[t]))
    lines.append("# search encoding")
    lines.append(
        "symbol,"
        + ",".join(f"vgs_fet{i}" for i in fets)
        + ","
        + ",".join(f"vds_fet{i}" for i in fets)
    )
    for s in range(enc.m):
        lines.append(
            label(s)
            + ","
            + ",".join(str(v) for v in enc.vgs_ranks[s])
            + ","
            + ",".join(str(v) for v in enc.vds_multiples[s])
        )
    return "\n".join(lines) + "\n"
