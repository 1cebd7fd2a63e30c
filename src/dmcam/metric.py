"""Integer distance matrices: construction, validation and CSV I/O.

A distance matrix is the compilation target for the cell solver: rows are
search symbols, columns are stored symbols, and each entry is the integer
distance the programmed cell must reproduce as a current multiple.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from pathlib import Path

MAX_BITS = 8


def as_integer(value, what: str) -> int:
    """value as an int; a bool, a float, a string or any other non-integer raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


class MetricKind(str, enum.Enum):
    """Built-in per-symbol distance functions (custom tables come from CSV)."""

    HAMMING = "hamming"
    MANHATTAN = "manhattan"
    SQ_EUCLIDEAN = "sq_euclidean"


@dataclass(frozen=True)
class DistanceSpec:
    """Requested distance function over b-bit symbols."""

    kind: MetricKind
    bits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", MetricKind(self.kind))
        object.__setattr__(self, "bits", as_integer(self.bits, "bits"))
        if self.bits < 1:
            raise ValueError("bits must be >= 1")


@dataclass(frozen=True)
class DistanceMatrix:
    """Target distances indexed [search symbol][stored symbol]."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(as_integer(v, "a distance") for v in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise ValueError("distance matrix must have at least one entry")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("distance matrix rows must all have the same length")
        if any(v < 0 for row in rows for v in row):
            raise ValueError("distance matrix entries must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    @property
    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)


def _hamming(s: int, t: int) -> int:
    return bin(s ^ t).count("1")


def _manhattan(s: int, t: int) -> int:
    return abs(s - t)


def _sq_euclidean(s: int, t: int) -> int:
    return (s - t) * (s - t)


_BUILTINS = {
    MetricKind.HAMMING: _hamming,
    MetricKind.MANHATTAN: _manhattan,
    MetricKind.SQ_EUCLIDEAN: _sq_euclidean,
}


def build_dm(spec: DistanceSpec) -> DistanceMatrix:
    """Build the full 2^bits x 2^bits matrix for a built-in metric.

    Symbols are unsigned integer readings of the bit strings; rows and
    columns are in ascending numeric order.
    """
    if spec.bits > MAX_BITS:
        raise ValueError(f"bits must be <= {MAX_BITS} (matrix would not fit memory)")
    size = 1 << spec.bits
    fn = _BUILTINS[spec.kind]
    return DistanceMatrix(
        tuple(tuple(fn(s, t) for t in range(size)) for s in range(size))
    )


def read_input(path: str | Path) -> str:
    """The text of an input file; a file that is not UTF-8 raises ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def csv_rows(text: str, source, convert=int, width: int | None = None,
             cell: str = "value") -> list[list]:
    """Comma-separated rows of text, each cell through convert; blank and '#' lines are skipped.

    Every row holds width cells, or as many as the first; any failure raises
    ValueError naming source (and the line), with cell naming what a cell holds.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([convert(c) for c in line.split(",")])
        except ValueError as exc:
            kind = "integer" if convert is int else "number"
            raise ValueError(f"{source} line {lineno}: not a comma-separated {kind} row") from exc
        want = width or len(rows[0])
        if len(rows[-1]) != want:
            raise ValueError(f"{source} line {lineno}: expected {want} {cell}{'s' * (want != 1)}, "
                             f"got {len(rows[-1])}")
    if not rows:
        raise ValueError(f"{source}: no data rows")
    return rows


def parse_dm_csv(text: str, source="distance matrix CSV") -> DistanceMatrix:
    """Parse comma-separated integer rows; lines starting with '#' are skipped.

    Every error names source, a matrix the rows do not form included.
    """
    rows = csv_rows(text, source)
    try:
        return DistanceMatrix(rows)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def load_custom_dm(source: str | Path) -> DistanceMatrix:
    """Load a custom matrix from CSV. Symmetry is not required."""
    return parse_dm_csv(read_input(source), source)


def dm_to_csv(dm: DistanceMatrix) -> str:
    """Render one row per search symbol, entries comma separated."""
    return "\n".join(",".join(str(v) for v in row) for row in dm.entries) + "\n"
