"""End-to-end compilation: distance spec -> minimal cell -> verified encoding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .encoder import VerifyReport, VoltageEncoding, derive_encoding, verify_encoding
from .metric import DistanceMatrix
from .solver import (
    DEFAULT_NODE_BUDGET,
    CurrentRange,
    GlobalAssignment,
    ProbeOutcome,
    solve_fixed_k,
)


@dataclass(frozen=True)
class CompileResult:
    """Minimal-k encoding for a matrix, its verification and the per-k probe trail."""

    dm: DistanceMatrix
    cr: CurrentRange
    probes: tuple[ProbeOutcome, ...]
    k: Optional[int]
    assignment: Optional[GlobalAssignment]
    encoding: Optional[VoltageEncoding]
    verify: Optional[VerifyReport]

    @property
    def feasible(self) -> bool:
        return self.encoding is not None


def compile_dm(
    dm: DistanceMatrix,
    cr: Optional[CurrentRange] = None,
    k_min: int = 1,
    k_max: int = 8,
    budget: int = DEFAULT_NODE_BUDGET,
) -> CompileResult:
    """Find the smallest feasible cell size in k_min..k_max and derive its verified encoding.

    Sizes are probed upward, stopping at the first solved one. With cr
    omitted, the contiguous range 0..max_entry is used so every entry is
    decomposable by a large enough cell. The derived encoding is
    re-verified against the matrix and returned with that report; a
    verification failure would indicate a solver defect and raises.
    """
    if k_max < k_min:
        raise ValueError(f"k_max must be >= {k_min}")
    if cr is None:
        cr = CurrentRange.covering(dm.max_entry)
    probes: tuple[ProbeOutcome, ...] = ()
    for k in range(k_min, k_max + 1):
        probes += (solve_fixed_k(dm, k, cr, budget),)
        if probes[-1].feasible:
            break
    last = probes[-1]
    if not last.feasible:
        return CompileResult(dm, cr, probes, None, None, None, None)
    assert last.assignment is not None
    encoding = derive_encoding(last.assignment)
    report = verify_encoding(encoding, dm)
    if not report.passed:
        raise RuntimeError(
            f"derived encoding failed verification on {len(report.mismatches)} entries"
        )
    return CompileResult(dm, cr, probes, last.k, last.assignment, encoding, report)
