"""Solver outputs pinned bit for bit: statuses, domain sizes and witnesses.

The digests were recorded from the frozenset implementation of row
enumeration, AC-3 and extraction; any change to how on-sets are stored must
reproduce every probe outcome and every derived encoding exactly.
"""

import hashlib

import numpy as np
import pytest

from dmcam.compiler import compile_dm
from dmcam.metric import DistanceMatrix, DistanceSpec, MetricKind, build_dm
from dmcam.solver import CurrentRange, solve_fixed_k

CR012 = CurrentRange((0, 1, 2))


def _outcome_text(outcome) -> str:
    tuples = None if outcome.assignment is None else [r.tuples for r in outcome.assignment.rows]
    return repr((outcome.k, outcome.status, outcome.domain_sizes, outcome.pruned_sizes, tuples))


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _builtin_lines(kind: MetricKind, bits: int, k_max: int):
    result = compile_dm(build_dm(DistanceSpec(kind, bits)), k_max=k_max)
    yield repr((kind.value, bits, result.cr.multiples, result.k))
    for outcome in result.probes:
        yield _outcome_text(outcome)
    enc = result.encoding
    if enc is not None:
        yield repr((enc.k, enc.vth_ranks, enc.vgs_ranks, enc.vds_multiples))


BUILTIN_GOLDEN = {
    (MetricKind.HAMMING, 2):
        "a657929f5348a12cfae33bdecf54ec04e86278f59c96b2e3ca744d704c7cfe98",
    (MetricKind.MANHATTAN, 2):
        "2de50813d75d74bcfdec18f0a29ffd8492be7c1e3e8fca28b3ebc0ce05f5df8c",
    (MetricKind.SQ_EUCLIDEAN, 2):
        "0d797ca556a883b3bb4896c177590225ed0c0aea974132e9adfabc171191ae92",
    (MetricKind.HAMMING, 3):
        "f7ed1c2109e3d47ea032d8a67499a6ff0fac0eb3410f767eaaef96b3fdcf6a47",
    (MetricKind.MANHATTAN, 3):
        "1b0d94efab55c197dff8b9d6cdbba2afca7950cfc4f68cd46797a64a4c482e40",
    (MetricKind.SQ_EUCLIDEAN, 3):
        "1f7372f6983ea22ac6f021cc555d2b02f73c8f106ab1dcf28094c5e97e3ef814",
}


@pytest.mark.parametrize("kind, bits", sorted(BUILTIN_GOLDEN, key=lambda kb: (kb[1], kb[0].value)))
def test_builtin_compile_golden(kind, bits):
    k_max = 6 if bits == 2 else 3
    assert _digest(_builtin_lines(kind, bits, k_max)) == BUILTIN_GOLDEN[kind, bits]


# Eight matrices of every shape m, n in 1..4 with entries 0..3, probed at
# k = 1, 2, 3 over current levels 0, 1, 2: 384 verdicts covering all five
# statuses.
RANDOM_GOLDEN = "44eb94afb55e0c16670a9376275d98cfae5954a7729f3c71f1fe527d6c04f589"


def test_random_verdicts_golden():
    rng = np.random.default_rng(2024)
    lines = []
    for _ in range(8):
        for m in range(1, 5):
            for n in range(1, 5):
                dm = DistanceMatrix(tuple(tuple(int(v) for v in row) for row in rng.integers(0, 4, (m, n))))
                lines.append(repr(dm.entries))
                lines.extend(_outcome_text(solve_fixed_k(dm, k, CR012)) for k in (1, 2, 3))
    assert _digest(lines) == RANDOM_GOLDEN
