"""Property tests of batched, exact sensing over ladders, metrics and shapes."""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import spy_exact_sums
from dmcam.apps import software_knn_order
from dmcam.compiler import compile_dm
from dmcam.crossbar import Crossbar, entry_sums, smallest_k
from dmcam.device import DEFAULT_ISAT, VariationParams
from dmcam.encoder import VoltageLadder, load_encoding, verify_encoding
from dmcam.metric import DistanceSpec, MetricKind, build_dm

KINDS = ("hamming", "manhattan", "sq_euclidean")


@functools.cache
def _compiled(kind):
    return compile_dm(build_dm(DistanceSpec(MetricKind(kind), 2)), k_max=6)


def _ladder(encoding, unit_vds, resistance):
    top = max(max(entry) for entry in encoding.vds_multiples)
    assume(top * unit_vds / resistance <= DEFAULT_ISAT)  # no branch saturates
    return VoltageLadder(unit_vds=unit_vds, resistance=resistance)


def _symbols(seed, count, dims, levels):
    return np.random.default_rng(seed).integers(0, levels, (count, dims))


shapes = dict(
    kind=st.sampled_from(KINDS),
    rows=st.integers(1, 16),
    dims=st.integers(1, 64),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
ladders = dict(
    unit_vds=st.floats(0.01, 1.0),
    resistance=st.floats(1e5, 1e7),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(**shapes, **ladders)
# The 0.1 V / 1 Mohm ladder's unit current is not a binary fraction, so
# summing currents as floats broke ties between equally distant rows.
@example(kind="hamming", rows=16, dims=64, count=8, seed=20, unit_vds=0.1, resistance=1e6)
def test_zero_variation_knn_equals_software_order(
    kind, rows, dims, count, seed, unit_vds, resistance
):
    compiled = _compiled(kind)
    ladder = _ladder(compiled.encoding, unit_vds, resistance)
    stored = _symbols(seed, rows, dims, compiled.dm.n)
    queries = _symbols(seed + 1, count, dims, compiled.dm.m)
    cb = Crossbar(compiled.encoding, stored, ladder)
    for kq in range(1, rows + 1):
        assert cb.knn(queries, kq) == software_knn_order(compiled.dm, stored, queries, kq)


# What `dmcam compile --metric hamming --bits 3` writes: min k = 4, m = n = 8.
HAMMING3_PATH = Path(__file__).parent / "data" / "hamming3_4fet.json"


@functools.cache
def _hamming3():
    dm = build_dm(DistanceSpec(MetricKind.HAMMING, 3))
    encoding = load_encoding(HAMMING3_PATH)
    assert verify_encoding(encoding, dm).passed  # a stale file fails here
    return dm, encoding


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 16),
    dims=st.integers(1, 64),
    count=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    **ladders,
)
# More query cells than stored ones (the queries get the masks), then fewer.
@example(rows=2, dims=40, count=24, seed=20, unit_vds=0.1, resistance=1e6)
@example(rows=16, dims=40, count=3, seed=21, unit_vds=0.1, resistance=1e6)
def test_zero_variation_knn_equals_software_order_3bit(rows, dims, count, seed, unit_vds, resistance):
    dm, encoding = _hamming3()
    ladder = _ladder(encoding, unit_vds, resistance)
    stored = _symbols(seed, rows, dims, dm.n)
    queries = _symbols(seed + 1, count, dims, dm.m)
    cb = Crossbar(encoding, stored, ladder)
    for kq in range(1, rows + 1):
        assert cb.knn(queries, kq) == software_knn_order(dm, stored, queries, kq)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    **shapes,
    **ladders,
    sigma_vth=st.sampled_from([0.0, 0.054, 0.12]),
    sigma_r=st.sampled_from([0.0, 0.08]),
)
def test_batched_row_currents_equal_per_query_rows(
    kind, rows, dims, count, seed, unit_vds, resistance, sigma_vth, sigma_r
):
    compiled = _compiled(kind)
    ladder = _ladder(compiled.encoding, unit_vds, resistance)
    stored = _symbols(seed, rows, dims, compiled.dm.n)
    queries = _symbols(seed + 1, count, dims, compiled.dm.m)
    variation = VariationParams(sigma_vth, sigma_r, seed)
    cb = Crossbar(compiled.encoding, stored, ladder, variation=variation)
    batched = cb.row_currents(queries)
    assert batched.shape == (count, rows)
    assert np.array_equal(batched, np.stack([cb.row_currents(q) for q in queries]))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    count=st.sampled_from([None, 0, 1, 2, 5]),  # None: one 1-D vector; 0: an empty batch
    rows=st.integers(1, 40),
    distinct=st.integers(1, 6),  # few distinct values: many ties, also at the cut
    floats=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_smallest_k_equals_stable_argsort_prefix(count, rows, distinct, floats, seed):
    rng = np.random.default_rng(seed)
    shape = (rows,) if count is None else (count, rows)
    pool = rng.normal(0.0, 1e-6, distinct) if floats else np.arange(distinct) * 3 - 5
    values = rng.choice(pool, shape)
    for kq in range(1, rows + 1):
        chosen = smallest_k(values, kq)
        assert chosen.shape == shape[:-1] + (kq,)
        assert np.array_equal(chosen, np.argsort(values, axis=-1, kind="stable")[..., :kq])
    for kq in (0, -1, rows + 1):  # np.partition alone would wrap kth=-1 around
        with pytest.raises(ValueError, match=rf"kq must be in \[1, {rows}\]"):
            smallest_k(values, kq)


LADDERS = {"default": VoltageLadder(), "0.1 V / 1 Mohm": VoltageLadder(unit_vds=0.1, resistance=1e6)}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    rows=st.integers(1, 90),
    dims=st.sampled_from([1, 7, 64, 784]),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    ladder=st.sampled_from(sorted(LADDERS)),
    sigma_vth=st.sampled_from([1e-3, 0.054, 0.12]),  # at 1 mV no device leaves its rank
    # Rows equally distant differ by about float32's rounding at 1e-6, in ulps at 1e-9.
    sigma_r=st.sampled_from([0.0, 1e-9, 1e-6, 0.08]),
    duplicates=st.booleans(),
)
# Several row blocks (55 rows of 784 x 3 devices a block, 41 of 784 x 4).
@example(kind="hamming", rows=90, dims=784, count=3, seed=1, ladder="0.1 V / 1 Mohm",
         sigma_vth=0.054, sigma_r=0.08, duplicates=True)
@example(kind="sq_euclidean", rows=90, dims=784, count=2, seed=2, ladder="default",
         sigma_vth=1e-3, sigma_r=0.0, duplicates=True)
# Repeated rows whose float32 sums round out of the order of their exact ones.
@example(kind="hamming", rows=40, dims=784, count=3, seed=4, ladder="default",
         sigma_vth=1e-3, sigma_r=1e-6, duplicates=True)
# One row wider than DEVICE_BLOCK: 44000 x 3 devices.
@example(kind="manhattan", rows=3, dims=44000, count=2, seed=3, ladder="default",
         sigma_vth=0.054, sigma_r=1e-9, duplicates=False)
# HDC's class array: 10 rows of 10000 x 3 devices, at the paper's sigmas.
@example(kind="hamming", rows=10, dims=10000, count=3, seed=5, ladder="default",
         sigma_vth=0.054, sigma_r=0.08, duplicates=False)
def test_varied_knn_equals_smallest_k_of_row_currents(
    kind, rows, dims, count, seed, ladder, sigma_vth, sigma_r, duplicates
):
    compiled = _compiled(kind)
    stored = _symbols(seed, rows, dims, compiled.dm.n)
    if duplicates:  # the second half repeats the first
        stored[rows // 2:] = stored[:rows - rows // 2]
    queries = _symbols(seed + 1, count, dims, compiled.dm.m)
    variation = VariationParams(sigma_vth, sigma_r, seed)
    cb = Crossbar(compiled.encoding, stored, LADDERS[ladder], variation=variation)
    currents = cb.row_currents(queries)
    summed = spy_exact_sums(cb)
    for kq in sorted({1, min(3, rows), rows}):
        expected = smallest_k(currents, kq).tolist()
        assert cb.knn(queries, kq) == expected
        assert summed and all(rows_summed is not None for _, rows_summed in summed)  # ranked
        assert cb.knn(queries[0], kq) == expected[0]


def _gather_sums(table, stored, queries):
    """The definition, in int64: sums[q, r] = sum over d of table[queries[q, d], stored[r, d]]."""
    return table[queries[:, None, :], stored[None]].sum(axis=-1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    rows=st.integers(1, 12),
    dims=st.integers(1, 64),
    count=st.integers(0, 6),
    low=st.sampled_from([0, -9, 2**22 - 7, -(2**22)]),
    span=st.sampled_from([1, 10, 2**22]),
    seed=st.integers(0, 2**32 - 1),
)
# dims x max|entry| reaches 2**25: partial sums float32 would round.
@example(m=4, n=4, rows=12, dims=8, count=6, low=2**22 - 7, span=10, seed=1)
# The stored array has more cells and gets the masks, then the query batch does.
@example(m=5, n=5, rows=12, dims=40, count=1, low=-9, span=10, seed=2)
@example(m=5, n=5, rows=1, dims=40, count=6, low=-9, span=10, seed=3)
# One symbol on the mask side: the base-row sum alone, no GEMM.
@example(m=3, n=1, rows=12, dims=20, count=2, low=-9, span=10, seed=4)
@example(m=1, n=3, rows=2, dims=20, count=6, low=-9, span=10, seed=5)
@example(m=4, n=4, rows=5, dims=16, count=0, low=0, span=10, seed=6)  # an empty batch
# dims x max|T| is 2**24, but T - T[0] reaches twice max|T|: the GEMMs'
# partial sums of differences pass 2**24 and float32 would round them,
# with the masks on the stored array and then on the queries.
@example(m=2, n=2, rows=12, dims=8, count=6, low=-(2**21), span=2**22, seed=25)
@example(m=2, n=2, rows=1, dims=8, count=6, low=-(2**21), span=2**22, seed=156)
def test_entry_sums_equal_int64_gather_sums(m, n, rows, dims, count, low, span, seed):
    rng = np.random.default_rng(seed)
    table = rng.integers(low, low + span, (m, n))
    stored = rng.integers(0, n, (rows, dims))
    queries = rng.integers(0, m, (count, dims))
    sums = entry_sums(table, stored, queries)
    assert sums.dtype == np.float64 and sums.shape == (count, rows)
    assert np.array_equal(sums, _gather_sums(table, stored, queries))
