"""Zero-variation sensing and its software twin pinned bit for bit.

The digests were recorded from the float64 implementation of entry_sums,
full stable argsorts in knn and int64 quantizer counts; any cheaper
arithmetic or selection must reproduce every current, distance, order and
symbol exactly, on both ladders (the 0.1 V / 1 Mohm ladder's unit current is
not a binary fraction).
"""

import functools
import hashlib

import numpy as np
import pytest

from dmcam.apps import Quantizer, knn_classify, software_distances, software_knn_order
from dmcam.compiler import compile_dm
from dmcam.crossbar import QUERY_BLOCK, Crossbar
from dmcam.datasets import synthetic_digits
from dmcam.encoder import DEFAULT_LADDER, VoltageLadder
from dmcam.metric import DistanceSpec, MetricKind, build_dm

LADDERS = {"default": DEFAULT_LADDER, "0.1V-1Mohm": VoltageLadder(unit_vds=0.1, resistance=1e6)}
ROWS, DIMS, QUERIES = 300, 97, 130


@functools.cache
def _compiled(kind):
    return compile_dm(build_dm(DistanceSpec(MetricKind(kind), 2)), k_max=6)


@functools.cache
def _data():
    ds = synthetic_digits(n_train=ROWS, n_test=QUERIES, features=DIMS, seed=3)
    quantizer = Quantizer.fit(ds.train_x, 2)
    return ds, quantizer.apply(ds.train_x), quantizer.apply(ds.test_x)


def _digest(blobs) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def _orders(order) -> bytes:
    return np.asarray(order, dtype=np.int64).tobytes()


QUANTIZER_GOLDEN = "f19ed083c6411f437e3e8b980a8ea0a04aec3bae67c61985aee869dc052234af"


def test_quantizer_symbols_golden():
    _, stored, queries = _data()
    assert stored.shape == (ROWS, DIMS) and queries.shape == (QUERIES, DIMS)
    assert QUERIES > QUERY_BLOCK
    assert _digest([stored.tobytes(), queries.tobytes()]) == QUANTIZER_GOLDEN


SENSING_GOLDEN = {
    ("hamming", "default"):
        "8521c7f5988d1e49919345430245be6bbddeb5fb5dcb56ee5c3c34a146841874",
    ("hamming", "0.1V-1Mohm"):
        "90d42489b7b4e0e69a160d940d1c4ab5d4a47efaf2f99394ec95d8344d4cf3dd",
    ("manhattan", "default"):
        "788fc0b1c036ae408e178ea02e3f09151108f68a3d59643e38b56e098ec8d9f8",
    ("manhattan", "0.1V-1Mohm"):
        "48d2433e580555cdc0c2fee3053094a83499f7ab00a53dfa74038198cf0572c9",
    ("sq_euclidean", "default"):
        "02347743a5f061a90eaeb34a3ee6d41481cbe50d74d36ba55b7bb85c667b7e4c",
    ("sq_euclidean", "0.1V-1Mohm"):
        "f90dee47bedeba20c1f9cea1d9c02b48ff10148c3e67ff063ef64a691b25869b",
}


def _sensing_blobs(kind, ladder_name):
    ds, stored, queries = _data()
    compiled = _compiled(kind)
    ladder = LADDERS[ladder_name]
    cb = Crossbar(compiled.encoding, stored, ladder)
    yield cb.row_currents(queries).tobytes()
    yield software_distances(compiled.dm, stored, queries).tobytes()
    for kq in (1, 3, ROWS):
        yield _orders(cb.knn(queries, kq))
        yield _orders(software_knn_order(compiled.dm, stored, queries, kq))
    report = knn_classify(ds.train_x, ds.train_y, ds.test_x, ds.test_y, compiled.dm,
                          compiled.encoding, 2, kq=3, ladder=ladder)
    yield _orders([report.predictions_hw, report.predictions_sw])


@pytest.mark.parametrize("kind, ladder_name", sorted(SENSING_GOLDEN))
def test_zero_variation_sensing_golden(kind, ladder_name):
    assert _digest(_sensing_blobs(kind, ladder_name)) == SENSING_GOLDEN[kind, ladder_name]
