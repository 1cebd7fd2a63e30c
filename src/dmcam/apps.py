"""Classification pipelines exercising compiled encodings end to end.

Two workloads drive the crossbar the way an accelerator would:

* k-nearest-neighbor over quantized feature vectors stored row-per-sample;
* hyperdimensional classification, where samples are randomly projected to a
  high dimension, per-class prototype vectors are accumulated (optionally
  refined by perceptron-style passes) and inference searches the quantized
  prototypes for the nearest one under the compiled distance function.

Every hardware search has a pure-software twin computed from the distance
matrix itself; at zero variation the two must agree query by query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .crossbar import Crossbar, by_query_block, checked_symbols, entry_sums, smallest_k
from .datasets import Dataset
from .device import DEVICE_BLOCK, VariationParams
from .encoder import DEFAULT_LADDER, VoltageEncoding, VoltageLadder
from .metric import DistanceMatrix

# Columns of the HDC projection widened to float64 for one matmul.
PROJECTION_BLOCK = 1024


@dataclass(frozen=True)
class Quantizer:
    """Per-feature quantile bins fitted on training data.

    Thresholds are numpy's "linear" quantiles (method 7 of Hyndman & Fan,
    "Sample quantiles in statistical packages", 1996) at i / levels, computed
    from one sort per feature with numpy's own interpolation formula, so they
    equal ``np.quantile(train, qs, axis=0).T`` bit for bit. The one exception
    is the sign of a zero threshold in a feature that holds both -0.0 and
    +0.0: which equal zero sits at an order-statistic position is up to the
    sort here and to numpy's selection there, and the two compare equal.
    """

    thresholds: np.ndarray  # (features, levels - 1)
    bits: int

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @classmethod
    def fit(cls, train: np.ndarray, bits: int) -> "Quantizer":
        if bits < 1:
            raise ValueError("bits must be >= 1")
        train = np.asarray(train, dtype=np.float64)
        if train.ndim != 2:
            raise ValueError("training data must be a (samples, features) matrix")
        if train.size == 0:
            raise ValueError("training data is empty")
        # numpy's "linear" method: virtual index (n - 1) q between two order
        # statistics, clamped to the last one, and its two-sided lerp.
        n, features = train.shape
        levels = 1 << bits
        virtual = (n - 1) * (np.arange(1, levels) / levels)
        below = np.floor(virtual)
        above = below + 1
        last = virtual >= n - 1
        below[last] = above[last] = -1
        gamma = virtual - below
        below, above = below.astype(np.intp), above.astype(np.intp)
        # F order keeps each level's thresholds contiguous for _counts.
        thresholds = np.empty((features, levels - 1), order="F")
        # Sorting DEVICE_BLOCK values' worth of features at a time bounds the sorted copy.
        step = max(1, DEVICE_BLOCK // n)
        for f in range(0, features, step):
            columns = np.array(train[:, f:f + step].T, order="C")  # sorted in place
            columns.sort(axis=1)
            # A sort puts NaN last and infinities at the ends.
            if not np.isfinite(columns[:, [0, -1]]).all():
                raise ValueError("training data must be finite")
            lo = columns[:, below]
            hi = columns[:, above]
            diff = hi - lo
            block = thresholds[f:f + step]
            np.add(lo, diff * gamma, out=block)
            np.subtract(hi, diff * (1 - gamma), out=block, where=gamma >= 0.5)
        return cls(thresholds, bits)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Symbol = number of thresholds strictly below the value, as int64.

        A constant feature collapses every threshold onto the same point, so
        all of its values land in level 0.
        """
        return self._counts(values).astype(np.int64)

    def _counts(self, values: np.ndarray) -> np.ndarray:
        """apply's symbols in the narrowest unsigned dtype that holds levels - 1."""
        x = np.asarray(values, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.thresholds.shape[0]:
            raise ValueError("value vector does not match the fitted feature count")
        counts = np.zeros(x.shape, dtype=np.min_scalar_type(self.levels - 1))
        for threshold in self.thresholds.T:
            counts += x > threshold
        return counts[0] if squeeze else counts


# -- software twins ----------------------------------------------------------


# Each twin takes one query vector or a (Q, dims) batch of them and returns
# one answer or a list of answers (an array with a leading Q axis for the
# distances).


def software_distances(dm: DistanceMatrix, stored_q: np.ndarray, query_q: np.ndarray) -> np.ndarray:
    """Per-row integer distances: sum of per-dimension matrix entries."""
    stored_q = np.atleast_2d(checked_symbols(stored_q, dm.n, "stored symbols must lie in [0, n)"))
    query_q = checked_symbols(query_q, dm.m, "query symbols must lie in [0, m)")
    dists = entry_sums(dm.entries, stored_q, np.atleast_2d(query_q)).astype(np.int64)
    return dists if query_q.ndim == 2 else dists[0]


def software_nearest(dm: DistanceMatrix, stored_q: np.ndarray, query_q: np.ndarray):
    """Argmin row with lowest-index tie-break: the sensing stage's contract."""
    return np.argmin(software_distances(dm, stored_q, query_q), axis=-1).tolist()


def software_knn_order(dm: DistanceMatrix, stored_q: np.ndarray, query_q: np.ndarray, kq: int):
    """The kq nearest rows by distance, in knn's query blocks; ties go to the lowest index."""
    return by_query_block(lambda block: smallest_k(software_distances(dm, stored_q, block), kq),
                          np.atleast_1d(query_q))


def majority_label(neighbor_labels: Sequence[int]) -> int:
    """Majority vote; ties resolve to the label whose neighbor ranks first."""
    votes: dict[int, int] = {}
    for label in neighbor_labels:
        votes[label] = votes.get(label, 0) + 1
    best = max(votes.values())
    for label in neighbor_labels:
        if votes[label] == best:
            return label
    raise AssertionError("unreachable: neighbor list was empty")


# -- reports ----------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """Array and software-twin accuracy with per-query predictions, for KNN and HDC.

    to_dict holds the three shared figures; the KNN summary adds degradation_pp.
    """

    accuracy_hw: float
    accuracy_sw: float
    agreement: float
    predictions_hw: tuple[int, ...]
    predictions_sw: tuple[int, ...]

    @classmethod
    def from_predictions(
        cls, preds_hw: Sequence[int], preds_sw: Sequence[int], labels: np.ndarray
    ):
        hw, sw = np.asarray(preds_hw), np.asarray(preds_sw)
        labels = np.asarray(labels, dtype=np.int64)
        return cls(
            accuracy_hw=float((hw == labels).mean()),
            accuracy_sw=float((sw == labels).mean()),
            agreement=float((hw == sw).mean()),
            predictions_hw=tuple(int(p) for p in preds_hw),
            predictions_sw=tuple(int(p) for p in preds_sw),
        )

    @property
    def degradation_pp(self) -> float:
        """Hardware accuracy shortfall versus software, in percentage points."""
        return (self.accuracy_sw - self.accuracy_hw) * 100.0

    def to_dict(self) -> dict:
        return {
            "accuracy_hw": self.accuracy_hw,
            "accuracy_sw": self.accuracy_sw,
            "agreement": self.agreement,
        }


# -- k-nearest-neighbor -------------------------------------------------------


def knn_classify(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    dm: DistanceMatrix,
    encoding: VoltageEncoding,
    bits: int,
    kq: int = 1,
    ladder: VoltageLadder = DEFAULT_LADDER,
    variation: Optional[VariationParams] = None,
) -> PipelineReport:
    """Store the quantized training set row-per-sample and classify queries.

    The software twin ranks rows by exact integer distance with the same
    index tie-break and votes with the same rule.
    """
    quantizer = Quantizer.fit(train_x, bits)
    # The stored set is counted narrow; the test set goes through apply,
    # whose calls perfbench/spans.py expects on knn.
    stored_q = quantizer._counts(train_x)
    test_q = quantizer.apply(test_x)
    cb = Crossbar(encoding, stored_q, ladder, variation=variation)
    return _classify(cb, dm, stored_q, np.asarray(train_y, dtype=np.int64), test_q, test_y, kq)


def _classify(cb, dm, stored, labels, queries, true_labels, kq) -> PipelineReport:
    """Vote each query's kq nearest rows' labels: one cb.knn and one software_knn_order call."""
    orders = cb.knn(queries, kq), software_knn_order(dm, stored, queries, kq)
    preds_hw, preds_sw = ([majority_label(row) for row in labels[o].tolist()] for o in orders)
    return PipelineReport.from_predictions(preds_hw, preds_sw, true_labels)


# -- hyperdimensional classification -------------------------------------------


HDC_LEARNING_RATE = 0.1  # scale of one correction-epoch update


@dataclass
class HDCModel:
    """Random projection plus per-class prototype vectors."""

    projection: np.ndarray  # (features, dimension), entries in {-1, +1}
    class_vectors: np.ndarray  # (classes, dimension) float accumulators
    quantized_class_vectors: np.ndarray  # (classes, dimension) symbols
    quantizer: Quantizer  # fitted on projected training vectors
    corrections: tuple[int, ...] = ()  # correction updates per requested epoch

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Project one sample (or a batch) and quantize to symbols.

        Unlike Quantizer.apply, the symbols come in the narrowest unsigned
        dtype that holds levels - 1, so searching them copies nothing.
        """
        return self.quantizer._counts(_project(x, self.projection))


def _project(x: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """x @ projection in float64, PROJECTION_BLOCK columns at a time.

    Each block widens one int8 slice of the projection and takes one matmul
    into its slice of the result, so no float64 copy of the whole projection
    exists. The blocks also fix the product's values independently of how
    the BLAS would split the whole matrix; they still depend on the BLAS
    build and its thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape[:-1] + projection.shape[1:])
    for c in range(0, projection.shape[1], PROJECTION_BLOCK):
        cols = slice(c, c + PROJECTION_BLOCK)
        np.matmul(x, projection[:, cols].astype(np.float64), out=out[..., cols])
    return out


def hdc_train(
    dataset: Dataset,
    dimension: int = 1024,
    bits: int = 2,
    epochs: int = 0,
    seed: int = 0,
) -> HDCModel:
    """Single-pass prototype accumulation with optional correction epochs.

    Pass 1 sums each class's projected training vectors. Each extra epoch
    revisits samples in order and, on a cosine-similarity misprediction,
    adds the scaled sample to its true class vector and subtracts it from
    the predicted one; HDC_LEARNING_RATE keeps single corrections small
    next to the accumulated prototype. Prototypes are scaled to per-sample
    magnitude (divided by class size) before sharing the train-fitted
    quantizer.

    Each epoch scores one sample at a time: one GEMV against the class
    vectors divided by their norms, argmax with the lowest index winning
    ties. An epoch without a correction leaves the vectors unchanged, so
    every later epoch would repeat it: training stops there, and the
    skipped epochs count 0 in `corrections`.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    rng = np.random.default_rng(seed)
    # Draw {0, 1} in the stream's int64, DEVICE_BLOCK values at a time, and keep it as int8
    # {-1, +1}; the blocks continue one stream, so they equal one rng.integers(0, 2, shape) draw.
    stored_projection = np.empty((dataset.feature_count, dimension), dtype=np.int8)
    step = max(1, DEVICE_BLOCK // dimension)
    for r in range(0, dataset.feature_count, step):
        rows = stored_projection[r:r + step]
        rows[...] = rng.integers(0, 2, rows.shape)
    stored_projection *= 2
    stored_projection -= 1
    projected = _project(dataset.train_x, stored_projection)  # (samples, dimension)

    classes = dataset.class_count
    counts = np.bincount(dataset.train_y, minlength=classes).astype(np.float64)
    if (counts == 0).any():
        missing = int(np.argmin(counts))
        raise ValueError(f"class {missing} has no training samples")
    quantizer = Quantizer.fit(projected, bits)

    class_vectors = np.zeros((classes, dimension))
    for h, label in zip(projected, dataset.train_y):
        class_vectors[label] += h

    # Scores divide by the class norms, floored at 1e-12. A correction
    # changes two class vectors, so only their norms are recomputed, with
    # the same whole-row reduction as the full norm.
    scale = np.maximum(np.linalg.norm(class_vectors, axis=1), 1e-12)
    corrections = [0] * epochs
    for epoch in range(epochs):
        for h, label in zip(projected, dataset.train_y.tolist()):
            pred = int((class_vectors @ h / scale).argmax())
            if pred != label:
                class_vectors[label] += HDC_LEARNING_RATE * h
                class_vectors[pred] -= HDC_LEARNING_RATE * h
                changed = [label, pred]
                scale[changed] = np.maximum(np.linalg.norm(class_vectors[changed], axis=1), 1e-12)
                corrections[epoch] += 1
        if not corrections[epoch]:
            break

    centroids = class_vectors / counts[:, None]
    quantized = quantizer.apply(centroids)
    return HDCModel(
        projection=stored_projection,
        class_vectors=class_vectors,
        quantized_class_vectors=quantized,
        quantizer=quantizer,
        corrections=tuple(corrections),
    )


def hdc_class_crossbar(
    model: HDCModel,
    encoding: VoltageEncoding,
    ladder: VoltageLadder = DEFAULT_LADDER,
    variation: Optional[VariationParams] = None,
) -> Crossbar:
    """Array with one row per class, programmed with the quantized prototypes."""
    return Crossbar(encoding, model.quantized_class_vectors, ladder, variation=variation)


def hdc_evaluate(
    model: HDCModel,
    test_x: np.ndarray,
    test_y: np.ndarray,
    cb: Crossbar,
    dm: DistanceMatrix,
) -> PipelineReport:
    """Classify each test sample as its nearest class row, on cb and with the software twin."""
    stored = model.quantized_class_vectors
    return _classify(cb, dm, stored, np.arange(len(stored)), model.encode(test_x), test_y, 1)
