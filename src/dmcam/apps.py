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

from .crossbar import (
    Crossbar, checked_symbols, entry_sums, narrow_symbols, query_blocks, smallest_k,
)
from .datasets import Dataset
from .device import VariationParams
from .encoder import DEFAULT_LADDER, VoltageEncoding, VoltageLadder
from .metric import DistanceMatrix


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
        columns = np.array(train.T, order="C")  # (features, samples), sorted in place
        columns.sort(axis=1)
        # A sort puts NaN last and infinities at the ends.
        if not np.isfinite(columns[:, [0, -1]]).all():
            raise ValueError("training data must be finite")
        # numpy's "linear" method: virtual index (n - 1) q between two order
        # statistics, clamped to the last one, and its two-sided lerp.
        n = columns.shape[1]
        levels = 1 << bits
        virtual = (n - 1) * (np.arange(1, levels) / levels)
        below = np.floor(virtual)
        above = below + 1
        last = virtual >= n - 1
        below[last] = above[last] = -1
        gamma = virtual - below
        lo = columns[:, below.astype(np.intp)]
        hi = columns[:, above.astype(np.intp)]
        diff = hi - lo
        thresholds = lo + diff * gamma  # (features, levels - 1)
        np.subtract(hi, diff * (1 - gamma), out=thresholds, where=gamma >= 0.5)
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
    """The kq nearest rows in ascending distance; ties go to the lowest index."""
    return smallest_k(software_distances(dm, stored_q, query_q), kq).tolist()


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
class HdcReport:
    """Accuracy of the array and of its software twin, with per-query predictions."""

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

    def to_dict(self) -> dict:
        return {
            "accuracy_hw": self.accuracy_hw,
            "accuracy_sw": self.accuracy_sw,
            "agreement": self.agreement,
        }


@dataclass(frozen=True)
class KnnReport(HdcReport):
    """The same comparison; the KNN summary also reports the accuracy shortfall."""

    @property
    def degradation_pp(self) -> float:
        """Hardware accuracy shortfall versus software, in percentage points."""
        return (self.accuracy_sw - self.accuracy_hw) * 100.0

    def to_dict(self) -> dict:
        return {**super().to_dict(), "degradation_pp": self.degradation_pp}


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
) -> KnnReport:
    """Store the quantized training set row-per-sample and classify queries.

    The software twin ranks rows by exact integer distance with the same
    index tie-break and votes with the same rule.
    """
    quantizer = Quantizer.fit(train_x, bits)
    # Symbols stay narrow on their way to the masks: the stored set is counted
    # narrow; the test set goes through apply (perfbench/spans.py expects
    # Quantizer.apply calls on knn) and is narrowed once.
    stored_q = quantizer._counts(train_x)
    test_q = narrow_symbols(quantizer.apply(test_x), quantizer.levels)
    train_y = np.asarray(train_y, dtype=np.int64)

    cb = Crossbar(encoding, stored_q, ladder, variation=variation)
    preds_hw = []
    preds_sw = []

    def vote(orders):
        return [majority_label(labels) for labels in train_y[orders].tolist()]

    for block in query_blocks(test_q):
        preds_hw += vote(cb.knn(block, kq))
        preds_sw += vote(software_knn_order(dm, stored_q, block, kq))
    return KnnReport.from_predictions(preds_hw, preds_sw, test_y)


# -- hyperdimensional classification -------------------------------------------


HDC_LEARNING_RATE = 0.1  # scale of one correction-epoch update


@dataclass
class HDCModel:
    """Random projection plus per-class prototype vectors."""

    projection: np.ndarray  # (features, dimension), entries in {-1, +1}
    class_vectors: np.ndarray  # (classes, dimension) float accumulators
    quantized_class_vectors: np.ndarray  # (classes, dimension) symbols
    quantizer: Quantizer  # fitted on projected training vectors

    @property
    def class_count(self) -> int:
        return self.class_vectors.shape[0]

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Project one sample (or a batch) and quantize to symbols.

        Unlike Quantizer.apply, the symbols come in the narrowest unsigned
        dtype that holds levels - 1, so searching them copies nothing.
        """
        return self.quantizer._counts(np.asarray(x, dtype=np.float64) @ self.projection)


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
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    rng = np.random.default_rng(seed)
    # Draw {0, 1} in the stream's int64 and map it to {-1, +1} in place.
    projection = rng.integers(0, 2, (dataset.feature_count, dimension)).astype(np.float64)
    projection *= 2
    projection -= 1
    projected = dataset.train_x @ projection  # (samples, dimension)
    stored_projection = projection.astype(np.int8)
    del projection  # free it before the quantizer sorts a copy of `projected`

    classes = dataset.class_count
    counts = np.bincount(dataset.train_y, minlength=classes).astype(np.float64)
    if (counts == 0).any():
        missing = int(np.argmin(counts))
        raise ValueError(f"class {missing} has no training samples")
    quantizer = Quantizer.fit(projected, bits)

    class_vectors = np.zeros((classes, dimension))
    for h, label in zip(projected, dataset.train_y):
        class_vectors[label] += h

    # A correction changes two class vectors, so only their norms are
    # recomputed, with the same whole-row reduction as the full norm.
    norms = np.linalg.norm(class_vectors, axis=1)
    for _ in range(epochs):
        for h, label in zip(projected, dataset.train_y):
            scores = class_vectors @ h / np.maximum(norms, 1e-12)
            pred = int(np.argmax(scores))
            if pred != label:
                class_vectors[label] += HDC_LEARNING_RATE * h
                class_vectors[pred] -= HDC_LEARNING_RATE * h
                changed = [label, pred]
                norms[changed] = np.linalg.norm(class_vectors[changed], axis=1)

    centroids = class_vectors / counts[:, None]
    quantized = quantizer.apply(centroids)
    return HDCModel(
        projection=stored_projection,
        class_vectors=class_vectors,
        quantized_class_vectors=quantized,
        quantizer=quantizer,
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
) -> HdcReport:
    """Classify each test sample on the class array and with the software twin."""
    queries = model.encode(test_x)
    stored_q = narrow_symbols(model.quantized_class_vectors, model.quantizer.levels)
    preds_hw = []
    preds_sw = []
    for block in query_blocks(queries):
        preds_hw += cb.search(block).winner
        preds_sw += software_nearest(dm, stored_q, block)
    return HdcReport.from_predictions(preds_hw, preds_sw, test_y)
