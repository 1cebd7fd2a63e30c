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

from .crossbar import Crossbar
from .datasets import Dataset
from .device import DEFAULT_ISAT, VariationParams
from .encoder import DEFAULT_LADDER, VoltageEncoding, VoltageLadder
from .metric import DistanceMatrix


@dataclass(frozen=True)
class Quantizer:
    """Per-feature quantile bins fitted on training data."""

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
        levels = 1 << bits
        qs = np.arange(1, levels) / levels
        thresholds = np.quantile(train, qs, axis=0).T  # (features, levels-1)
        return cls(np.ascontiguousarray(thresholds), bits)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Symbol = number of thresholds strictly below the value.

        A constant feature collapses every threshold onto the same point, so
        all of its values land in level 0.
        """
        x = np.asarray(values, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.thresholds.shape[0]:
            raise ValueError("value vector does not match the fitted feature count")
        symbols = (self.thresholds[None, :, :] < x[:, :, None]).sum(axis=2)
        symbols = symbols.astype(np.int64)
        return symbols[0] if squeeze else symbols


# -- software twins ----------------------------------------------------------


def software_distances(dm: DistanceMatrix, stored_q: np.ndarray, query_q: np.ndarray) -> np.ndarray:
    """Per-row integer distances: sum of per-dimension matrix entries."""
    table = np.asarray(dm.entries, dtype=np.int64)
    stored_q = np.atleast_2d(np.asarray(stored_q, dtype=np.int64))
    query_q = np.asarray(query_q, dtype=np.int64)
    return table[query_q[None, :], stored_q].sum(axis=1)


def software_nearest(dm: DistanceMatrix, stored_q: np.ndarray, query_q: np.ndarray) -> int:
    """Argmin row with lowest-index tie-break: the sensing stage's contract."""
    return int(np.argmin(software_distances(dm, stored_q, query_q)))


def software_knn_order(
    dm: DistanceMatrix, stored_q: np.ndarray, query_q: np.ndarray, kq: int
) -> tuple[int, ...]:
    """The kq nearest rows in ascending distance; ties go to the lowest index."""
    order = np.argsort(software_distances(dm, stored_q, query_q), kind="stable")
    return tuple(int(r) for r in order[:kq])


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
    isat: float = DEFAULT_ISAT,
) -> KnnReport:
    """Store the quantized training set row-per-sample and classify queries.

    The software twin ranks rows by exact integer distance with the same
    index tie-break and votes with the same rule.
    """
    quantizer = Quantizer.fit(train_x, bits)
    stored_q = quantizer.apply(train_x)
    test_q = quantizer.apply(test_x)
    train_y = np.asarray(train_y, dtype=np.int64)

    cb = Crossbar(encoding, stored_q, ladder, variation=variation, isat=isat)
    preds_hw = []
    preds_sw = []
    for query in test_q:
        hw_order = cb.knn(query, kq)
        preds_hw.append(majority_label([int(train_y[r]) for r in hw_order]))
        sw_order = software_knn_order(dm, stored_q, query, kq)
        preds_sw.append(majority_label([int(train_y[r]) for r in sw_order]))
    return KnnReport.from_predictions(preds_hw, preds_sw, test_y)


# -- hyperdimensional classification -------------------------------------------


@dataclass
class HDCModel:
    """Random projection plus per-class prototype vectors."""

    projection: np.ndarray  # (features, dimension), entries in {-1, +1}
    class_vectors: np.ndarray  # (classes, dimension) float accumulators
    quantized_class_vectors: np.ndarray  # (classes, dimension) symbols
    quantizer: Quantizer  # fitted on projected training vectors
    bits: int
    seed: int

    @property
    def dimension(self) -> int:
        return self.projection.shape[1]

    @property
    def class_count(self) -> int:
        return self.class_vectors.shape[0]

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Project one sample (or a batch) and quantize to symbols."""
        return self.quantizer.apply(np.asarray(x, dtype=np.float64) @ self.projection)


def hdc_train(
    dataset: Dataset,
    dimension: int = 1024,
    bits: int = 2,
    epochs: int = 0,
    seed: int = 0,
    learning_rate: float = 0.1,
) -> HDCModel:
    """Single-pass prototype accumulation with optional correction epochs.

    Pass 1 sums each class's projected training vectors. Each extra epoch
    revisits samples in order and, on a cosine-similarity misprediction,
    adds the scaled sample to its true class vector and subtracts it from
    the predicted one; the learning rate keeps single corrections small
    next to the accumulated prototype. Prototypes are scaled to per-sample
    magnitude (divided by class size) before sharing the train-fitted
    quantizer.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    features = dataset.feature_count
    projection = (rng.integers(0, 2, (features, dimension)) * 2 - 1).astype(np.float64)

    projected = dataset.train_x @ projection  # (samples, dimension)
    classes = dataset.class_count
    counts = np.bincount(dataset.train_y, minlength=classes).astype(np.float64)
    if (counts == 0).any():
        missing = int(np.argmin(counts))
        raise ValueError(f"class {missing} has no training samples")
    class_vectors = np.zeros((classes, dimension))
    np.add.at(class_vectors, dataset.train_y, projected)

    for _ in range(epochs):
        for h, label in zip(projected, dataset.train_y):
            norms = np.linalg.norm(class_vectors, axis=1)
            scores = class_vectors @ h / np.maximum(norms, 1e-12)
            pred = int(np.argmax(scores))
            if pred != label:
                class_vectors[label] += learning_rate * h
                class_vectors[pred] -= learning_rate * h

    quantizer = Quantizer.fit(projected, bits)
    centroids = class_vectors / counts[:, None]
    quantized = quantizer.apply(centroids)
    return HDCModel(
        projection=projection.astype(np.int8),
        class_vectors=class_vectors,
        quantized_class_vectors=quantized,
        quantizer=quantizer,
        bits=bits,
        seed=seed,
    )


def hdc_class_crossbar(
    model: HDCModel,
    encoding: VoltageEncoding,
    ladder: VoltageLadder = DEFAULT_LADDER,
    variation: Optional[VariationParams] = None,
    isat: float = DEFAULT_ISAT,
) -> Crossbar:
    """Array with one row per class, programmed with the quantized prototypes."""
    return Crossbar(
        encoding, model.quantized_class_vectors, ladder, variation=variation, isat=isat
    )


def hdc_evaluate(
    model: HDCModel,
    test_x: np.ndarray,
    test_y: np.ndarray,
    cb: Crossbar,
    dm: DistanceMatrix,
) -> HdcReport:
    """Classify each test sample on the class array and with the software twin."""
    queries = model.encode(test_x)
    stored_q = model.quantized_class_vectors
    preds_hw = [cb.search(q).winner for q in queries]
    preds_sw = [software_nearest(dm, stored_q, q) for q in queries]
    return HdcReport.from_predictions(preds_hw, preds_sw, test_y)
