"""Dataset containers and loaders: IDX image/label files, labeled CSV, synthetic."""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metric import csv_rows, read_input

IDX_UBYTE = 0x08


def _integer_labels(values, split: str) -> np.ndarray:
    """Labels as int64; a fractional or non-finite float label raises ValueError."""
    labels = np.asarray(values)
    if labels.dtype.kind == "f" and not (np.isfinite(labels) & (labels == np.trunc(labels))).all():
        raise ValueError(f"{split} labels must be integers")
    return labels.astype(np.int64)


@dataclass
class Dataset:
    """Train/test feature matrices with integer class labels."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self) -> None:
        self.train_x = np.asarray(self.train_x, dtype=np.float64)
        self.test_x = np.asarray(self.test_x, dtype=np.float64)
        self.train_y = _integer_labels(self.train_y, "train")
        self.test_y = _integer_labels(self.test_y, "test")
        if self.train_x.ndim != 2 or self.test_x.ndim != 2:
            raise ValueError("feature matrices must be 2-D")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise ValueError("train and test must share the feature count")
        if self.train_x.shape[1] == 0:
            raise ValueError("samples must have at least one feature")
        if len(self.train_y) != len(self.train_x) or len(self.test_y) != len(self.test_x):
            raise ValueError("labels must match their feature matrices")
        for split, x in (("train", self.train_x), ("test", self.test_x)):
            if len(x) == 0:
                raise ValueError(f"the {split} split has no samples")
        if not np.isfinite(self.test_x).all():
            raise ValueError("test features must be finite")
        if self.train_y.min() < 0 or self.test_y.min() < 0:
            raise ValueError("labels must be nonnegative")

    @property
    def feature_count(self) -> int:
        return self.train_x.shape[1]

    @property
    def class_count(self) -> int:
        return int(max(self.train_y.max(), self.test_y.max())) + 1


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as f:
        magic = f.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(path: str | Path) -> np.ndarray:
    """Read a big-endian IDX file of unsigned bytes (labels or image stacks)."""
    with _open_maybe_gzip(Path(path)) as f:
        header = f.read(4)
        if len(header) != 4 or header[0] != 0 or header[1] != 0:
            raise ValueError(f"{path}: not an IDX file")
        dtype_code, ndim = header[2], header[3]
        if dtype_code != IDX_UBYTE:
            raise ValueError(f"{path}: unsupported IDX element type 0x{dtype_code:02x}")
        try:
            shape = struct.unpack(f">{ndim}I", f.read(4 * ndim))
        except struct.error as exc:
            raise ValueError(f"{path}: truncated IDX header") from exc
        count = int(np.prod(shape))
        data = np.frombuffer(f.read(count), dtype=np.uint8)
        if data.size != count:
            raise ValueError(f"{path}: truncated IDX payload")
    return data.reshape(shape)


def _check_size(split: str, size: int | None) -> None:
    if size is not None and size < 0:
        raise ValueError(f"{split} size must be >= 0, got {size}")


def _subset(x: np.ndarray, y: np.ndarray, size: int | None, rng: np.random.Generator, split: str):
    _check_size(split, size)
    if size is None or size >= len(x):
        return x, y
    idx = rng.permutation(len(x))[:size]
    return x[idx], y[idx]


_MNIST_FILES = {
    "train_x": "train-images-idx3-ubyte",
    "train_y": "train-labels-idx1-ubyte",
    "test_x": "t10k-images-idx3-ubyte",
    "test_y": "t10k-labels-idx1-ubyte",
}


def load_mnist(
    root: str | Path,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
) -> Dataset:
    """Load the standard MNIST IDX quartet from a directory (.gz accepted)."""
    root = Path(root)
    arrays = {}
    for key, stem in _MNIST_FILES.items():
        candidates = [root / stem, root / (stem + ".gz")]
        path = next((p for p in candidates if p.exists()), None)
        if path is None:
            raise FileNotFoundError(f"missing MNIST file {stem}[.gz] under {root}")
        arrays[key] = load_idx(path)
    rng = np.random.default_rng(seed)
    train_x = arrays["train_x"].reshape(len(arrays["train_x"]), -1).astype(np.float64)
    test_x = arrays["test_x"].reshape(len(arrays["test_x"]), -1).astype(np.float64)
    train_y, test_y = arrays["train_y"].astype(np.int64), arrays["test_y"].astype(np.int64)
    train_x, train_y = _subset(train_x, train_y, train_size, rng, "train")
    test_x, test_y = _subset(test_x, test_y, test_size, rng, "test")
    return Dataset("mnist", train_x, train_y, test_x, test_y)


def load_csv_dataset(train_path: str | Path, test_path: str | Path) -> Dataset:
    """Rows of 'feature,...,feature,label'; blank and '#' lines are skipped.

    A row with no feature cell or a label that is not an integer raises
    ValueError naming its file.
    """
    splits = []
    for split, path in (("train", train_path), ("test", test_path)):
        rows = np.asarray(csv_rows(read_input(path), path, float))
        if rows.shape[1] < 2:
            raise ValueError(f"{path}: rows must hold at least one feature before the label")
        try:
            splits += [rows[:, :-1], _integer_labels(rows[:, -1], split)]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    train_x, train_y, test_x, test_y = splits
    return Dataset("csv", train_x, train_y, test_x, test_y)


def synthetic_digits(
    n_train: int = 1000,
    n_test: int = 200,
    features: int = 784,
    classes: int = 10,
    seed: int = 7,
    spread: float = 0.12,
    noise: float = 0.40,
) -> Dataset:
    """Deterministic stand-in corpus with the MNIST shape (pixel range 0..255).

    Class templates deviate from a shared base image by `spread`, and samples
    add pixel noise of scale `noise`; the defaults land nearest-neighbor
    accuracy well away from both chance and saturation. Useful where the
    real handwritten corpus is not on disk; it exercises every pipeline
    stage identically.
    """
    _check_size("train", n_train)
    _check_size("test", n_test)
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.3, 0.7, features)
    templates = np.clip(base + spread * rng.normal(0.0, 1.0, (classes, features)), 0.0, 1.0)

    def draw(count):
        labels = rng.integers(0, classes, count)
        samples = templates[labels] + rng.normal(0.0, noise, (count, features))
        return np.clip(samples, 0.0, 1.0) * 255.0, labels

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return Dataset("synthetic", train_x, train_y, test_x, test_y)
