import gzip

import numpy as np
import pytest
from conftest import synthetic_digits_via_idx, write_idx

from dmcam.datasets import Dataset, load_csv_dataset, load_idx, load_mnist, synthetic_digits


def test_idx_round_trip_labels(tmp_path):
    labels = np.arange(10, dtype=np.uint8)
    path = tmp_path / "labels-idx1-ubyte"
    write_idx(path, labels)
    assert np.array_equal(load_idx(path), labels)


def test_idx_round_trip_images(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (5, 28, 28)).astype(np.uint8)
    path = tmp_path / "images-idx3-ubyte"
    write_idx(path, images)
    assert np.array_equal(load_idx(path), images)


def test_idx_gzip_transparent(tmp_path):
    labels = np.array([1, 2, 3], dtype=np.uint8)
    raw = tmp_path / "plain"
    write_idx(raw, labels)
    gz = tmp_path / "labels.gz"
    gz.write_bytes(gzip.compress(raw.read_bytes()))
    assert np.array_equal(load_idx(gz), labels)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x01\x02\x03\x04")
    with pytest.raises(ValueError):
        load_idx(path)


def test_idx_truncated(tmp_path):
    labels = np.arange(100, dtype=np.uint8)
    path = tmp_path / "trunc"
    write_idx(path, labels)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValueError):
        load_idx(path)


def test_synthetic_shapes_and_determinism():
    a = synthetic_digits(n_train=50, n_test=10, seed=3)
    b = synthetic_digits(n_train=50, n_test=10, seed=3)
    assert a.train_x.shape == (50, 784)
    assert a.test_x.shape == (10, 784)
    assert a.class_count == 10
    assert a.train_x.min() >= 0.0 and a.train_x.max() <= 255.0
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)


def test_synthetic_via_idx_round_trips(tmp_path):
    ds = synthetic_digits_via_idx(tmp_path / "idx", n_train=30, n_test=6, seed=1)
    direct = synthetic_digits(n_train=30, n_test=6, seed=1)
    assert ds.train_x.shape == direct.train_x.shape
    assert np.array_equal(ds.train_y, direct.train_y)
    # pixel values pass through a uint8 round trip
    assert np.array_equal(ds.train_x, np.round(direct.train_x))


def test_load_mnist_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_mnist(tmp_path)


def test_load_mnist_from_written_idx(tmp_path):
    ds = synthetic_digits_via_idx(tmp_path, n_train=20, n_test=5, seed=2)
    sub = load_mnist(tmp_path, train_size=10, test_size=3, seed=0)
    assert sub.train_x.shape == (10, 784)
    assert sub.test_x.shape == (3, 784)
    assert ds.feature_count == sub.feature_count


def test_csv_dataset(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("# f1,f2,label\n0.0,1.0,0\n1.0,0.0,1\n")
    test.write_text("0.1,0.9,0\n")
    ds = load_csv_dataset(train, test)
    assert ds.name == "csv"
    assert ds.feature_count == 2
    assert ds.class_count == 2
    assert list(ds.test_y) == [0]


def test_csv_dataset_empty(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_csv_dataset(empty, empty)


def test_csv_dataset_rejects_fractional_labels(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("0.0,1.0,0.5\n1.0,0.0,1.9\n")
    test.write_text("0.1,0.9,0\n")
    with pytest.raises(ValueError, match="train labels must be integers"):
        load_csv_dataset(train, test)
    train.write_text("0.0,1.0,0.0\n1.0,0.0,1.0\n")  # integral floats are labels
    assert list(load_csv_dataset(train, test).train_y) == [0, 1]


def test_dataset_rejects_non_integral_labels():
    x = np.zeros((2, 3))
    y = np.array([0, 1])
    for bad in ([0.5, 1.0], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="test labels must be integers"):
            Dataset("bad", x, y, x, np.array(bad))
    assert Dataset("ok", x, y, x, np.array([1.0, 0.0])).test_y.dtype == np.int64


def test_dataset_validation():
    x = np.zeros((4, 3))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValueError):
        Dataset("bad", x, y[:2], x, y)
    with pytest.raises(ValueError):
        Dataset("bad", x, y, np.zeros((2, 5)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        Dataset("bad", x, y - 1, x, y)
    with pytest.raises(ValueError, match="the test split has no samples"):
        Dataset("bad", x, y, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="test features must be finite"):
        Dataset("bad", x, y, np.full((4, 3), np.inf), y)
