import hashlib

import numpy as np
import pytest

from dmcam.apps import (
    Quantizer,
    hdc_class_crossbar,
    hdc_evaluate,
    hdc_train,
    knn_classify,
    majority_label,
    software_distances,
    software_knn_order,
    software_nearest,
)
from dmcam.datasets import Dataset, synthetic_digits
from dmcam.device import VariationParams


# -- quantizer -----------------------------------------------------------------


def test_quantizer_uniform_feature_uses_quartiles():
    rng = np.random.default_rng(0)
    train = rng.uniform(0.0, 1.0, (20_000, 1))
    q = Quantizer.fit(train, bits=2)
    assert q.thresholds.shape == (1, 3)
    assert np.allclose(q.thresholds[0], [0.25, 0.5, 0.75], atol=0.02)
    symbols = q.apply(train)
    counts = np.bincount(symbols[:, 0], minlength=4) / len(train)
    assert np.allclose(counts, 0.25, atol=0.02)


def test_quantizer_constant_feature_all_zero():
    train = np.full((100, 3), 7.0)
    q = Quantizer.fit(train, bits=2)
    assert np.array_equal(q.apply(train), np.zeros((100, 3), dtype=int))


def test_quantizer_single_vector_and_shape_check():
    train = np.arange(40, dtype=float).reshape(10, 4)
    q = Quantizer.fit(train, bits=1)
    out = q.apply(train[0])
    assert out.shape == (4,)
    with pytest.raises(ValueError):
        q.apply(np.zeros(5))


def test_quantizer_rejects_non_finite_and_empty_training_data():
    train = np.arange(12, dtype=float).reshape(4, 3)
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = train.copy()
        corrupt[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Quantizer.fit(corrupt, bits=2)
    for empty in (np.zeros((0, 3)), np.zeros((4, 0))):
        with pytest.raises(ValueError, match="empty"):
            Quantizer.fit(empty, bits=2)
    with pytest.raises(ValueError):
        Quantizer.fit(train[0], bits=2)


# -- software twins -------------------------------------------------------------


def test_software_distances_direct(hamming_dm):
    stored = np.array([[0, 0], [3, 3], [1, 2]])
    query = np.array([0, 0])
    dists = software_distances(hamming_dm, stored, query)
    assert list(dists) == [0, 4, 2]
    assert software_nearest(hamming_dm, stored, query) == 0


def test_software_distances_rejects_non_integer_symbols(hamming_dm):
    with pytest.raises(ValueError, match="must be integers"):
        software_distances(hamming_dm, [[0.7, 3.9]], [2, 1])
    with pytest.raises(ValueError, match="must be integers"):
        software_distances(hamming_dm, [[0, 3]], [2.5, 1.2])
    with pytest.raises(ValueError, match="must be integers"):
        software_distances(hamming_dm, [[True, False]], [1, 0])


def test_software_knn_order_tie_break(hamming_dm):
    stored = np.array([[1], [0], [1]])
    query = np.array([1])
    assert software_knn_order(hamming_dm, stored, query, 3) == [0, 2, 1]


def test_software_knn_order_rejects_kq_outside_rows(hamming_dm):
    stored = np.array([[1], [0], [1]])
    for kq in (0, -1, 4):
        for query in (np.array([1]), np.array([[1], [0]])):
            with pytest.raises(ValueError, match=r"kq must be in \[1, 3\]"):
                software_knn_order(hamming_dm, stored, query, kq)


def test_software_twins_take_a_batch(hamming_dm):
    stored = np.array([[0, 0], [3, 3], [1, 2]])
    queries = np.array([[0, 0], [3, 3], [1, 1]])
    dists = software_distances(hamming_dm, stored, queries)
    assert dists.tolist() == [[0, 4, 2], [4, 0, 2], [2, 2, 2]]
    assert software_nearest(hamming_dm, stored, queries) == [0, 1, 0]
    assert software_knn_order(hamming_dm, stored, queries, 2) == [[0, 2], [1, 2], [0, 1]]
    with pytest.raises(ValueError):
        software_distances(hamming_dm, np.array([[0, 4]]), queries)
    with pytest.raises(ValueError):  # a negative symbol must not wrap around
        software_distances(hamming_dm, stored, np.array([-1, 0]))


def test_majority_label_rules():
    assert majority_label([1, 1, 2]) == 1
    # tie: the label whose neighbor appears first wins
    assert majority_label([2, 1, 1, 2]) == 2
    assert majority_label([5]) == 5


# -- knn pipeline ----------------------------------------------------------------


def _small_dataset(seed=0, n_train=80, n_test=25):
    return synthetic_digits(n_train=n_train, n_test=n_test, features=36, seed=seed)


def test_knn_zero_variation_matches_software(hamming_compiled, hamming_dm):
    ds = _small_dataset()
    report = knn_classify(
        ds.train_x, ds.train_y, ds.test_x, ds.test_y,
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=1,
    )
    assert report.agreement == 1.0
    assert report.predictions_hw == report.predictions_sw
    assert report.degradation_pp == 0.0


def test_knn_query_equal_to_train_point(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=2)
    report = knn_classify(
        ds.train_x, ds.train_y, ds.train_x[:5], ds.train_y[:5],
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=1,
    )
    # each query is one of the stored rows: distance zero to itself
    assert report.accuracy_hw == 1.0


def test_knn_majority_vote_kq3(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=3)
    report = knn_classify(
        ds.train_x, ds.train_y, ds.test_x, ds.test_y,
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=3,
    )
    assert report.agreement == 1.0


def test_knn_with_variation_reports_delta(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=4)
    report = knn_classify(
        ds.train_x, ds.train_y, ds.test_x, ds.test_y,
        dm=hamming_dm, encoding=hamming_compiled.encoding, bits=2, kq=1,
        variation=VariationParams(0.054, 0.08, seed=9),
    )
    assert 0.0 <= report.accuracy_hw <= 1.0
    assert report.accuracy_sw >= 0.0


# -- hdc pipeline -----------------------------------------------------------------


def test_hdc_single_sample_classes_store_their_projection():
    x = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]])
    y = np.array([0, 1])
    ds = Dataset("toy", x, y, x, y)
    model = hdc_train(ds, dimension=64, bits=2, epochs=0, seed=5)
    projected = x @ model.projection.astype(np.float64)
    assert np.array_equal(model.class_vectors, projected)


def test_hdc_train_deterministic():
    ds = _small_dataset(seed=6)
    a = hdc_train(ds, dimension=128, bits=2, epochs=1, seed=7)
    b = hdc_train(ds, dimension=128, bits=2, epochs=1, seed=7)
    assert np.array_equal(a.projection, b.projection)
    assert np.array_equal(a.quantized_class_vectors, b.quantized_class_vectors)


def _model_digest(model):
    digest = hashlib.sha256()
    for array in (model.projection, model.class_vectors, model.quantized_class_vectors,
                  model.quantizer.thresholds):
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# Recorded before the trainer was made incremental: projection, accumulation,
# correction epochs and quantizer must keep every float bit for bit.
HDC_TRAIN_GOLDEN = {
    (1, 0): "df2aebfe667f4eb4332edaa8e2014c6132836dac0d03a3284c7995146272458e",
    (1, 1): "3282afcf014540ddc75d2e485aea00057564120ccc6bb2e8a4233da84504b50e",
    (1, 2): "98c5eaec00091f87e2b33e405d4b90b059e60e5bf55d62d92fd8e6622c7822b6",
    (2, 0): "940fd6a1f00023b1f90eee12993710d341c5162c5184b297ce48ae3f773d7396",
    (2, 1): "14eda05d12dc588bfd22831e1bac845a61cc9bd7ca10b49eca136b61b0a99884",
    (2, 2): "4a933df07c90bb1b42446ea96f02e83266e84f7d3b6e1567ab3bdf662fc71feb",
}


@pytest.mark.parametrize("seed, epochs", sorted(HDC_TRAIN_GOLDEN))
def test_hdc_train_golden(seed, epochs):
    ds = synthetic_digits(n_train=300, n_test=10, features=64, seed=seed)
    model = hdc_train(ds, dimension=512, bits=2, epochs=epochs, seed=seed)
    assert _model_digest(model) == HDC_TRAIN_GOLDEN[seed, epochs]


def test_hdc_missing_class_rejected():
    x = np.zeros((3, 4))
    y = np.array([0, 0, 2])  # class 1 has no samples
    ds = Dataset("toy", x, y, x, y)
    with pytest.raises(ValueError):
        hdc_train(ds, dimension=16)


def test_hdc_stored_class_vector_maps_to_its_row(hamming_compiled):
    ds = _small_dataset(seed=8)
    model = hdc_train(ds, dimension=128, bits=2, seed=8)
    cb = hdc_class_crossbar(model, hamming_compiled.encoding)
    for row in range(model.class_count):
        assert cb.search(model.quantized_class_vectors[row]).winner == row


def test_hdc_zero_variation_agreement(hamming_compiled, hamming_dm):
    ds = _small_dataset(seed=9)
    model = hdc_train(ds, dimension=256, bits=2, epochs=1, seed=9)
    cb = hdc_class_crossbar(model, hamming_compiled.encoding)
    report = hdc_evaluate(model, ds.test_x, ds.test_y, cb, hamming_dm)
    assert report.agreement == 1.0
    assert report.predictions_hw == report.predictions_sw
    assert len(report.predictions_hw) == len(ds.test_y)


def _cosine_train_accuracy(model, ds):
    projected = ds.train_x @ model.projection.astype(np.float64)
    norms = np.linalg.norm(model.class_vectors, axis=1)
    scores = projected @ model.class_vectors.T / np.maximum(norms, 1e-12)
    return float((np.argmax(scores, axis=1) == ds.train_y).mean())


def test_hdc_retraining_trend_over_seeds():
    # extra epochs should not degrade the training fit; trend over 5 seeds
    deltas = []
    for seed in range(5):
        ds = synthetic_digits(n_train=200, n_test=20, features=64, seed=20 + seed)
        accs = []
        for epochs in (0, 2):
            model = hdc_train(ds, dimension=256, bits=2, epochs=epochs, seed=seed)
            accs.append(_cosine_train_accuracy(model, ds))
        assert accs[1] >= accs[0] - 0.02  # single-seed noise band
        deltas.append(accs[1] - accs[0])
    assert float(np.mean(deltas)) >= 0.0


def test_hdc_correction_updates_fire():
    ds = synthetic_digits(n_train=200, n_test=20, features=64, seed=40)
    plain = hdc_train(ds, dimension=256, bits=2, epochs=0, seed=1)
    refined = hdc_train(ds, dimension=256, bits=2, epochs=1, seed=1)
    assert not np.array_equal(plain.class_vectors, refined.class_vectors)


def test_quantized_vs_real_argmin_agreement_reported(hamming_dm):
    # measured, not asserted: how often the quantized nearest-centroid pick
    # matches the real-valued one
    ds = _small_dataset(seed=31)
    model = hdc_train(ds, dimension=256, bits=2, seed=31)
    projected = ds.test_x @ model.projection.astype(np.float64)
    centroids = model.class_vectors / np.bincount(ds.train_y)[:, None]
    agree = 0
    for x_p, x_q in zip(projected, model.encode(ds.test_x)):
        real_pick = int(np.argmin(((centroids - x_p) ** 2).sum(axis=1)))
        quant_pick = software_nearest(hamming_dm, model.quantized_class_vectors, x_q)
        agree += real_pick == quant_pick
    print(f"quantized-vs-real argmin agreement: {agree}/{len(projected)}")
