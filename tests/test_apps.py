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


# -- software twins -------------------------------------------------------------


def test_software_distances_direct(hamming_dm):
    stored = np.array([[0, 0], [3, 3], [1, 2]])
    query = np.array([0, 0])
    dists = software_distances(hamming_dm, stored, query)
    assert list(dists) == [0, 4, 2]
    assert software_nearest(hamming_dm, stored, query) == 0


def test_software_knn_order_tie_break(hamming_dm):
    stored = np.array([[1], [0], [1]])
    query = np.array([1])
    assert software_knn_order(hamming_dm, stored, query, 3) == (0, 2, 1)


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
